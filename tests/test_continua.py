"""Conformal geometry: exterior coordinates, level curves, distances, sups."""

import cmath
import gc
import math
import weakref

import numpy as np
import pytest

import faberbohr as fb
from faberbohr.errors import (
    DomainError,
    InsideUnitDisc,
    PointInsideK,
)

SQ3 = math.sqrt(3.0)


class TestExteriorCoordinate:
    def test_segment_branch_value(self, seg):
        assert complex(fb.phi(seg, 2.0)) == pytest.approx(2.0 + SQ3, abs=1e-14)
        left = complex(fb.phi(seg, -2.0))
        assert abs(left) > 1.0
        assert left == pytest.approx(-(2.0 + SQ3), abs=1e-13)

    @pytest.mark.parametrize("kind", ["seg", "udisc", "custom_spec"])
    def test_roundtrip(self, kind, request, rng):
        K = request.getfixturevalue(kind)
        w = (1.05 + 2.0 * rng.random(40)) * np.exp(2j * np.pi * rng.random(40))
        z = fb.psi(K, w)
        back = fb.phi(K, z)
        assert np.max(np.abs(back - w)) < 1e-9 * np.max(np.abs(w))

    def test_membership(self, seg, udisc):
        assert fb.contains(seg, 0.5)
        assert fb.contains(seg, -1.0)
        assert not fb.contains(seg, 0.5 + 0.1j)
        assert fb.contains(udisc, 0.3 - 0.4j)
        assert fb.contains(udisc, 1.0)
        assert not fb.contains(udisc, 1.0 + 1e-6)

    def test_phi_rejects_interior(self, seg, udisc):
        with pytest.raises(PointInsideK):
            fb.phi(seg, 0.5)
        with pytest.raises(PointInsideK):
            fb.phi(udisc, 0.2 + 0.1j)

    def test_psi_rejects_unit_disc(self, seg):
        with pytest.raises(InsideUnitDisc):
            fb.psi(seg, 0.5)

    def test_green_is_log_modulus(self, seg, custom_spec):
        for K in (seg, custom_spec):
            z = fb.psi(K, 2.0 * np.exp(0.7j))
            assert fb.green(K, z) == pytest.approx(math.log(2.0), abs=1e-9)

    def test_green_monotone_on_ray(self, seg):
        vals = [float(fb.green(seg, 1.0 + t)) for t in (0.25, 0.5, 1.0, 2.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_psi_prime_matches_difference_quotient(self, seg, custom_spec):
        for K in (seg, custom_spec):
            w = 1.7 * np.exp(0.9j)
            h = 1e-6
            fd = (fb.psi(K, w + h) - fb.psi(K, w - h)) / (2 * h)
            assert complex(fb.psi_prime(K, w)) == pytest.approx(
                complex(fd), rel=1e-6)


class TestLevelGeometry:
    def test_eccentricity_values(self):
        assert fb.eccentricity(10.0) == pytest.approx(20.0 / 101.0, abs=1e-15)
        assert fb.eccentricity(2.0) == pytest.approx(0.8)
        with pytest.raises(DomainError):
            fb.eccentricity(1.0)

    def test_disc_arc_length(self, udisc):
        for r in (1.5, 2.0, 5.0):
            got = fb.arc_length(udisc, r)
            assert got == pytest.approx(2.0 * np.pi * r, rel=1e-9)

    def test_disc_arc_length_scales_with_radius(self):
        K = fb.disc(1.0 + 2.0j, 0.5)
        assert fb.arc_length(K, 2.0) == pytest.approx(2.0 * np.pi, rel=1e-9)

    def test_segment_ellipse_perimeter(self, seg):
        # semi-axes 1.25 and 0.75; Ramanujan's second approximation
        assert fb.arc_length(seg, 2.0) == pytest.approx(6.38175, abs=1e-3)

    def test_dist_segment_vertex(self, seg):
        # psi(3) = 5/3 lies on the major axis; nearest ellipse point of
        # the level-2 curve is the vertex at 5/4
        got = fb.dist_to_level(seg, 5.0 / 3.0, 2.0)
        assert got == pytest.approx(5.0 / 12.0, abs=1e-6)

    def test_dist_concentric_circles(self, udisc):
        for theta in (0.0, 1.1, 3.9):
            z = 2.5 * np.exp(1j * theta)
            assert fb.dist_to_level(udisc, z, 1.5) == pytest.approx(
                1.0, abs=1e-8)

    def test_dist_vanishes_on_curve(self, seg):
        z = fb.psi(seg, 2.0 * np.exp(0.6j))
        assert abs(fb.dist_to_level(seg, z, 2.0)) < 1e-6

    def test_level_boundary_roundtrip_and_csv(self, seg):
        ls = fb.level_boundary(seg, 2.0, 8)
        assert len(ls.points) == 8
        assert np.max(np.abs(np.abs(fb.phi(seg, ls.points)) - 2.0)) < 1e-9
        csv = ls.to_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == "theta,re,im"
        assert len(lines) == 9
        assert csv.endswith("\n")

    def test_level_boundary_rejects_tiny_m(self, seg):
        with pytest.raises(DomainError):
            fb.level_boundary(seg, 2.0, 4)

    def test_scaled_closure_divides_phi(self, seg):
        for R in (2.0, 4.0):
            Kt = fb.scaled_closure(seg, R)
            z = fb.psi(seg, (R + 2.0) * np.exp(0.4j))
            assert complex(fb.phi(Kt, z)) == pytest.approx(
                complex(fb.phi(seg, z)) / R, rel=1e-9)

    def test_disc_exterior_series_is_exact(self):
        K = fb.disc(0.3 + 0.2j, 1.7)
        g = fb.exterior_series(K, 5)
        assert g.coeff(1) == pytest.approx(1.0 / 1.7, abs=1e-15)
        assert g.coeff(0) == pytest.approx(-(0.3 + 0.2j) / 1.7, abs=1e-15)
        assert all(g.coeff(-k) == 0 for k in range(1, 6))


class TestSupNorm:
    def test_chebyshev_cap(self, seg):
        p = fb.faber_poly(seg, 3)
        s = fb.sup_norm(p, seg)
        assert float(s) == pytest.approx(2.0, abs=1e-9)
        assert s.samples >= 1

    def test_constant(self, seg):
        p = fb.faber_poly(seg, 0)
        assert float(fb.sup_norm(p, seg)) == pytest.approx(1.0, abs=1e-12)

    def test_disc_powers(self, udisc):
        # |((z - c)/rho)^n| = 1 on the boundary circle
        for n in (1, 4, 9):
            p = fb.faber_poly(udisc, n)
            assert float(fb.sup_norm(p, udisc)) == pytest.approx(1.0, abs=1e-9)

    def test_on_level_set(self, seg):
        ls = fb.level_boundary(seg, 2.0, 512)
        p = fb.faber_poly(seg, 1)
        # sup of |w + 1/w| on |w| = 2 is 2.5
        assert float(fb.sup_norm(p, ls)) == pytest.approx(2.5, abs=1e-6)


class TestMemoLifetime:
    def test_dropped_continua_are_freed(self):
        """Data derived from K is memoised on K, so it goes when K goes."""
        refs = []
        for K in (fb.segment(-0.5, 2.0), fb.disc(0.3 + 0.1j, 0.7),
                  fb.custom(fb.LaurentTail.build(
                      1.0057, cmath.rect(0.1, 2.1),
                      (cmath.rect(0.12, 2.5), cmath.rect(0.05, 1.9),
                       cmath.rect(0.025, 1.3))))):
            z = complex(fb.psi(K, 1.2))
            fb.faber_polys(K, 6)
            fb.contour_values(K, [2], [z], 1.5, m=64)
            if K.kind != "custom":
                fb.contour_values(K, [2], [z], 1.5, m=64, dps=20)
            fb.basis_norm(K, 3, up_to=5)
            ctx = fb.make_context(K, 1.5, 2.5, n_max=4, m=128)
            fb.en_bound(ctx, 3, ctx.a)
            refs.append(weakref.ref(K))
        del K, ctx
        gc.collect()
        assert [ref() for ref in refs] == [None, None, None]
