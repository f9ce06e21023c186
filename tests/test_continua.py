"""Conformal geometry: exterior coordinates, level curves, distances, sups."""

import cmath
import gc
import math
import time
import warnings
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import faberbohr as fb
from faberbohr.cli import main as cli_main
from faberbohr.continua import _angles, _row_sups, _sampled_distance
from faberbohr.errors import (
    DomainError,
    InsideUnitDisc,
    NonConvergent,
    PointInsideK,
)
from series_reference import QC, qc_values

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

    def test_custom_psi_does_not_depend_on_the_batch(self):
        """Each point stops at its own convergence, so psi of an array is
        psi of each of its points."""
        K = fb.custom(fb.LaurentTail.build(
            1.0057, cmath.rect(0.1, 2.1),
            (cmath.rect(0.12, 2.5), cmath.rect(0.05, 1.9),
             cmath.rect(0.025, 1.3))))
        rng = np.random.default_rng(3)
        w = (1.01 + 3.0 * rng.random(200)) * np.exp(2j * np.pi * rng.random(200))
        together = fb.psi(K, w)
        alone = [complex(fb.psi(K, w[i:i + 1])[0]) for i in range(len(w))]
        assert together.tolist() == alone

    @pytest.mark.filterwarnings("error")
    def test_segment_ends_near_double_max(self):
        """a + b of segment(1e308, 1.7e308) overflows, and so does 2z in
        phi: psi(K, 2) was inf+0j and phi(K, 1.79e308) warned.  Every sum
        of the segment 2^10 times smaller is in range, and each value is
        that segment's, scaled by 2^10 exactly."""
        K = fb.segment(1e308, 1.7e308)
        small = fb.segment(1e308 / 1024, 1.7e308 / 1024)
        w = np.array([2.0, 1.5j, -1.2 + 0.3j])
        assert np.array_equal(fb.psi(K, w), 1024 * fb.psi(small, w))
        assert np.isfinite(fb.psi(K, 2.0))
        z = np.array([1.79e308, 1.2e308 + 1e307j, 0.9e308 - 1e300j])
        assert np.array_equal(fb.phi(K, z), fb.phi(small, z / 1024))
        assert K.psi_coeffs == {k: 1024 * c
                                for k, c in small.psi_coeffs.items()}

    @pytest.mark.filterwarnings("error")
    def test_segment_length_must_be_finite(self):
        """b - a of segment(-1e308, 1e308) overflows: its gamma was 0.0 and
        its psi_coeffs held inf.  It is refused, naming the ends."""
        with pytest.raises(DomainError, match=r"\[-1e\+308, 1e\+308\]"):
            fb.segment(-1e308, 1e308)
        assert fb.segment(-0.8e308, 0.8e308).gamma == pytest.approx(2.5e-308)

    @pytest.mark.filterwarnings("error")
    def test_abs_faber_on_k_near_double_max(self):
        """|F_n| on K, as fk_bound reads it, is the exact value rounded
        once; the affine variable 2 z - a - b of the Chebyshev form it
        replaced overflowed and chebval warned (invalid value).  Each
        value is that of the segment 2^10 times smaller."""
        K = fb.segment(1e308, 1.7e308)
        small = fb.segment(1e308 / 1024, 1.7e308 / 1024)

        def abs_fn(L, n, z):
            return abs(fb.faber_poly(L, n).eval_exact(z))

        for n in (0, 1, 3, 8):
            for z in (1e308, 1.5e308, 1.7e308):
                assert abs_fn(K, n, z) == abs_fn(small, n, z / 1024), (n, z)
        assert abs_fn(K, 1, 1.7e308) == 2.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("K", [fb.segment(1e308, 1.7e308),
                                   fb.disc(1.7e308, 1e308)],
                             ids=["segment", "disc"])
    def test_psi_refuses_a_value_beyond_double_range(self, K):
        """psi(segment(1e308, 1.7e308), 4) was inf after a RuntimeWarning,
        and campaigns summed NaN from it; psi refuses such a value."""
        for w in (4.0, np.array([1.5, 4.0j, 4.0])):
            with pytest.raises(DomainError, match="double range"):
                fb.psi(K, w)
        assert np.isfinite(fb.psi(K, -1.01))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", ["seg", "udisc", "custom_spec"])
    @pytest.mark.parametrize("z", [complex(math.inf, 0.0),
                                   complex(0.5, math.nan),
                                   complex(3.0, -math.inf)],
                             ids=["inf", "nan", "-inf-imag"])
    def test_phi_refuses_non_finite_point(self, kind, z, request):
        """phi(segment(-1, 1), inf) was nan+nanj after a RuntimeWarning,
        and a custom map called inf a point of K.  phi, and so green,
        refuse a non-finite point, as the contour routes do."""
        K = request.getfixturevalue(kind)
        for arg in (z, np.array([3.0 + 1j, z])):
            with pytest.raises(DomainError, match="finite"):
                fb.phi(K, arg)
            with pytest.raises(DomainError, match="finite"):
                fb.green(K, arg)

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


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
# segments and discs at the edges of double range: ends and sums that
# overflow, subnormal fields
_EXTREME = [("segment", 1e308, 1.7e308), ("segment", -0.8e308, 0.8e308),
            ("segment", -5e-324, 5e-324), ("segment", 5e-324, 1.5e-323),
            ("segment", -1e-300, 1e-300),
            ("disc", complex(1e308, -1.7e308), 1.7e308),
            ("disc", complex(-5e-324, 1e-323), 5e-324)]


@st.composite
def _psi_continua(draw):
    """A segment or a disc with full-mantissa fields drawn from the whole
    double range, or one of the extreme continua."""
    kind, x, y = draw(st.one_of(
        st.sampled_from(_EXTREME),
        st.tuples(st.just("segment"), _FINITE, _FINITE),
        st.tuples(st.just("disc"), st.complex_numbers(allow_nan=False,
                                                      allow_infinity=False),
                  st.floats(5e-324, 1.7e308))))
    if kind == "disc":
        return fb.disc(x, y)
    assume(x < y and math.isfinite(y - x))
    return fb.segment(x, y)


def _qc_pow(x: QC, n: int) -> QC:
    out = QC(1)
    for _ in range(n):
        out = out * x
    return out


def _laurent_mul(p: dict, q: dict) -> dict:
    out = {}
    for i, x in p.items():
        for j, y in q.items():
            out[i + j] = out.get(i + j, QC(0)) + x * y
    return out


class TestExactPsi:
    @settings(max_examples=40, deadline=None)
    @given(_psi_continua())
    def test_psi_is_stated_once(self, K):
        """psi_map is psi built here from Fractions of the fields;
        psi_coeffs equal, as doubles, the float forms 0.25 (b - a), the
        midpoint 0.5 (a + b) (0.5 a + 0.5 b where a + b overflows),
        center and radius (the exact map has no signed zero, so a -0.0
        of a disc centre reads +0.0); and F_n(psi(w)), n <= 10, composed
        here with Fractions, is exactly w^n + rho^n w^-n with
        rho = b_1/c, the one Grunsky term; K.rho is rho rounded once."""
        if K.kind == "segment":
            a, b = Fraction(K.a), Fraction(K.b)
            want = {1: QC((b - a) / 4), 0: QC((a + b) / 2),
                    -1: QC((b - a) / 4)}
            q, s = 0.25 * (K.b - K.a), K.a + K.b
            floats = {1: q, -1: q, 0: (0.5 * s if math.isfinite(s)
                                       else 0.5 * K.a + 0.5 * K.b)}
        else:
            want = {1: QC(Fraction(K.radius)), 0: QC.of(K.center)}
            floats = {1: K.radius, 0: K.center}
        stated = qc_values(K.psi_map.ints)
        assert dict(zip(range(1, -len(stated), -1), stated)) == want
        assert K.psi_coeffs == floats
        rho = want.get(-1, QC(0)) / want[1]
        assert K.rho == rho.to_complex()
        for n, ints in enumerate(K.faber_exact(10)):
            comp = {}   # F_n(psi(w)) by Horner's rule
            for c in reversed(qc_values(ints)):
                comp = _laurent_mul(comp, want)
                comp[0] = comp.get(0, QC(0)) + c
            grunsky = {n: QC(1)}   # w^n + rho^n w^-n, 1 at n = 0
            if n and not rho.is_zero():
                grunsky[-n] = _qc_pow(rho, n)
            assert {k: v for k, v in comp.items()
                    if not v.is_zero()} == grunsky

    @settings(max_examples=60, deadline=None)
    @given(_psi_continua(),
           st.lists(st.integers(0, 130), min_size=1, max_size=12),
           st.lists(st.tuples(st.floats(1.0, 8.0, exclude_min=True),
                              st.floats(0.0, 2 * math.pi)),
                    min_size=1, max_size=6))
    def test_pullback_is_the_closed_form(self, K, ns, polar):
        """pullback, derived from rho, is to the bit the closed form each
        kind stated: P + 1/P with row n = 0 equal to 1 on a segment, P
        on a disc, P = w**n."""
        w = np.array([cmath.rect(r, t) for r, t in polar])
        P = w[None, :] ** np.asarray(ns, dtype=float)[:, None]
        if K.kind == "segment":
            want = P + 1.0 / P
            want[np.asarray(ns) == 0] = 1.0
        else:
            want = P
        assert K.pullback(ns, w).tobytes() == want.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(_psi_continua(), st.floats(1.0, 1e3, exclude_min=True))
    def test_level_disc_is_the_closed_form(self, K, R):
        """level_disc, derived from rho, is the disc each kind stated: the
        midpoint and (b - a)/4 (R + 1/R) on a segment, the centre and
        radius R on a disc."""
        if K.kind == "segment":
            want = (K.psi_coeffs[0].real, 0.25 * (K.b - K.a) * (R + 1.0 / R))
        else:
            want = (K.center, K.radius * R)
        assert K.level_disc(R, 64) == want


# ends and radii of normal doubles, from 1e-300 to 1e150 in modulus
_NORMAL = st.one_of(st.just(0.0), st.builds(
    lambda s, x: s * x, st.sampled_from([-1.0, 1.0]), st.floats(1e-300, 1e150)))
_POLAR = st.lists(st.tuples(st.floats(1.001, 8.0),
                            st.floats(0.0, 2 * math.pi)), min_size=1, max_size=8)


@st.composite
def _normal_continua(draw):
    """A segment or a disc whose fields are normal doubles."""
    if draw(st.booleans()):
        return fb.disc(complex(draw(_NORMAL), draw(_NORMAL)),
                       abs(draw(_NORMAL)) or 1.0)
    a, b = sorted([draw(_NORMAL), draw(_NORMAL)])
    assume(a < b)
    return fb.segment(a, b)


class TestFiniteMapFloats:
    """The float gamma, psi, psi', phi and disc boundary of segments and
    discs, bit for bit, against reference forms written out here:
    4/(b - a), mid + (b - a)/4 (w + 1/w), (b - a)/4 (1 - w^-2) and the
    larger root u +- sqrt(u^2 - 1) with u = (2z - a - b)/(b - a) on a
    segment; 1/radius, center + radius w, radius, (z - center)/radius
    and center + radius e^(it) on a disc."""

    @settings(max_examples=150, deadline=None)
    @given(_normal_continua(), _POLAR, _POLAR)
    def test_floats_are_the_written_forms(self, K, polar, offsets):
        w = np.array([cmath.rect(r, t) for r, t in polar])
        t = np.array([t for _, t in polar])
        if K.kind == "segment":
            a, b = K.a, K.b
            q = 0.25 * (b - a)
            mid = float((Fraction(a) + Fraction(b)) / 2)
            gamma, z = 4.0 / (b - a), mid + q * (w + 1.0 / w)
            dz = q * (1.0 - w ** -2)
            # points of the plane around K, off the level curves too
            zs = np.concatenate([z, mid + q * np.array(
                [cmath.rect(x - 1.0, y) for x, y in offsets])])
            if abs(a) + abs(b) < 1.0:
                u = (2.0 * zs - (a + b)) / (b - a)
            else:
                u = (zs - mid) / (0.5 * (b - a))
            s = np.sqrt(u * u - 1.0)
            w1, w2 = u + s, u - s
            ph = np.where(np.abs(w1) >= np.abs(w2), w1, w2)
        else:
            c, r = K.center, K.radius
            gamma, z = 1.0 / r, c + r * w
            dz = np.full_like(w, r)
            zs = np.concatenate([z, c + r * np.array(
                [cmath.rect(x - 1.0, y) for x, y in offsets])])
            ph = (zs - c) / r
            p = np.array([0.5, -1j, 2.0])
            with np.errstate(all="ignore"):   # p overflows on large discs
                assert (K._boundary_path(p)(t).tobytes() == np.polynomial.
                        polynomial.polyval(c + r * np.exp(1j * t), p).tobytes())
        assert K.gamma == gamma
        assert fb.psi(K, w).tobytes() == z.tobytes()
        assert fb.psi_prime(K, w).tobytes() == dz.tobytes()
        with np.errstate(all="ignore"):   # u * u of far points overflows
            assert K._phi(zs).tobytes() == ph.tobytes()

    @pytest.mark.parametrize("tail", [(), (0.5, 0.0, 0.125),
                                      (0.2 + 0.1j, -0.05, 0.01j, 0.003)],
                             ids=["depth-0", "depth-3", "depth-4"])
    def test_custom_map_is_the_written_loop(self, rng, tail):
        """phi and phi' of a custom map lead z + c0 + sum t_k z^-k, bit
        for bit, against the loops acc = (acc + t_k)/z and acc = (acc -
        k t_k)/z over k = M, ..., 1 written out here, at any depth."""
        K = fb.custom(fb.LaurentTail.build(2.0, 0.1 - 0.2j, tail))
        lead, c0, t = K._complex
        z = ((rng.standard_normal(2000) + 1j * rng.standard_normal(2000))
             * np.exp(rng.uniform(-3.0, 3.0, 2000)))
        u = 1.0 / z
        acc, dacc = np.zeros_like(z), np.zeros_like(z)
        for k in range(len(t), 0, -1):
            acc = (acc + t[k - 1]) * u
            dacc = (dacc - k * t[k - 1]) * u
        assert K._phi(z).tobytes() == (lead * z + c0 + acc).tobytes()
        assert K._phi_deriv(z).tobytes() == (lead + dacc * u).tobytes()


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
        # the level-2 curve is the vertex at 5/4.  The double nearest
        # 5/3 lies 5/12 + 7e-17 from it, a difference formed exactly.
        got = fb.dist_to_level(seg, 5.0 / 3.0, 2.0)
        assert got == 5.0 / 3.0 - 1.25
        assert got == pytest.approx(5.0 / 12.0, rel=1e-15)

    def test_dist_disc_centre(self, udisc):
        """|g|^2 is constant at the centre, so the critical-angle
        polynomial vanishes and the fixed angle gives the answer (the
        sampled route gave 1.9999999999999996)."""
        assert fb.dist_to_level(udisc, 0.0, 2.0) == 2.0
        assert fb.dist_to_level(fb.disc(0.3 - 2j, 0.7), 0.3 - 2j,
                                3.0) == pytest.approx(2.1, rel=1e-15)

    @pytest.mark.parametrize("h", [2.0 ** -600, 2.0 ** 300])
    def test_dist_affine_invariance(self, seg, h):
        """On [-h, h] every quantity is the [-1, 1] one times a power of
        two, so the distances are too, exactly; unscaled, |g|^2 at
        h = 2^-600 underflowed to the zero polynomial."""
        K = fb.segment(-h, h)
        zs = [0.0, 0.3, -1.0, 0.3 + 0.2j, 5.0 / 3.0, -2.0 + 0.5j, 3.0j,
              complex(fb.psi(seg, 2.0 * np.exp(0.6j))), 1e5 - 3e4j]
        for z in zs:
            assert fb.dist_to_level(K, h * z, 2.0) == h * fb.dist_to_level(
                seg, z, 2.0)

    def test_dist_custom_map_is_sampled(self):
        """A custom map has no psi coefficients; m is its sample count."""
        K = fb.custom(fb.LaurentTail.build(2.0, 0.05, (0.04, 0.01)))
        zs = fb.psi(K, np.array([1.3, 2.5j, -4.0 + 1.0j]))
        for z in list(zs) + [0.05, 0.3 - 0.2j]:
            for m in (64, 1024):
                assert fb.dist_to_level(K, z, 2.0, m) == (
                    _sampled_distance(K, z, 2.0, m))

    @pytest.mark.parametrize("z, r, m, want", [
        (0.05, 1.3, 64, "0x1.0cdac499f6617p-1"),
        (0.05, 1.3, 1024, "0x1.0cdac499f6618p-1"),
        (0.05, 2.0, 64, "0x1.cbf4b464aed68p-1"),
        (0.05, 2.0, 1024, "0x1.cbf4b464aed68p-1"),
        (0.3 - 0.2j, 1.3, 64, "0x1.ff059693b75e4p-3"),
        (0.3 - 0.2j, 1.3, 1024, "0x1.ff059693b75e5p-3"),
        (0.3 - 0.2j, 2.0, 64, "0x1.3703aa54aae10p-1"),
        (0.3 - 0.2j, 2.0, 1024, "0x1.3703aa54aae10p-1"),
        (0.6826908916721934 + 0.32982369070780265j, 1.3, 64,
         "0x1.3c690d088da5fp-3"),
        (0.6826908916721934 + 0.32982369070780265j, 1.3, 1024,
         "0x1.3c690d088da5dp-3"),
        (0.6826908916721934 + 0.32982369070780265j, 2.0, 64,
         "0x1.a23c92a352dc8p-3"),
        (0.6826908916721934 + 0.32982369070780265j, 2.0, 1024,
         "0x1.a23c92a352dc8p-3"),
        (3.0 + 4.0j, 1.3, 64, "0x1.15f4ad7d79f72p+2"),
        (3.0 + 4.0j, 1.3, 1024, "0x1.15f4ad7d79f73p+2"),
        (3.0 + 4.0j, 2.0, 64, "0x1.00406c9244a75p+2"),
        (3.0 + 4.0j, 2.0, 1024, "0x1.00406c9244a75p+2"),
    ])
    def test_dist_readme_map_pinned(self, z, r, m, want):
        """The sampled distance on the README map, pinned to the bit (a
        point of K, one inside the band, one on the level 1.6, one far)."""
        K = fb.custom(fb.LaurentTail.build(2.0, 0.05, (0.04, 0.01)))
        assert fb.dist_to_level(K, z, r, m).hex() == want

    def test_dist_concentric_circles(self, udisc):
        for theta in (0.0, 1.1, 3.9):
            z = 2.5 * np.exp(1j * theta)
            assert fb.dist_to_level(udisc, z, 1.5) == pytest.approx(
                1.0, abs=1e-8)

    def test_dist_vanishes_on_curve(self, seg):
        z = fb.psi(seg, 2.0 * np.exp(0.6j))
        assert abs(fb.dist_to_level(seg, z, 2.0)) < 1e-6

    @pytest.mark.parametrize("K", ["seg", "udisc", "custom_spec"])
    @pytest.mark.parametrize("z", [complex("nan"), complex("inf"),
                                   complex(0.3, -math.inf),
                                   complex(0.3, math.nan)],
                             ids=["nan", "inf", "imag-inf", "imag-nan"])
    def test_dist_refuses_non_finite_point(self, K, z, request):
        """A NaN point gave a NaN distance and an infinite one inf, with
        no error; a distance must be a number the bounds can divide by."""
        with pytest.raises(DomainError, match="finite"):
            fb.dist_to_level(request.getfixturevalue(K), z, 2.0)

    def test_dist_refuses_a_level_beyond_double_range(self):
        """r = 1e308 is finite, but the level circle of radius 1e309 is
        not a double; np.roots would raise LinAlgError on it."""
        with pytest.raises(DomainError, match="double range"):
            fb.dist_to_level(fb.disc(0.0, 10.0), 0.0, 1e308)

    def test_level_boundary_roundtrip_and_csv(self, seg, capsys):
        ls = fb.level_boundary(seg, 2.0, 8)
        assert len(ls.points) == 8
        assert np.max(np.abs(np.abs(fb.phi(seg, ls.points)) - 2.0)) < 1e-9
        # the same level set as the levelset command writes it
        assert cli_main(["levelset", "--R", "2", "--m", "8",
                         "--output", "csv"]) == 0
        csv = capsys.readouterr().out
        lines = csv.strip().split("\n")
        assert lines[0] == "theta,re,im"
        assert len(lines) == 9
        assert csv.endswith("\n")

    @pytest.mark.parametrize("m", [100, 360, 1000])
    def test_level_boundary_is_psi_of_the_printed_angles(self, seg, m):
        """Each point is psi at the theta levelset prints beside it, also
        where m is not a power of two and other angle grids round apart."""
        got = fb.level_boundary(seg, 2.0, m).points
        assert np.array_equal(got, fb.psi(seg, 2.0 * np.exp(1j * _angles(m))))

    def test_level_boundary_rejects_tiny_m(self, seg):
        with pytest.raises(DomainError):
            fb.level_boundary(seg, 2.0, 4)

    def test_scaled_closure_divides_phi(self, seg):
        for R in (2.0, 4.0):
            Kt = fb.scaled_closure(seg, R)
            z = fb.psi(seg, (R + 2.0) * np.exp(0.4j))
            assert complex(fb.phi(Kt, z)) == pytest.approx(
                complex(fb.phi(seg, z)) / R, rel=1e-9)

    @pytest.mark.parametrize("depth", [1, 3, 96])
    def test_scaled_closure_keeps_custom_map(self, custom_spec, depth):
        """A custom closure is the stored map over R at any tail depth:
        its finite tail is neither cut nor padded with zeros.  Depth 3 is
        the fixture map; depths 1 and 96 cut its tail or extend it by a
        small last term."""
        tail = {1: (0.5,), 3: (0.5, 0.0, 0.125),
                96: (0.5, 0.0, 0.125) + (0.0,) * 92 + (2.0 ** -40,)}[depth]
        if depth != 3:
            custom_spec = fb.custom(fb.LaurentTail.build(2.0, 0.1, tail))
        assert custom_spec.map_tail.M == depth
        R = 2.5
        Kt = fb.scaled_closure(custom_spec, R)
        assert Kt.map_tail == custom_spec.map_tail.scaled(1 / Fraction(R))
        assert Kt.map_tail.M == depth
        assert Kt.describe() == f"custom(gamma=0.8, depth={depth})"
        z = fb.psi(custom_spec, 3.0 * np.exp(0.7j))
        assert complex(fb.phi(Kt, z)) == pytest.approx(
            complex(fb.phi(custom_spec, z)) / R, rel=1e-14)

    def test_scaled_closure_of_any_segment(self):
        """The closure of segment(0, 2) raised "series form only available
        for the segment [-1, 1]".  It is the filled ellipse psi(R w), a
        finite map, so the exact and closed-form routes serve it."""
        K, R = fb.segment(0.0, 2.0), 2.0
        Kt = fb.scaled_closure(K, R)
        assert Kt.psi_coeffs == {1: 1.0, 0: 1.0, -1: 0.25}
        assert Kt.rho == 0.25 and Kt.gamma == K.gamma / R == 1.0
        z = fb.psi(K, 3.0 * np.exp(0.4j))
        assert complex(fb.phi(Kt, z)) == pytest.approx(
            complex(fb.phi(K, z)) / R, rel=1e-14)
        assert fb.dist_to_level(Kt, 4.0, 1.5) == pytest.approx(
            fb.dist_to_level(K, 4.0, 3.0), rel=1e-14)
        assert Kt.level_disc(1.5, 64) == K.level_disc(3.0, 64)
        assert fb.faber_remainder(Kt, 5, z, 1.2) == pytest.approx(
            -(0.25 / complex(fb.phi(Kt, z))) ** 5, rel=1e-14)
        F = fb.faber_poly(Kt, 6).eval_exact(z)
        assert fb.faber_contour(Kt, 6, z, 2.0, dps=30) == pytest.approx(
            F, rel=1e-20)
        with pytest.raises(DomainError, match="double range"):   # c R
            fb.scaled_closure(fb.segment(0.0, 1e308), 10.0)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-1e3, 1e3), st.floats(1e-3, 1e3),
           st.floats(1.0, 8.0, exclude_min=True), _POLAR)
    def test_segment_closure_is_psi_of_r_w(self, a, length, R, polar):
        """The closure of a segment at R has Faber family R^-n F_n, exactly
        as rationals, exterior map phi/R, basis norms 1 + R^-2n (n >= 1),
        and holds the points where green <= log R."""
        K = fb.segment(a, a + length)
        Kt = fb.scaled_closure(K, R)
        q = Fraction(R)
        for n, (F, G) in enumerate(zip(fb.faber_polys(K, 12),
                                       fb.faber_polys(Kt, 12))):
            (D, re, im), (E, gre, gim) = F.ints, G.ints
            assert [Fraction(x, E) for x in gre + gim] == [
                Fraction(x, D) / q ** n for x in re + im]
            assert fb.basis_norm(Kt, n) == pytest.approx(
                1 + R ** (-2 * n) if n else 1.0, rel=1e-14)
        z = fb.psi(K, np.array([cmath.rect(3 * R * (r - 1) / 7 + 1.001, t)
                                for r, t in polar]))
        g = fb.green(K, z)
        for zz, gg in zip(z, g):
            if abs(gg - math.log(R)) < 1e-6:   # on the level curve
                continue
            assert fb.contains(Kt, zz) == (gg < math.log(R))
            assert complex(Kt._phi(np.array([zz]))[0]) == pytest.approx(
                complex(fb.phi(K, zz)) / R, rel=1e-9)


_LEVEL_GATES = {
    "scaled_closure": lambda K: fb.scaled_closure(K, math.inf),
    "level_boundary": lambda K: fb.level_boundary(K, math.inf),
    "arc_length": lambda K: fb.arc_length(K, math.inf),
    "eccentricity": lambda K: fb.eccentricity(math.inf),
    "phi_of_R": lambda K: fb.phi_of_R(math.inf),
    "make_context": lambda K: fb.make_context(K, 2.0, math.inf),
    "thm31_conditions": lambda K: fb.thm31_conditions(K, math.inf),
    "gen_bounded": lambda K: fb.gen_bounded(
        K, math.inf, fb.BoundedFamily(count=2)),
    "faber_coeffs": lambda K: fb.faber_coeffs(np.ones(64), K, math.inf, 4),
    "coeff_bound_check": lambda K: fb.coeff_bound_check(
        fb.FaberSeries(K, 2.0, np.array([0.5, 0.1j])), R=math.inf,
        check_pre=False),
    "contour_values": lambda K: fb.contour_values(K, [3], [0.2], math.inf),
    "contour_values_mp": lambda K: fb.contour_values(K, [3], [0.2], math.inf,
                                                     dps=20),
    "faber_contour": lambda K: fb.faber_contour(K, 3, 0.2, math.inf),
    "faber_contour_mp": lambda K: fb.faber_contour(K, 3, 0.2, math.inf,
                                                   dps=20),
    "faber_remainder": lambda K: fb.faber_remainder(K, 3, 3.0, math.inf),
    "dist_to_level": lambda K: fb.dist_to_level(K, 3.0, math.inf),
}


@pytest.mark.parametrize("gate", list(_LEVEL_GATES))
def test_infinite_level_is_refused(seg, gate):
    """An infinite level passes a bare `not R > 1` test; every level gate
    must refuse it with DomainError before any arithmetic runs on it."""
    with pytest.raises(DomainError, match="finite"):
        _LEVEL_GATES[gate](seg)


_NODE_COUNT_GATES = {
    "contour_values": lambda K, m: fb.contour_values(K, [3], [0.2], 2.0, m=m),
    "contour_values_mp": lambda K, m: fb.contour_values(K, [3], [0.2], 2.0,
                                                        m=m, dps=20),
    "faber_contour": lambda K, m: fb.faber_contour(K, 3, 0.2, 2.0, m=m),
    "faber_remainder": lambda K, m: fb.faber_remainder(K, 3, 3.0, 2.0, m=m),
    "dist_to_level": lambda K, m: fb.dist_to_level(K, 3.0, 2.0, m=m),
}


@pytest.mark.parametrize("m", [0, -4])
@pytest.mark.parametrize("gate", list(_NODE_COUNT_GATES))
def test_empty_contour_is_refused(seg, gate, m):
    """With no nodes the trapezoid sums are 0/0; refuse m < 1."""
    with pytest.raises(DomainError, match="m must be at least 1"):
        _NODE_COUNT_GATES[gate](seg, m)


@pytest.mark.parametrize("m", [2.5, 4.0, "4"])
@pytest.mark.parametrize("gate", list(_NODE_COUNT_GATES))
def test_fractional_node_count_is_refused(seg, gate, m):
    """m = 2.5 nodes is a quadrature that does not close (float route) or
    a TypeError (mp route); a node count must be an integer."""
    with pytest.raises(DomainError, match="m must be an integer"):
        _NODE_COUNT_GATES[gate](seg, m)


def test_numpy_integer_counts_pass_the_gates(seg):
    """NumPy integers are integers to every count gate, on both routes."""
    for dps in (None, 20):
        got = fb.contour_values(seg, [np.int64(2)], [0.3], 2.0,
                                m=np.int64(64),
                                dps=None if dps is None else np.int32(dps))
        want = fb.contour_values(seg, [2], [0.3], 2.0, m=64, dps=dps)
        assert np.array_equal(got, want)


_PRECISION_GATES = {
    "contour_values": lambda K, dps: fb.contour_values(K, [1], [0.3], 2.0,
                                                       m=64, dps=dps),
    "faber_contour": lambda K, dps: fb.faber_contour(K, 1, 0.3, 2.0, m=64,
                                                     dps=dps),
    "faber_remainder": lambda K, dps: fb.faber_remainder(K, 1, 3.0, 2.0,
                                                         m=64, dps=dps),
}


@pytest.mark.parametrize("dps", [0, -5, 20.5, 20.0, "20"])
@pytest.mark.parametrize("gate", list(_PRECISION_GATES))
def test_bad_precision_is_refused(seg, gate, dps):
    """dps = 0 gave F_1(0.3) = 0.625 and dps = -5 gave 0.25 on [-1, 1]
    (the true value is 0.6); dps must be an integer of at least 1."""
    with pytest.raises(DomainError, match="dps must be an integer"):
        _PRECISION_GATES[gate](seg, dps)


_DEGREE_GATES = {
    "contour_values": lambda K, n, dps: fb.contour_values(K, [2, n], [0.3],
                                                          2.0, m=64, dps=dps),
    "faber_contour": lambda K, n, dps: fb.faber_contour(K, n, 0.3, 2.0, m=64,
                                                        dps=dps),
    "faber_remainder": lambda K, n, dps: fb.faber_remainder(K, n, 3.0, 2.0,
                                                            m=64, dps=dps),
}


@pytest.mark.parametrize("dps", [None, 20])
@pytest.mark.parametrize("n", [1.5, 2.0, "2"])
@pytest.mark.parametrize("gate", list(_DEGREE_GATES))
def test_fractional_degree_is_refused(seg, gate, n, dps):
    """n = 1.5 gave a branch-cut value of w**1.5 on the float route and a
    TypeError on the mp route; a degree must be an integer."""
    with pytest.raises(DomainError, match="degree .* must be an integer"):
        _DEGREE_GATES[gate](seg, n, dps)


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

    @pytest.mark.parametrize("p, K", [
        (lambda: np.array([0.5, -1j, 2.0, 0.25 + 1j]), fb.disc(0, 5.6e102)),
        (lambda: np.array([0.5, -1j, 2.0, 0.25 + 1j]),
         fb.segment(-1e103, 1e103)),
        (lambda: fb.faber_poly(fb.segment(-1.0, 1.0), 3),
         fb.segment(1e200, 1.5e200)),
        (lambda: fb.faber_poly(fb.segment(-1.0, 1.0), 300),
         fb.segment(1e200, 1.5e200)),
    ], ids=["disc", "segment", "chebyshev-view", "chebyshev-view-300"])
    def test_sup_beyond_double_range_is_refused(self, p, K):
        """A cubic whose values on K overflow returned inf after a
        RuntimeWarning; psi and the pullback refuse such values.  The
        Chebyshev view of F_3 on a far segment raised a bare
        OverflowError from its rounding, and that of F_300 took 10 s to
        refuse, after the whole exact Chebyshev pass."""
        p = p()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            start = time.perf_counter()
            with pytest.raises(DomainError, match="double range") as exc:
                fb.sup_norm(p, K)
            assert time.perf_counter() - start < 2.0
        if hasattr(p, "cheb_floats"):
            assert isinstance(exc.value.__cause__, OverflowError)


_unit = st.floats(0.0, 1.0)


@st.composite
def _distance_cases(draw):
    """(K, z, r): a random segment or disc, a level r and a point on K,
    in the band 1.2 <= |phi| <= 4, on the level curve or far away."""
    if draw(st.booleans()):
        a = draw(st.floats(-10.0, 10.0))
        K = fb.segment(a, a + draw(st.floats(0.1, 20.0)))
        on_k = K.a + draw(_unit) * (K.b - K.a)
    else:
        K = fb.disc(complex(draw(st.floats(-10.0, 10.0)),
                            draw(st.floats(-10.0, 10.0))),
                    draw(st.floats(0.1, 10.0)))
        on_k = K.center + draw(_unit) * K.radius * cmath.exp(
            2j * math.pi * draw(_unit))
    r = draw(st.floats(1.05, 5.0))
    where = draw(st.sampled_from(["K", "band", "curve", "far"]))
    rho = {"band": draw(st.floats(1.2, 4.0)), "curve": r,
           "far": draw(st.floats(1e2, 1e6))}.get(where)
    t = 2.0 * math.pi * draw(_unit)
    z = on_k if rho is None else complex(fb.psi(K, rho * cmath.exp(1j * t)))
    return K, z, r


class TestClosedFormDistance:
    @settings(max_examples=200, deadline=None)
    @given(_distance_cases())
    def test_global_minimum_and_sampled_route(self, case):
        """Below the minimum over 4,096 curve points, up to rounding in
        forming psi(w) - z, and within 1e-12 max(1, d) of the sampled
        route, which samples 1,024 points and refines."""
        K, z, r = case
        d = fb.dist_to_level(K, z, r)
        pts = np.asarray(fb.psi(K, r * np.exp(2j * np.pi * np.arange(4096)
                                              / 4096)))
        grid = np.abs(pts - z)
        scale = max(grid.min(), abs(z), np.abs(pts).max())
        assert d <= grid.min() + 1e-14 * scale
        assert abs(d - _sampled_distance(K, z, r, 1024)) <= 1e-12 * max(1.0, d)

    @pytest.mark.parametrize("K, z", [
        (fb.disc(0j, 1.0), 1.1125369292536007e-308),
        (fb.disc(0j, 1.0), 5e-324),
        (fb.disc(0j, 1e300), 1e-20),
        (fb.segment(-1.0, 1.0), 1e160),
    ], ids=["disc-subnormal", "disc-least", "disc-huge", "segment-far"])
    def test_extreme_offsets(self, K, z):
        """A point next to a disc's centre, or far from a segment, makes
        products of the a_k subnormal; the distance is still the grid
        minimum, with no overflow inside np.roots."""
        d = fb.dist_to_level(K, z, 2.0)
        pts = np.asarray(fb.psi(K, 2.0 * np.exp(2j * np.pi * np.arange(4096)
                                                / 4096)))
        assert d == pytest.approx(np.abs(pts - z).min(), rel=1e-12)


def _refine_distances(K, zs, sign, fallback=False, m=64):
    """Extremal distance from each zs[i] to the level curve at 2, one row each."""
    return _row_sups(lambda t: fb.psi(K, 2.0 * np.exp(1j * t)),
                     lambda x, i: x - zs[i], len(zs), m, sign, fallback)


class TestLockstepRefine:
    @pytest.mark.parametrize("fallback", [False, True])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("K", [fb.segment(-0.5, 2.0),
                                   fb.disc(0.3 + 0.1j, 0.7),
                                   fb.custom(fb.LaurentTail.build(
                                       2.0, 0.05, (0.04, 0.01)))],
                             ids=["segment", "disc", "custom"])
    def test_rows_equal_single_row_calls(self, K, sign, fallback):
        rng = np.random.default_rng(11)
        rho = 1.2 + 3.0 * rng.random(9)
        zs = np.asarray(fb.psi(K, rho * np.exp(2j * np.pi * rng.random(9))))
        together = _refine_distances(K, zs, sign, fallback)
        alone = [float(_refine_distances(K, zs[i:i + 1], sign, fallback)[0])
                 for i in range(len(zs))]
        assert together.tolist() == alone
        if sign < 0 and fallback:
            # the single-row form is the sampled distance itself
            assert alone == [_sampled_distance(K, z, 2.0, 64) for z in zs]

    def test_refinement_beats_the_samples(self, seg):
        zs = np.array([0.3 + 0.2j, -2.0 + 0.5j, 3.0j])
        th = 2.0 * np.pi * np.arange(64) / 64
        d = np.abs(np.asarray(fb.psi(seg, 2.0 * np.exp(1j * th)))[None, :]
                   - zs[:, None])
        assert np.all(_refine_distances(seg, zs, 1.0) >= d.max(axis=1))
        assert np.all(_refine_distances(seg, zs, -1.0) <= d.min(axis=1))

    def test_stalled_stage_falls_back_to_samples(self):
        vals = [np.array([0.0, 2.0, 1.0, 0.5]), np.array([3.0, 1.0, 0.0, 1.0])]

        def stalls(t):
            raise NonConvergent("stalled")

        def path(t):
            if len(t) == 4:   # the sample grid; the golden stages stall
                return None
            raise NonConvergent("stalled")

        def values(x, i):
            return vals[i]

        got = _row_sups(path, values, 2, 4, fallback=True)
        assert got.tolist() == [2.0, 3.0]
        with pytest.raises(NonConvergent):
            _row_sups(path, values, 2, 4)


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
