"""Faber polynomials: series route, contour route, coefficients, identities."""

import cmath
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import faberbohr as fb
from faberbohr.errors import (
    AliasingRisk,
    DomainError,
    FaberBohrError,
    PointInsideK,
    PointInsideLevel,
    PointOutsideLevel,
    ReconstructionMismatch,
    WrongKind,
)
from faberbohr.series import (
    QC,
    _affine_compose_qc,
    laurent_pow,
    split_parts_exact,
)

FULL_MANTISSA = (-1.2345678901234567, 2.718281828459045)


def _cheb_exact(n: int):
    """Integer Chebyshev coefficients, ascending, by the recurrence."""
    if n == 0:
        return [1]
    prev, cur = [1], [0, 1]
    for _ in range(n - 1):
        nxt = [0] + [2 * c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return cur


class TestSegmentConstruction:
    def test_first_three(self, seg):
        polys = fb.faber_polys(seg, 2)
        assert np.array_equal(polys[0].coeffs, [1.0 + 0j])
        assert np.array_equal(polys[1].coeffs, [0.0, 2.0])
        assert np.array_equal(polys[2].coeffs, [-2.0, 0.0, 4.0])

    def test_exactly_doubled_chebyshev(self, seg):
        """The exact coefficients agree with 2 T_n, no rounding at all."""
        polys = fb.faber_polys(seg, 24)
        for n in range(1, 25):
            ref = _cheb_exact(n)
            got = polys[n].exact
            assert len(got) == n + 1
            for qc, c in zip(got, ref):
                assert qc.im == 0
                assert qc.re == Fraction(2 * c)

    def test_parity(self, seg):
        polys = fb.faber_polys(seg, 16)
        for n in range(17):
            for k, c in enumerate(polys[n].coeffs):
                if (n - k) % 2 == 1:
                    assert c == 0

    def test_affine_transport(self, seg, rng):
        """F on [a, b] is F on [-1, 1] composed with the affine chart."""
        K2 = fb.segment(0.5, 3.5)
        polys = fb.faber_polys(K2, 8)
        canon = fb.faber_polys(seg, 8)
        z = 2.0 + 1.5 * rng.random(10) + 1j * rng.random(10)
        for n in range(9):
            u = (2.0 * z - 0.5 - 3.5) / 3.0
            ref = canon[n](u)
            got = polys[n](z)
            assert np.max(np.abs(got - ref)) < 1e-10 * max(
                1.0, float(np.max(np.abs(ref))))
        assert fb.target_identity_check(K2, 5, 1.3 * np.exp(0.4j))

    def test_single_matches_batch(self, seg):
        batch = fb.faber_polys(seg, 10)
        one = fb.faber_poly(seg, 7)
        assert np.array_equal(one.coeffs, batch[7].coeffs)

    @pytest.mark.parametrize("a, b", [(-0.5, 2.0), FULL_MANTISSA])
    def test_transported_chebyshev_view(self, a, b):
        """On [a, b] the exact Chebyshev view of F_n is exactly 2 T_n."""
        polys = fb.faber_polys(fb.segment(a, b), 24)
        for n in range(1, 25):
            assert np.array_equal(polys[n].cheb_floats(a, b), [0] * n + [2])


def _three_term_map():
    """1.0057 z + g0 + t1/z + t2/z^2 + t3/z^3 with full-mantissa coefficients.

    Its critical values lie in |w| <= 0.88, so the map is univalent.
    """
    return fb.custom(fb.LaurentTail.build(
        1.0057, cmath.rect(0.1, 2.1),
        (cmath.rect(0.12, 2.5), cmath.rect(0.05, 1.9), cmath.rect(0.025, 1.3))))


def _readme_map():
    data = json.loads((Path(__file__).parent / "data" / "readme_map.json")
                      .read_text())
    return fb.custom(fb.LaurentTail.build(
        data["gamma"], complex(*data["gamma0"]),
        [complex(*t) for t in data["tail"]]))


def _series_route(K, N):
    """Polynomial parts of phi^0, ..., phi^N by powering the exterior series.

    Segments are powered in canonical position and moved to [a, b] by
    the exact affine change of variable.
    """
    base = fb.segment() if K.kind == "segment" else K
    # depth N + 4 covers every map tail below; powering to n needs depth n
    s = fb.exterior_series(base, N + 4)
    polys = [split_parts_exact(laurent_pow(s, n, 0))[0] for n in range(N + 1)]
    if K.kind != "segment":
        return polys
    a, b = Fraction(K.a), Fraction(K.b)
    alpha, beta = QC(2 / (b - a)), QC(-(a + b) / (b - a))
    return [_affine_compose_qc(p, alpha, beta) for p in polys]


class TestExactRoute:
    @pytest.mark.parametrize("make, N", [
        (lambda: fb.segment(-1.0, 1.0), 40),
        (lambda: fb.segment(*FULL_MANTISSA), 24),
        (lambda: fb.disc(0.3 + 0.1j, 0.7), 24),   # 1/r is not dyadic
        (_readme_map, 24),
        (lambda: fb.custom(fb.LaurentTail.build(2.0, 0.1, (0.5, 0.0, 0.125))),
         24),   # the custom_spec fixture
        (_three_term_map, 24),
    ], ids=["segment", "segment-full-mantissa", "disc", "readme-map",
            "custom-fixture", "three-term-map"])
    def test_equals_series_route(self, make, N):
        K = make()
        polys = fb.faber_polys(K, N)
        for n, ref in enumerate(_series_route(K, N)):
            assert polys[n].exact == ref
        for n in range(N):
            assert fb.faber_poly(K, n) is polys[n]


class TestDiscConstruction:
    def test_binomial_coefficients(self):
        K = fb.disc(0.3 - 0.4j, 1.5)
        polys = fb.faber_polys(K, 6)
        base = np.polynomial.polynomial.Polynomial(
            [-(0.3 - 0.4j) / 1.5, 1.0 / 1.5])
        for n in range(7):
            ref = (base ** n).coef
            assert np.max(np.abs(polys[n].coeffs - ref)) < 1e-13 * max(
                1.0, float(np.max(np.abs(ref))))

    def test_unit_disc_monomials(self, udisc):
        polys = fb.faber_polys(udisc, 5)
        for n in range(6):
            want = np.zeros(n + 1, dtype=complex)
            want[n] = 1.0
            assert np.array_equal(polys[n].coeffs, want)


class TestContourRoute:
    def test_point_oracle(self, seg):
        got = fb.faber_contour(seg, 3, 0.3, 2.0)
        assert got == pytest.approx(-1.584, abs=1e-9)

    def test_degree_zero(self, seg):
        assert fb.faber_contour(seg, 0, 0.2, 2.0) == pytest.approx(
            1.0, abs=1e-12)

    def test_matches_series_on_catalog(self, seg, udisc, rng):
        for K in (seg, udisc):
            rho = 1.1 + 0.7 * rng.random(12)
            zs = np.asarray(fb.psi(K, rho * np.exp(2j * np.pi * rng.random(12))))
            polys = fb.faber_polys(K, 12)
            mat = fb.contour_values(K, list(range(13)), zs, 2.0)
            ref = np.array([[polys[n].eval_exact(z) for z in zs]
                            for n in range(13)])
            assert np.max(np.abs(mat - ref)) < 1e-8

    def test_level_preconditions(self, seg):
        outside = fb.psi(seg, 2.5)
        with pytest.raises(PointOutsideLevel):
            fb.faber_contour(seg, 3, outside, 2.0)
        with pytest.raises(PointInsideLevel):
            fb.faber_remainder(seg, 3, 0.3, 2.0)

    def test_splitting_identity(self, seg):
        """phi^n recombines from the polynomial and the remainder."""
        z = 3.0
        ph = complex(fb.phi(seg, z))
        assert ph == pytest.approx(3.0 + math.sqrt(8.0), abs=1e-12)
        for n in range(7):
            Fn = fb.faber_poly(seg, n).eval_exact(z)
            En = fb.faber_remainder(seg, n, z, 2.0)
            assert abs(ph ** n - (Fn + En)) < 1e-8 * max(1.0, abs(ph) ** n)


def _contour_mp_accumulated(K, ns, zs, r, m, dps):
    """The per-point accumulation loop that the memoised mpmath route replaced.

    For every z the powers w_j^n are multiplied up one degree at a time
    and each requested n is summed in a Python loop.
    """
    from mpmath import mp, mpc

    out = np.zeros((len(ns), len(zs)), dtype=complex)
    with mp.workdps(dps):
        rr = mp.mpf(repr(float(r)))
        ws = [rr * mpc(mp.cos(2 * mp.pi * j / m), mp.sin(2 * mp.pi * j / m))
              for j in range(m)]
        ts, dpsi = K.mp_nodes(ws)
        dw = [d * w for d, w in zip(dpsi, ws)]
        for jz, z in enumerate(zs):
            zq = mpc(z.real, z.imag)
            B = [dw[j] / (ts[j] - zq) for j in range(m)]
            pw = [mpc(1, 0)] * m
            sums = {}
            for n in range(max(ns) + 1):
                if n in ns:
                    acc = mpc(0, 0)
                    for j in range(m):
                        acc += pw[j] * B[j]
                    sums[n] = acc / m
                pw = [p * w for p, w in zip(pw, ws)]
            for i, n in enumerate(ns):
                out[i, jz] = complex(sums[n])
    return out


class TestContourMp:
    NS = [7, 0, 12, 3, 7, 1, 12]   # unsorted, with duplicates

    @staticmethod
    def _points(K):
        """Three points on the level 1.2 curve and one point of K."""
        band = fb.psi(K, 1.2 * np.exp(1j * np.array([0.3, 2.0, 4.4])))
        on_k = (0.3 * K.a + 0.7 * K.b if K.kind == "segment"
                else K.center + 0.5 * K.radius * cmath.exp(1j))
        return np.append(band, on_k)

    @pytest.mark.parametrize("r", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("make", [
        lambda: fb.segment(-1.0, 1.0),
        lambda: fb.segment(-0.5, 2.0),
        lambda: fb.disc(0.3 + 0.1j, 0.7),
    ], ids=["segment", "segment-shifted", "disc"])
    def test_matches_accumulation_loop(self, make, r, monkeypatch):
        K = make()
        zs = self._points(K)
        ref = _contour_mp_accumulated(K, self.NS, zs, r, 256, 30)
        got = fb.contour_values(K, self.NS, zs, r, m=256, dps=30)
        assert np.all(np.abs(got - ref) <= 1e-15 * np.maximum(1.0, np.abs(ref)))
        calls = []
        built = type(K).mp_nodes
        monkeypatch.setattr(type(K), "mp_nodes",
                            lambda self, ws: calls.append(len(ws)) or built(self, ws))
        again = fb.contour_values(K, self.NS, zs, r, m=256, dps=30)
        assert np.array_equal(again, got)
        assert calls == []

    def test_negative_degree_matches_float_route(self, seg):
        zs = [0.3, 0.1 + 0.2j, fb.psi(seg, 1.3j)]
        flt = fb.contour_values(seg, [-1, 2], zs, 2.0, m=256)
        high = fb.contour_values(seg, [-1, 2], zs, 2.0, m=256, dps=20)
        assert np.max(np.abs(high - flt)) < 1e-12

    @pytest.mark.parametrize("dps", [None, 20])
    def test_empty_degrees(self, seg, dps):
        got = fb.contour_values(seg, [], [0.3, 0.1 + 0.2j, -0.5], 2.0, m=64,
                                dps=dps)
        assert got.shape == (0, 3)

    def test_custom_map_has_no_mp_route(self, custom_spec):
        with pytest.raises(FaberBohrError,
                           match="implemented for segment and disc continua only"):
            fb.contour_values(custom_spec, [1], [0.1 + 0.1j], 2.0, m=64, dps=20)
        assert custom_spec._memo == {}


class TestCoefficients:
    def test_positive_power_purity(self, seg):
        """The transform of F_n has a 1 in slot n and nothing else."""
        m = 256
        w = 2.0 * np.exp(2j * np.pi * np.arange(m) / m)
        for n in range(1, 17):
            pw = w ** n
            # extract past n so the top slot is quiet and no aliasing
            # warning fires for the n = N edge case
            series = fb.faber_coeffs(pw + 1.0 / pw, seg, 2.0, 20)
            want = np.zeros(21, dtype=complex)
            want[n] = 1.0
            assert np.max(np.abs(series.coeffs - want)) < 1e-8

    def test_constant_function(self, seg):
        samples = np.full(128, 0.25 + 0.5j)
        series = fb.faber_coeffs(samples, seg, 2.0, 8)
        assert series.coeffs[0] == pytest.approx(0.25 + 0.5j, abs=1e-12)
        assert np.max(np.abs(series.coeffs[1:])) < 1e-12

    def test_anti_aliasing_limit(self, seg):
        with pytest.raises(DomainError):
            fb.faber_coeffs(np.ones(64), seg, 2.0, 17)

    def test_negative_count(self, seg):
        with pytest.raises(DomainError, match="N must be nonnegative"):
            fb.faber_coeffs(np.ones(64), seg, 2.0, -1)

    def test_aliasing_warning(self, seg):
        m = 64
        w = 2.0 * np.exp(2j * np.pi * np.arange(m) / m)
        pw = w ** 16
        with pytest.warns(AliasingRisk):
            fb.faber_coeffs(pw + 1.0 / pw, seg, 2.0, 16)

    def test_reconstruction_check(self, seg):
        m = 128
        w = 2.0 * np.exp(2j * np.pi * np.arange(m) / m)
        samples = 0.5 * (w + 1.0 / w)  # 0.5 F_1 along the circle
        ok = fb.faber_coeffs(samples, seg, 2.0, 8,
                             fn=lambda z: z, verify=True)
        assert ok.coeffs[1] == pytest.approx(0.5, abs=1e-10)
        with pytest.raises(ReconstructionMismatch):
            fb.faber_coeffs(samples, seg, 2.0, 8,
                            fn=lambda z: 0.0, verify=True)

    def test_series_eval_routes_agree(self, seg, rng):
        coeffs = (rng.standard_normal(6) + 1j * rng.standard_normal(6)) / 8.0
        f = fb.FaberSeries(K=seg, R=2.0, coeffs=coeffs)
        w = 2.0 * np.exp(2j * np.pi * rng.random(16))
        direct = f.eval_w(w)
        through = f.eval_z(np.asarray(fb.psi(seg, w)))
        assert np.max(np.abs(direct - through)) < 1e-9 * np.max(
            1.0 + np.abs(direct))


class TestIdentitiesAndNorms:
    def test_target_identity_exact(self, seg):
        assert fb.target_identity_residual(seg, 1, 2.0) == 0.0
        assert fb.target_identity_residual(
            seg, 5, 1.1 * np.exp(1j * np.pi / 7)) <= 1e-12
        assert fb.faber_poly(seg, 1)(fb.psi(seg, 2.0)) == pytest.approx(2.5)

    def test_target_identity_guards(self, seg, udisc):
        with pytest.raises(DomainError):
            fb.target_identity_residual(seg, 0, 2.0)
        with pytest.raises(WrongKind):
            fb.target_identity_residual(udisc, 3, 2.0)

    def test_norm_root_disc_level(self, udisc):
        pts = [fb.psi(udisc, 2.0 * np.exp(1j * t)) for t in (0.1, 2.0, 4.0)]
        for n in (1, 5, 12):
            assert fb.norm_root(udisc, pts, n) == pytest.approx(2.0, rel=1e-12)

    def test_norm_root_rejects_interior(self, seg):
        with pytest.raises(PointInsideK):
            fb.norm_root(seg, [0.2], 3)

    def test_json_shapes(self, seg):
        p = fb.faber_poly(seg, 2)
        d = p.to_json_dict()
        assert d["n"] == 2
        assert d["coeffs"] == [[-2.0, 0.0], [0.0, 0.0], [4.0, 0.0]]
        f = fb.FaberSeries(K=seg, R=3.0, coeffs=np.array([0.5, 0.25]))
        fd = f.to_json_dict()
        assert fd["R"] == 3.0
        assert fd["coeffs"] == [[0.5, 0.0], [0.25, 0.0]]
