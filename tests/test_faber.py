"""Faber polynomials: series route, contour route, coefficients, identities."""

import ast
import cmath
import functools
import json
import math
import random
import re
import sys
from fractions import Fraction
from operator import mul
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import faberbohr as fb
import faberbohr.faber as fbf
from faberbohr.cli import main as cli_main
from contour_reference import contour_mp, mp_nodes, reference_nodes
from faberbohr.continua import EllipseSpec
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
from series_reference import (
    QC,
    affine_compose,
    cheb_view,
    exact,
    exterior_series,
    gauss_ints,
    laurent_pow,
    qc_horner,
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
            got = exact(polys[n])
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

    @pytest.mark.parametrize("make, a, b", [
        (lambda: fb.disc(0.3 + 0.1j, 0.7), -0.5, 2.0),
        (lambda: fb.segment(-1.0, 1.0), *FULL_MANTISSA),
    ], ids=["disc-on-shifted-segment", "canonical-on-full-mantissa"])
    def test_foreign_chebyshev_view(self, make, a, b):
        """On a segment other than its own, the Chebyshev view of F_n and
        the sup norm built on it equal, bit for bit, those of the two-step
        transform (affine change of variable, then monomial to Chebyshev)."""
        class TwoStep:   # exposes the reference view to sup_norm
            def __init__(self, p):
                self.cheb_floats = lambda a, b: cheb_view(exact(p), a, b)

        S = fb.segment(a, b)
        polys = fb.faber_polys(make(), 24)
        for p in polys:
            got, want = p.cheb_floats(a, b), cheb_view(exact(p), a, b)
            assert got.tobytes() == want.tobytes(), p.n
        for n in (0, 1, 7, 24):
            assert (float(fb.sup_norm(polys[n], S))
                    == float(fb.sup_norm(TwoStep(polys[n]), S)))


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
    s = exterior_series(base, N + 4)
    polys = [split_parts_exact(laurent_pow(s, n, 0))[0] for n in range(N + 1)]
    if K.kind != "segment":
        return polys
    a, b = Fraction(K.a), Fraction(K.b)
    alpha, beta = QC(2 / (b - a)), QC(-(a + b) / (b - a))
    return [affine_compose(p, alpha, beta) for p in polys]


class TestExactRoute:
    @pytest.mark.parametrize("make, N", [
        (lambda: fb.segment(-1.0, 1.0), 40),
        (lambda: fb.segment(*FULL_MANTISSA), 24),
        (lambda: fb.disc(0.3 + 0.1j, 0.7), 24),   # 1/r is not dyadic
        (_readme_map, 24),
        (lambda: fb.custom(fb.LaurentTail.build(2.0, 0.1, (0.5, 0.0, 0.125))),
         24),   # the custom_spec fixture
        (_three_term_map, 24),
        (lambda: _fraction_map(), 24),   # non-dyadic exact tail
        (lambda: fb.segment(0.1, 0.7), 12),   # b - a is not a double
        (lambda: fb.disc(1e10 - 3j, 1e-5), 12),   # far off 0, and small
    ], ids=["segment", "segment-full-mantissa", "disc", "readme-map",
            "custom-fixture", "three-term-map", "fraction-map",
            "segment-inexact-width", "disc-far-small"])
    def test_equals_series_route(self, make, N):
        K = make()
        polys = fb.faber_polys(K, N)
        for n, ref in enumerate(_series_route(K, N)):
            assert exact(polys[n]) == ref
        for n in range(N):
            assert fb.faber_poly(K, n) is polys[n]

    @pytest.mark.parametrize("make, steps, built", [
        (lambda: fb.segment(*FULL_MANTISSA), (24, 28, 34, 40), 41),
        (lambda: fb.disc(0.3 + 0.1j, 0.7), (24, 28, 34, 40), 41),
        (_three_term_map, (8, 10, 12), None),   # truncation depends on N
        # resumed from fewer than the M + 1 members the recurrence reads
        (lambda: fb.segment(*FULL_MANTISSA), (0, 1, 2, 5), 6),
        (lambda: fb.segment(*FULL_MANTISSA), (1, 2, 4), 5),
        (lambda: fb.disc(0.3 + 0.1j, 0.7), (0, 1, 3), 4),
        (lambda: fb.disc(0.3 + 0.1j, 0.7), (1, 2, 4), 5),
    ], ids=["segment", "disc", "custom", "segment-from-0", "segment-from-1",
            "disc-from-0", "disc-from-1"])
    def test_extension_builds_only_new_members(self, make, steps, built,
                                               monkeypatch):
        """Extending the family builds the new members only, and the
        result equals a family built in one call."""
        K = make()
        counts = []
        build = type(K).faber_exact
        monkeypatch.setattr(type(K), "faber_exact", lambda self, *args: (
            counts.append(len(out := list(build(self, *args)))) or out))
        fb.faber_polys(K, steps[0])
        for n in steps[1:]:
            fb.faber_poly(K, n)
        monkeypatch.undo()
        if built is not None:
            assert sum(counts) == built
        once = fb.faber_polys(make(), steps[-1])
        assert ([exact(p) for p in fb.faber_polys(K, steps[-1])]
                == [exact(p) for p in once])


@pytest.mark.parametrize("make", [lambda: fb.segment(-1e-300, 1e-300),
                                  lambda: fb.disc(0j, 1e-300)],
                         ids=["segment", "disc"])
def test_overflowing_family_fails_at_first_bad_member(make, monkeypatch):
    """F_2 overflows doubles, so the family fails there: faber_exact
    yields members one at a time and F_3, ..., F_300 are never built."""
    K = make()
    pulled = []

    def lazy(self, *args):
        members = build(self, *args)
        assert iter(members) is members, "faber_exact built a whole family"
        return (pulled.append(t) or t for t in members)

    build = type(K).faber_exact
    monkeypatch.setattr(type(K), "faber_exact", lazy)
    with pytest.raises(DomainError, match="coefficients of F_2 overflow"):
        fb.faber_polys(K, 300)
    assert len(pulled) == 3


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


# 3/2 z + (1/3 - i/7) + (1/7)/z + (i/3)/z^2 - (2/21)/z^3 over D = 42
FRACTION_MAP = (42, (63, 14, 6, 0, -4), (0, -6, 0, 14, 0))


def _fraction_map():
    """A map with non-dyadic exact coefficients (thirds and sevenths),
    given as its Gaussian-int triple."""
    return fb.custom(fb.LaurentTail(FRACTION_MAP))


def test_fraction_map_triple():
    """The triple of the fraction map is the one of its QC coefficients."""
    D, re, im = gauss_ints([
        QC(Fraction(3, 2)), QC(Fraction(1, 3), Fraction(-1, 7)),
        QC(Fraction(1, 7)), QC(0, Fraction(1, 3)), QC(Fraction(-2, 21))])
    assert FRACTION_MAP == (D, tuple(re), tuple(im))


KERNEL_CONTINUA = {
    "segment": lambda: fb.segment(-1.0, 1.0),
    "segment-dyadic": lambda: fb.segment(-0.5, 2.0),
    "segment-full-mantissa": lambda: fb.segment(*FULL_MANTISSA),
    "disc-off-centre": lambda: fb.disc(0.3 + 0.1j, 0.7),
    "readme-map": _readme_map,
    "three-term-map": _three_term_map,
    "fraction-map": _fraction_map,
}


@functools.cache
def _kernel_continuum(name):
    """One continuum per name, so the tests reuse its family."""
    return KERNEL_CONTINUA[name]()


KERNEL_N = 24
KERNEL_NS = (0, 1, 2, 7, 13, KERNEL_N)
# z = 0, large |z|, mixed exponents, a subnormal and an overflowing point
KERNEL_POINTS = [0j, 1e10, -3.7e9 + 1.2e10j, 1e-300 + 1j, 5e-324j,
                 0.1 + 0.7j, -2.5 - 1e-5j, 1e300]


def _bits(v: complex) -> tuple:
    """The two doubles of v, told apart down to the sign of zero."""
    return (v.real.hex(), v.imag.hex())


def _outcome(fn):
    """fn() as a comparable value: its bits, or the type it raised."""
    try:
        return _bits(complex(fn()))
    except Exception as exc:   # noqa: BLE001 - the type is the outcome
        return type(exc)


def _on_k(K):
    if K.kind == "segment":
        return [K.a, K.b, 0.3 * K.a + 0.7 * K.b]
    if K.kind == "disc":
        return [K.center + K.radius * cmath.exp(1j * t) for t in (0.0, 2.0)]
    return list(fb.psi(K, (1.0 + 1e-9) * np.exp(1j * np.array([0.0, 2.0]))))


def _residual_reference(K, p, n, w):
    """|p(psi(w)) - (w^n + w^-n)| in QC arithmetic, rounded once."""
    wq = QC.of(complex(w))
    winv = wq.inverse()
    mid = QC((Fraction(K.a) + Fraction(K.b)) / 2)
    quarter = QC((Fraction(K.b) - Fraction(K.a)) / 4)
    lhs = qc_horner(exact(p), mid + quarter * (wq + winv))
    wn, wninv = QC(1), QC(1)
    for _ in range(n):
        wn, wninv = wn * wq, wninv * winv
    return float((lhs - (wn + wninv)).abs2()) ** 0.5


class TestIntegerKernel:
    """eval_exact and target_identity_residual round the exact value once,
    so they must agree bit for bit with the QC reference, and raise where
    it raises."""

    @staticmethod
    def _want(p, z):
        """The QC reference outcome of p(z), where a value beyond double
        range is refused as DomainError."""
        want = _outcome(lambda: qc_horner(exact(p),
                                          QC.of(complex(z))).to_complex())
        return DomainError if want is OverflowError else want

    @pytest.mark.parametrize("name", list(KERNEL_CONTINUA))
    def test_eval_exact_matches_reference(self, name):
        K = _kernel_continuum(name)
        polys = fb.faber_polys(K, KERNEL_N)
        for z in KERNEL_POINTS + _on_k(K):
            for p in (polys[n] for n in KERNEL_NS):
                want = self._want(p, z)
                assert _outcome(lambda: p.eval_exact(z)) == want, (p.n, z)

    @given(st.sampled_from(list(KERNEL_CONTINUA)),
           st.integers(0, KERNEL_N),
           st.complex_numbers(allow_nan=False, allow_infinity=False))
    @settings(max_examples=100, deadline=None)
    def test_eval_exact_property(self, name, n, z):
        p = fb.faber_poly(_kernel_continuum(name), n)
        assert _outcome(lambda: p.eval_exact(z)) == self._want(p, z)

    def test_overflow_raises(self):
        """A value beyond double range raised a bare OverflowError from the
        int/int rounding; it is refused, chained from that error."""
        p = fb.faber_poly(_readme_map(), 3)
        with pytest.raises(DomainError, match="double range") as info:
            p.eval_exact(1e300)
        assert isinstance(info.value.__cause__, OverflowError)

    @pytest.mark.parametrize("name", list(KERNEL_CONTINUA))
    @pytest.mark.parametrize("z", [complex(math.inf, 0.0),
                                   complex(0.5, math.nan),
                                   complex(0.0, -math.inf)],
                             ids=["inf", "nan", "-inf-imag"])
    def test_non_finite_point_is_domain_error(self, name, z):
        p = fb.faber_poly(_kernel_continuum(name), 3)
        with pytest.raises(DomainError, match="finite"):
            p.eval_exact(z)

    RESIDUAL_POINTS = [2.0, 1.1 * cmath.exp(1j * math.pi / 7), -1.5, 1e10,
                       1e-300 + 1j, 1.0 + 5e-324j, 3.0 - 4.0j, 1e150]

    @pytest.mark.parametrize("name", ["segment", "segment-dyadic",
                                      "segment-full-mantissa"])
    def test_residual_matches_reference(self, name):
        K = _kernel_continuum(name)
        for n in (1, 5, 16):
            p = fb.faber_poly(K, n)
            for w in self.RESIDUAL_POINTS:
                want = _outcome(lambda: _residual_reference(K, p, n, w))
                got = _outcome(lambda: fb.target_identity_residual(K, n, w))
                assert got == want, (n, w)

    @pytest.mark.parametrize("other", ["segment-dyadic",
                                       "segment-full-mantissa"])
    def test_residual_of_a_foreign_polynomial(self, other, monkeypatch):
        """With F_n of another segment in place of K's the residual is
        not zero, and may overflow; it still matches the reference."""
        import faberbohr.faber as faber_mod

        K, L = fb.segment(-1.0, 1.0), _kernel_continuum(other)
        monkeypatch.setattr(faber_mod, "faber_poly",
                            lambda _K, n: fb.faber_polys(L, n)[n])
        nonzero = 0
        for n in (1, 3, 17):
            p = fb.faber_poly(L, n)
            for w in self.RESIDUAL_POINTS:
                want = _outcome(lambda: _residual_reference(K, p, n, w))
                got = _outcome(lambda: fb.target_identity_residual(K, n, w))
                assert got == want, (n, w)
                nonzero += want not in (_bits(0j), OverflowError)
        assert nonzero > 0
        with pytest.raises(OverflowError):
            fb.target_identity_residual(K, 3, 1e150)

    @pytest.mark.parametrize("w", [complex(math.inf, 0.0),
                                   complex(2.0, math.nan)])
    def test_residual_non_finite_is_domain_error(self, seg, w):
        with pytest.raises(DomainError, match="finite"):
            fb.target_identity_residual(seg, 3, w)


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

    @pytest.mark.parametrize("dps", [None, 20])
    @pytest.mark.parametrize("z", [complex("nan"), complex("inf"),
                                   complex(0.3, -math.inf),
                                   complex(0.3, math.nan)],
                             ids=["nan", "inf", "imag-inf", "imag-nan"])
    def test_non_finite_point_is_refused(self, seg, z, dps):
        """A NaN point gave 0j on the mp route (and an infinite one 0) and
        NaN or a warning on the float route."""
        with pytest.raises(DomainError, match="finite"):
            fb.contour_values(seg, [1, 2], [0.3, z], 2.0, m=64, dps=dps)
        with pytest.raises(DomainError, match="finite"):
            fb.faber_contour(seg, 1, z, 2.0, m=64, dps=dps)
        with pytest.raises(DomainError, match="finite"):
            fb.faber_remainder(seg, 1, z, 2.0, m=64, dps=dps)

    @pytest.mark.parametrize("call", [
        lambda K: fb.contour_values(K, [3, 1100], [0.3], 2.0, m=64),
        lambda K: fb.faber_contour(K, 1100, 0.3, 2.0, m=2048),
        lambda K: fb.contour_values(K, [1023], [0.3], 2.0, m=64),
    ], ids=["values", "contour", "sum-overflows"])
    def test_float_overflow_names_the_mp_route(self, seg, call):
        """2^1100 leaves double range: the float route returned nan+nanj
        after two RuntimeWarnings.  At n = 1023 r^n still fits, but the
        node sum does not."""
        with pytest.raises(DomainError, match="dps="):
            call(seg)

    def test_remainder_overflow_names_the_mp_route(self, seg, custom_spec):
        """faber_remainder runs the float route only on custom maps, where
        3^1100 leaves double range (at r = 2 Newton's method stalls on
        this map, which is not univalent).  On a segment the remainder is
        -(1/phi(3))^1100, about -10^-842, which rounds to zero."""
        with pytest.raises(DomainError, match="dps="):
            fb.faber_remainder(custom_spec, 1100, 3.0, 3.0, m=2048)
        assert fb.faber_remainder(seg, 1100, 3.0, 2.0, m=2048) == 0

    @pytest.mark.parametrize("dps", [None, 40])
    def test_remainder_is_exact_below_the_alias_gate(self, seg, udisc, dps):
        """F_n = phi^n + phi^-n on [-1, 1], so phi^n - F_n at z = 3 is
        -(3 + 2 sqrt 2)^-n; the trapezoid sum over 64 nodes gave 3.165e18
        at n = 63.  On a disc F_n = phi^n and the remainder is 0."""
        got = fb.faber_remainder(seg, 63, 3.0, 2.0, m=64, dps=dps)
        want = -(3.0 + 2.0 * math.sqrt(2.0)) ** -63
        assert abs(got - want) <= 1e-13 * abs(want)
        assert fb.faber_remainder(seg, 0, 3.0, 2.0, m=64, dps=dps) == 0
        for n in (0, 1, 63):
            assert fb.faber_remainder(udisc, n, 3.0, 2.0, m=64, dps=dps) == 0

    @pytest.mark.parametrize("dps", [None, 40])
    @pytest.mark.parametrize("call, z", [(fb.faber_contour, 0.3),
                                         (fb.faber_remainder, 3.0)],
                             ids=["contour", "remainder"])
    def test_degree_from_m_on_is_refused(self, seg, call, z, dps):
        """F_100(0.3) on [-1, 1] is 1.1688, but 64 nodes gave -9.83e17:
        from n = m on, the trapezoid sum adds r^m F_(n-m)."""
        for n in (100, 64):
            with pytest.raises(DomainError, match=f"n={n}.*m=64"):
                call(seg, n, z, 2.0, m=64, dps=dps)
        call(seg, 63, z, 2.0, m=64, dps=dps)   # n = m - 1 is accepted

    @pytest.mark.parametrize("dps", [None, 20])
    @pytest.mark.parametrize("K", ["seg", "udisc"])
    def test_point_on_a_node_is_refused(self, K, dps, request):
        """psi(K, 2) is the node w_0 = 2 of the r = 2 contour, where the
        Cauchy weight divides by zero (a raw ZeroDivisionError on the mp
        route, a division warning and inf on the float route)."""
        K = request.getfixturevalue(K)
        z = complex(fb.psi(K, 2.0))
        with pytest.raises(DomainError, match="node"):
            fb.contour_values(K, [1], [0.3, z], 2.0, m=4, dps=dps)

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
        c, ts, dpsi = mp_nodes(K, ws)
        dw = [d * w for d, w in zip(dpsi, ws)]
        for jz, z in enumerate(zs):
            zq = mpc(z.real, z.imag) - c
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
        built = fbf._map_nodes
        monkeypatch.setattr(fbf, "_map_nodes",
                            lambda *args: calls.append(args) or built(*args))
        again = fb.contour_values(K, self.NS, zs, r, m=256, dps=30)
        assert np.array_equal(again, got)
        assert calls == []

    @pytest.mark.parametrize("make", [
        lambda: fb.segment(0.1, 0.7),
        lambda: fb.disc(0.1 + 0.2j, 0.3),
    ], ids=["segment", "disc"])
    def test_nodes_read_the_continuum_exactly(self, make):
        """At dps=60 the route gives F_n(z), n <= 20, to 1e-30 relative
        at seven points psi(1.05 e^(it)).  The nodes were built from the
        decimal reprs of the fields, that is of another continuum: the
        values were off by 1.3e-14 on this segment, 8.3e-16 on this disc."""
        K = make()
        zs = fb.psi(K, 1.05 * np.exp(1j * (0.4 + 0.9 * np.arange(7))))
        ns = list(range(21))
        got = fb.contour_values(K, ns, zs, 1.5, m=512, dps=60)
        polys = fb.faber_polys(K, 20)
        ref = np.array([[polys[n].eval_exact(z) for z in zs] for n in ns])
        assert np.all(np.abs(got - ref) <= 1e-30 * np.abs(ref))

    # dyadic points x inside the r = 2 level of [-1, 1] and of the unit
    # disc, so that centre + size * x is exact for the continua below
    UNIT_POINTS = np.array([0.5, -0.25 + 0.375j, 0.75 - 0.25j, 0.125 + 0.5j])

    AFFINE = [
        (lambda: fb.segment(-2.0 ** -100, 2.0 ** -100), fb.segment, 30),
        (lambda: fb.segment(-2.0 ** -200, 2.0 ** -200), fb.segment, 30),
        (lambda: fb.segment(2.0 ** 40 - 1, 2.0 ** 40 + 1), fb.segment, 30),
        (lambda: fb.segment(-2.0 ** 300, 2.0 ** 300), fb.segment, 30),
        (lambda: fb.disc(complex(3, -1) * 2.0 ** -102, 2.0 ** -100), fb.disc,
         30),
        # 2^48 sizes away from 0, with fewer digits than that to spare
        (lambda: fb.segment(2.0 ** 50 - 4, 2.0 ** 50 + 4), fb.segment, 20),
        (lambda: fb.disc(complex(2.0 ** 50, -2.0 ** 49), 4.0), fb.disc, 20),
    ]
    AFFINE_IDS = ["segment-2^-100", "segment-2^-200", "segment-far",
                  "segment-2^300", "disc-2^-100", "segment-2^48-sizes-off",
                  "disc-2^48-sizes-off"]

    @pytest.mark.parametrize("make, unit, dps", AFFINE, ids=AFFINE_IDS)
    def test_invariant_under_affine_maps(self, make, unit, dps):
        """F_n does not change under affine maps of K, nor may its value."""
        K, ref_K = make(), unit()
        if K.kind == "segment":
            centre, size = (K.a + K.b) / 2, (K.b - K.a) / 2
        else:
            centre, size = K.center, K.radius
        got = fb.contour_values(K, self.NS, centre + size * self.UNIT_POINTS,
                                2.0, m=256, dps=dps)
        ref = fb.contour_values(ref_K, self.NS, self.UNIT_POINTS, 2.0, m=256,
                                dps=dps)
        assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref))

    @pytest.mark.parametrize("make", [
        lambda: fb.segment(-1.0, 1.0),
        lambda: fb.segment(-0.5, 2.0),
        lambda: fb.disc(0.3 + 0.1j, 0.7),
        lambda: fb.disc(-2.0, 1e-3),
        lambda: fb.scaled_closure(fb.segment(-0.5, 2.0), 1.3),
        # a finite map of depth 2, which no public constructor builds yet
        lambda: EllipseSpec(fb.LaurentTail.build(1.5, 0.25j,
                                                 [0.5, 0.125 - 0.25j])),
    ] + [make for make, _, _ in AFFINE],
        ids=["segment", "segment-shifted", "disc", "disc-small", "ellipse",
             "depth-2-map"] + AFFINE_IDS)
    def test_nodes_within_their_bound(self, make):
        """Each part of every fixed-point node and weight lies within
        3 2^(P - prec - 2) units at 2^(P - e) of the reference evaluated
        at prec + 64 bits, the bound of _fixed_nodes, for m = 1, 2, 16,
        256 and 1024 nodes, dps 15, 30 and 80, and dyadic and other
        levels."""
        from mpmath import mp
        from mpmath.libmp import dps_to_prec

        K = make()
        cases = [(m, dps) for m in (1, 2, 16, 256, 1024) for dps in (15, 30, 80)]
        for i, (m, dps) in enumerate(cases):
            r = (1.5, 2.0, 3.0, 1.3)[i % 4]
            prec = dps_to_prec(dps)
            P, _, e, (tr, ti), (dr, di) = fbf._fixed_nodes(K, r, m, dps)
            with mp.workprec(prec + 64):
                ts, dws = reference_nodes(K, r, m)
                worst = max(
                    max(abs(x - mp.ldexp(v.real, P - e)),
                        abs(y - mp.ldexp(v.imag, P - e)))
                    for xs, ys, vs in ((tr, ti, ts), (dr, di, dws))
                    for x, y, v in zip(xs, ys, vs))
            assert worst <= 3 * 2 ** (P - prec - 2), (m, dps, r, worst)

    def test_high_degree(self, seg):
        """F_60 = 2 T_60 at r = 3, where r^60 ~ 4e28 needs the digits."""
        xs = [0.3, -0.8125, 0.5 + 0.5j, -0.1 - 0.25j]
        got = fb.contour_values(seg, [60], xs, 3.0, m=256, dps=50)[0]
        cheb = [QC(2 * c) for c in _cheb_exact(60)]
        for x, g in zip(xs, got):
            want = qc_horner(cheb, QC.of(complex(x))).to_complex()
            assert abs(g - want) <= 1e-12 * max(1.0, abs(want))

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

    @staticmethod
    @st.composite
    def _cases(draw):
        """A segment or disc, m, dps, r, degrees and points on K or inside
        the level r."""
        if draw(st.booleans()):
            a = draw(st.floats(-10, 10))
            K = fb.segment(a, a + draw(st.floats(1e-3, 10)))
        else:
            K = fb.disc(complex(draw(st.floats(-5, 5)), draw(st.floats(-5, 5))),
                        draw(st.floats(1e-3, 5)))
        m = draw(st.one_of(st.sampled_from([1, 2, 16, 64, 256, 1024]),
                           st.integers(1, 1024)))
        dps, r = draw(st.integers(15, 80)), draw(st.floats(1.2, 4.0))
        ns = draw(st.lists(st.integers(-8, 3 * m), min_size=1, max_size=8))
        ns += draw(st.lists(st.sampled_from(ns), max_size=3))
        unit = st.floats(0, 1)
        zs = []
        for _ in range(draw(st.integers(1, 4))):
            t, th = draw(unit), 2 * math.pi * draw(unit)
            if draw(st.booleans()):   # on K
                zs.append(K.a + t * (K.b - K.a) if K.kind == "segment"
                          else K.center + t * K.radius * cmath.exp(1j * th))
            else:                     # strictly inside the level r
                rho = 1 + (r - 1) * (0.05 + 0.9 * t)
                zs.append(complex(fb.psi(K, rho * cmath.exp(1j * th))))
        return K, ns, zs, r, m, dps

    @staticmethod
    def _rows(K, ns, zs, r, m, dps):
        """The rows of contour_values, one per degree; where the call
        raises for leaving double range, each degree is run alone and a
        degree that raises so has None for its row."""
        try:
            return list(fb.contour_values(K, ns, zs, r, m=m, dps=dps))
        except DomainError as exc:
            assert "double range" in str(exc)
        rows = []
        for n in ns:
            try:
                rows += list(fb.contour_values(K, [n], zs, r, m=m, dps=dps))
            except DomainError as exc:
                assert "double range" in str(exc)
                rows.append(None)
        assert any(row is None for row in rows)
        return rows

    @settings(max_examples=20, deadline=None)
    @given(case=_cases())
    def test_gemm_equals_dot_products(self, case):
        """The limb GEMM rounds the same integers as the Python-int dot
        products it replaced, so every double is the same, and a degree
        is refused just where the reference leaves double range."""
        K, ns, zs, r, m, dps = case
        want = contour_mp(K, ns, zs, r, m, dps)
        for row, ref in zip(self._rows(K, ns, zs, r, m, dps), want):
            if row is None:
                assert not np.isfinite(ref).all()
            else:
                assert np.array_equal(row, ref)

    @staticmethod
    def _value_bounds(K, ns, zs, r, m, dps_list, values):
        """The error bound of contour_values for each value, summed over
        the precisions in dps_list: 3 u kappa r^n + 2^-53 |V|,
        u = 2^-prec, kappa = 1 + (A/g)(1 + A/g), A = 2^e and g the least
        |t_j - z| over the nodes; None where 8 u A exceeds g, where no
        bound is claimed.  Evaluated in mpmath."""
        from mpmath import mp, mpc
        from mpmath.libmp import dps_to_prec, from_rational

        precs = [(dps_to_prec(dps), fbf._fixed_nodes(K, r, m, dps)[2])
                 for dps in dps_list]
        out = np.empty((len(ns), len(zs)), dtype=object)
        with mp.workprec(min(precs)[0] + 64):
            ts, _ = reference_nodes(K, r, m)
            D, re, im = K.psi_map.ints
            b0 = mp.make_mpc((from_rational(re[1], D, mp.prec, "n"),
                              from_rational(im[1], D, mp.prec, "n")))
            rr = mp.mpf(float(r))
            for jz, z in enumerate(zs):
                zc = mpc(z) - b0
                g = min(abs(t - zc) for t in ts)
                for i, n in enumerate(ns):
                    v = abs(mpc(values[i, jz]))
                    total = 0
                    for prec, e in precs:
                        u, A = mp.ldexp(1, -prec), mp.ldexp(1, e)
                        if 8 * u * A > g:
                            total = None
                            break
                        kappa = 1 + A / g * (1 + A / g)
                        total += 3 * u * kappa * rr ** n + mp.ldexp(1, -53) * v
                    out[i, jz] = total
        return out

    @settings(max_examples=20, deadline=None)
    @given(case=_cases())
    def test_within_the_stated_bound(self, case):
        """contour_values at dps and at dps + 40 differ by no more than
        the sum of their stated bounds wherever both are doubles; where
        only one refuses a degree for leaving double range, the other
        reaches double max within that bound at some point."""
        from mpmath import mp, mpc

        K, ns, zs, r, m, dps = case
        got = self._rows(K, ns, zs, r, m, dps)
        fine = self._rows(K, ns, zs, r, m, dps + 40)
        values = np.array([[0j] * len(zs) if f is None and g is None
                           else g if f is None else f
                           for g, f in zip(got, fine)])
        bound = self._value_bounds(K, ns, zs, r, m, (dps, dps + 40), values)
        with mp.workprec(200):
            top = mp.mpf(sys.float_info.max)
            for i, (g, f) in enumerate(zip(got, fine)):
                if g is not None and f is not None:
                    for jz, b in enumerate(bound[i]):
                        if b is not None:
                            diff = abs(mpc(g[jz]) - mpc(f[jz]))
                            assert diff <= b, (ns[i], zs[jz])
                elif g is not None or f is not None:
                    assert any(b is None or abs(mpc(v)) + b >= top
                               for v, b in zip(values[i], bound[i])), ns[i]

    def test_blocked_over_degrees(self, seg, monkeypatch):
        """With one k per GEMM block the sums are the same."""
        ns, zs = list(range(-3, 70)), [0.3, 0.1 + 0.2j, -0.9]
        want = contour_mp(seg, ns, zs, 2.0, 64, 40)
        monkeypatch.setattr(fbf, "_BLOCK", 1)
        assert np.array_equal(fb.contour_values(seg, ns, zs, 2.0, m=64, dps=40),
                              want)

    def test_unit_roots_once_per_m_and_precision(self, monkeypatch):
        """Three levels on two continua at one (m, dps) compute the roots
        of unity once, and a second dps once more; each continuum keeps
        only its fixed-point nodes."""
        calls, built = [], fbf._cos_sin
        monkeypatch.setattr(fbf, "_cos_sin",
                            lambda *args: calls.append(args) or built(*args))
        fbf._unit_roots.cache_clear()
        Ks = (fb.segment(-1.0, 1.0), fb.disc(0.2j, 0.5))
        for dps in (30, 30, 40):
            for K in Ks:
                for r in (1.5, 2.0, 3.0):
                    fb.contour_values(K, [0, 5], [0.1j], r, m=32, dps=dps)
        assert len(calls) == 2
        for K in Ks:
            assert sorted(K._memo) == sorted(
                ("fixed nodes", r, 32, dps)
                for r in (1.5, 2.0, 3.0) for dps in (30, 40))

    def test_unit_roots_memo_is_bounded(self, seg):
        fbf._unit_roots.cache_clear()
        bound = fbf._unit_roots.cache_info().maxsize
        for m in range(1, bound + 4):
            fb.contour_values(seg, [0], [0.1j], 2.0, m=m, dps=15)
            assert fbf._unit_roots.cache_info().currsize <= bound
        assert fbf._unit_roots.cache_info().currsize == bound

    @pytest.mark.parametrize("ambient", ["workprec-20", "workdps-120"])
    def test_ambient_precision_is_neither_read_nor_changed(self, ambient):
        """With the roots of unity computed afresh inside a caller's
        precision context, the values are those at mpmath's default
        precision, and the context's precision is left as it was."""
        from mpmath import mp

        K = fb.disc(0.3 + 0.1j, 0.7)
        zs = self._points(K)
        fbf._unit_roots.cache_clear()
        want = fb.contour_values(K, self.NS, zs, 2.0, m=256, dps=30)
        fbf._unit_roots.cache_clear()
        prec = mp.prec
        with (mp.workprec(20) if ambient == "workprec-20"
              else mp.workdps(120)):
            inner = mp.prec
            got = fb.contour_values(K, self.NS, zs, 2.0, m=256, dps=30)
            assert mp.prec == inner
        assert mp.prec == prec
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("n, dps", [(600, 30), (557, 15)])
    def test_value_beyond_double_range_is_refused(self, n, dps):
        """r^n = 3.875^600 is beyond double range; at dps = 15 the value
        for n = 557 rounds past it too.  Both came back as inf."""
        with pytest.raises(DomainError, match="double range"):
            fb.contour_values(fb.disc(0, 1), [n], [1.14375], 3.875, m=256,
                              dps=dps)

    @pytest.mark.parametrize("n, dps, refused",
                             [(556, 15, True), (540, 15, False),
                              (556, 55, False)])
    def test_value_swamped_by_its_bound_is_refused(self, n, dps, refused):
        """At dps = 15, 3 u kappa r^n passes double max by n = 556, where
        the route returned 3.4e307 against a true value of 5.8e303; such
        a degree is refused, and n = 540, or dps = 55, still gives one."""
        call = functools.partial(fb.contour_values, fb.disc(0, 1), [n],
                                 [1.14375], 3.875, m=256, dps=dps)
        if refused:
            with pytest.raises(DomainError, match="double range.*raise dps"):
                call()
        else:
            assert np.isfinite(call()).all()

    def test_custom_map_has_no_mp_route(self, custom_spec):
        with pytest.raises(FaberBohrError,
                           match="implemented for segment, disc and ellipse "
                                 "continua only"):
            fb.contour_values(custom_spec, [1], [0.1 + 0.1j], 2.0, m=64, dps=20)
        assert custom_spec._memo == {}


def _check_unit_roots(m: int, prec: int) -> None:
    """Every part of _unit_roots(m, prec) lies within 2 units at 2**P,
    P = prec + bits(m) + 8, of mp.unitroots(m) taken at P + 64 bits."""
    from mpmath import mp

    P = prec + m.bit_length() + 8
    (wr, wi), roots = fbf._unit_roots.__wrapped__(m, prec)
    assert roots.shape[1:] == (m, 2) and not roots.flags.writeable
    with mp.workprec(P + 64):
        for j, omega in enumerate(mp.unitroots(m)):
            for got, part in ((wr[j], omega.real), (wi[j], omega.imag)):
                assert abs(got - mp.ldexp(part, P)) <= 2, (m, prec, j)


class TestUnitRoots:
    """faber._unit_roots, built in Python ints, equals mpmath's roots of
    unity to within 2 units at 2**P in every part (_check_unit_roots);
    _unit_roots states 1.25."""

    @pytest.mark.parametrize("prec", [53, 103, 136, 169, 340])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 7, 12, 64, 256, 1000, 1024])
    def test_equals_mpmath(self, m, prec):
        _check_unit_roots(m, prec)

    @settings(max_examples=8, deadline=None)
    @given(m=st.integers(1, 4096), prec=st.integers(7, 400))
    def test_equals_mpmath_where_it_rounds_correctly(self, m, prec):
        """Any m and prec: mp.unitroots at P + 64 bits is far within a
        unit at 2**P of the exact roots, whatever its own roundings."""
        _check_unit_roots(m, prec)

    @pytest.mark.parametrize("m, prec, j", [(1023, 163, 123), (2042, 181, 160),
                                            (1950, 83, 1217)])
    def test_where_mpmath_misrounds(self, m, prec, j):
        """At prec bits, mp.unitroots(m) misrounds a part of root j by a
        unit; every root here, j's too, still meets the 2-unit check."""
        _check_unit_roots(m, prec)


def test_src_has_no_mpmath():
    """The high-precision route is Python ints throughout: no module of
    the package imports mpmath or reads an mp attribute, and no mpc,
    precision context or libmp rounding is left, nor the old converter
    _fixed."""
    uses, bad = set(), []
    for path in sorted(Path(fb.__file__).parent.glob("*.py")):
        text = path.read_text()
        bad += re.findall(r"\b(?:mpc|workdps|from_rational|to_float|mpf_mul"
                          r"|_fixed)\b", text)
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                mods = ([node.module or ""] if isinstance(node, ast.ImportFrom)
                        else [a.name for a in node.names])
                uses |= {(path.name, mod) for mod in mods
                         if mod.startswith("mpmath")}
            elif (isinstance(node, ast.Attribute)
                  and getattr(node.value, "id", None) == "mp"):
                uses.add((path.name, "mp." + node.attr))
    assert bad == []
    assert uses == set()


def test_src_has_one_circle_grid():
    """Every equispaced angle grid of the package is continua._angles:
    np.pi * np.arange( appears in no other line of src, so a point and
    the theta printed beside it come from one grid."""
    where = []
    for path in sorted(Path(fb.__file__).parent.glob("*.py")):
        text = path.read_text()
        spans = [(f.lineno, f.end_lineno) for f in ast.walk(ast.parse(text))
                 if isinstance(f, ast.FunctionDef) and f.name == "_angles"]
        for i, line in enumerate(text.splitlines(), 1):
            if "np.pi * np.arange(" in line:
                where.append((path.name, any(a <= i <= b for a, b in spans)))
    assert where == [("continua.py", True)]


class TestLimbProduct:
    """faber._limb_product against Python-int dot products."""

    @staticmethod
    def _product(X, Y):
        """X @ Y for lists of Python-int rows, by limbs."""
        n, C = len(Y), len(Y[0])
        w = fbf._limb_width(n)
        A = fbf._limbs([x for row in X for x in row], w)
        B = fbf._limbs([y for row in Y for y in row], w)
        flat = fbf._limb_product(
            [np.ascontiguousarray(A.reshape(len(X), n, -1).transpose(2, 0, 1))],
            np.ascontiguousarray(B.reshape(n, C, -1).transpose(0, 2, 1)), w)
        return [flat[i * C:(i + 1) * C] for i in range(len(X))]

    @pytest.mark.parametrize("bits", [1, 15, 16, 17, 53, 64, 200])
    @pytest.mark.parametrize("n", [1, 7, 300])
    def test_random_full_width(self, bits, n):
        rnd = random.Random(bits * 1000 + n)

        def draw():
            return rnd.choice((-1, 1)) * rnd.getrandbits(bits)

        X = [[draw() for _ in range(n)] for _ in range(3)]
        Y = [[draw() for _ in range(4)] for _ in range(n)]
        X[0] = [(1 << bits) - 1] * n   # all limbs full, one sign
        want = [[sum(map(mul, row, col)) for col in zip(*Y)] for row in X]
        assert self._product(X, Y) == want

    def test_dps_300_without_int64_overflow(self):
        """Ints as wide as the fixed-point values of the dps = 300 route at
        m = 1024, about 1,020 bits or 64 limbs, some with every limb full."""
        from mpmath import mp

        with mp.workdps(300):
            bits = mp.prec + (2048).bit_length() + fbf._GUARD_BITS + 2
        rnd = random.Random(300)
        X = [[rnd.choice((-1, 1)) * rnd.getrandbits(bits) for _ in range(2048)]
             for _ in range(2)] + [[(1 << bits) - 1] * 2048]
        Y = [[rnd.choice((-1, 1)) * rnd.getrandbits(bits), (1 << bits) - 1]
             for _ in range(2048)]
        want = [[sum(map(mul, row, col)) for col in zip(*Y)] for row in X]
        assert self._product(X, Y) == want

    def test_width_threshold(self):
        """At n = 2^21 terms 16-bit limbs are still exact: 2^21 products
        of full limbs of one sign sum to 2^53 - 2^38 + 2^21.  One more
        term switches to 8-bit limbs."""
        n = 1 << 21
        assert (fbf._limb_width(n), fbf._limb_width(n + 1)) == (16, 8)
        assert n * ((1 << 16) - 1) ** 2 < 1 << 53 <= (n + 1) * (1 << 16) ** 2
        v = (1 << 32) - 1   # two full 16-bit limbs
        noise = np.random.default_rng(21).integers(-v, v, n, endpoint=True)
        # the limbs are cut by numpy here, apart from _limbs
        mag = np.abs(noise)
        A = np.empty((2, 2, n))
        A[:, 0], A[0, 1] = 0xFFFF, (mag & 0xFFFF) * np.sign(noise)
        A[1, 1] = (mag >> 16) * np.sign(noise)
        B = np.full((n, 2, 1), float(0xFFFF))
        # against the column of n entries v: dot products n v^2, v sum(noise)
        assert fbf._limb_product([A], B, 16) == [n * v * v,
                                               v * sum(noise.tolist())]


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
        with pytest.raises(DomainError, match="w != 0"):
            fb.target_identity_residual(seg, 3, 0j)
        with pytest.raises(WrongKind):
            fb.target_identity_residual(udisc, 3, 2.0)

    def test_norm_root_disc_level(self, udisc):
        pts = [fb.psi(udisc, 2.0 * np.exp(1j * t)) for t in (0.1, 2.0, 4.0)]
        for n in (1, 5, 12):
            assert fb.norm_root(udisc, pts, n) == pytest.approx(2.0, rel=1e-12)

    def test_norm_root_rejects_interior(self, seg):
        with pytest.raises(PointInsideK):
            fb.norm_root(seg, [0.2], 3)

    def test_norm_root_beyond_double_range_is_refused(self, seg):
        """F_5(1e300) is past the largest double; the exact value raised
        a bare OverflowError."""
        with pytest.raises(DomainError, match="double range") as info:
            fb.norm_root(seg, [1e300], 5)
        assert isinstance(info.value.__cause__, OverflowError)

    def test_json_shapes(self, capsys):
        # F_2 on [-1, 1] as the faber command writes it
        assert cli_main(["faber", "--n-max", "2", "--output", "json"]) == 0
        d = json.loads(capsys.readouterr().out)["polynomials"][2]
        assert d["n"] == 2
        assert d["coeffs"] == [[-2.0, 0.0], [0.0, 0.0], [4.0, 0.0]]
