"""Exact arithmetic: QC, and the Laurent-series route the tests compare to."""

import importlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import faberbohr as fb
from faberbohr.errors import DomainError
from faberbohr.series import QC
from series_reference import (
    GradedLaurent,
    exterior_series,
    laurent_mul,
    laurent_pow,
    qc_horner,
    split_parts,
    split_parts_exact,
)


def _seg_series(depth: int) -> GradedLaurent:
    return exterior_series(fb.segment(-1.0, 1.0), depth)


class TestQC:
    def test_field_ops(self):
        a = QC.of(Fraction(3, 4))
        b = QC(Fraction(1, 2), Fraction(-2, 3))
        assert (a + b) - b == a
        assert (a * b) / b == a
        assert b * b.conjugate() == QC.of(b.abs2())

    def test_of_complex_is_exact(self):
        z = 0.1 + 0.7j
        q = QC.of(z)
        assert q.re == Fraction(0.1)
        assert q.im == Fraction(0.7)
        assert q.to_complex() == z

    def test_horner_matches_numpy(self):
        coeffs = [1, -2, 0, 5]
        z = 0.5 - 0.25j
        got = qc_horner([QC.of(c) for c in coeffs], z)
        want = complex(np.polynomial.polynomial.polyval(z, coeffs))
        assert got == want

    @pytest.mark.parametrize("bad", [
        float("inf"), -float("inf"), float("nan"),
        complex(float("inf"), 0.0), complex(0.5, float("nan")),
    ])
    def test_of_non_finite_is_domain_error(self, bad):
        with pytest.raises(DomainError, match="finite"):
            QC.of(bad)

    @pytest.mark.parametrize("args", [
        (float("inf"),),
        (2.0, float("nan")),
        (2.0, 0.1, (0.5, complex(0.0, float("-inf")))),
    ], ids=["lead", "c0", "tail"])
    def test_map_from_non_finite_float(self, args):
        with pytest.raises(DomainError, match="finite"):
            fb.custom(fb.LaurentTail.build(*args))


class TestSegmentSeries:
    """Head of the exterior map of [-1, 1]: 2z - 1/(2z) - 1/(8z^3) - ..."""

    def test_head_coefficients(self):
        g = _seg_series(8)
        assert g.exact_coeff(1) == QC.of(2)
        assert g.exact_coeff(0) == QC.of(0)
        assert g.exact_coeff(-1) == QC.of(Fraction(-1, 2))
        assert g.exact_coeff(-2) == QC.of(0)
        assert g.exact_coeff(-3) == QC.of(Fraction(-1, 8))
        assert g.exact_coeff(-5) == QC.of(Fraction(-1, 16))

    def test_square_head(self):
        s2 = laurent_pow(_seg_series(12), 2, 8)
        assert s2.exact_coeff(2) == QC.of(4)
        assert s2.exact_coeff(1) == QC.of(0)
        assert s2.exact_coeff(0) == QC.of(-2)
        assert s2.exact_coeff(-2) == QC.of(Fraction(-1, 4))

    def test_split_parts(self):
        s2 = laurent_pow(_seg_series(12), 2, 8)
        poly, principal = split_parts(s2)
        assert np.array_equal(poly, np.array([-2, 0, 4], dtype=complex))
        assert len(principal) == 8
        pe, _ = split_parts_exact(s2)
        assert pe == (QC.of(-2), QC.of(0), QC.of(4))

    def test_leading_coeff_is_gamma_pow(self):
        g = _seg_series(40)
        for n in (1, 3, 7, 12):
            assert laurent_pow(g, n, 4).exact_coeff(n) == QC.of(2 ** n)

    def test_truncation_stability(self):
        """Window coefficients must not depend on the guard depth."""
        shallow = laurent_pow(_seg_series(40), 5, 6)
        deep = laurent_pow(_seg_series(96), 5, 6)
        for k in range(-6, 6):
            assert shallow.exact_coeff(k) == deep.exact_coeff(k)


def _gl(ints) -> GradedLaurent:
    data = tuple(QC.of(Fraction(v, 2)) for v in ints)
    return GradedLaurent(1, len(ints) - 2, data)


small_laurents = st.lists(st.integers(-4, 4), min_size=3, max_size=6).map(_gl)


class TestAlgebra:
    @given(small_laurents, small_laurents)
    @settings(max_examples=60, deadline=None)
    def test_mul_commutes(self, a, b):
        assert laurent_mul(a, b, 8) == laurent_mul(b, a, 8)

    @given(small_laurents, small_laurents, small_laurents)
    @settings(max_examples=40, deadline=None)
    def test_mul_associates_at_full_depth(self, a, b, c):
        # depth 20 exceeds the sum of all tail lengths, so no term is
        # ever dropped and associativity must be exact
        left = laurent_mul(laurent_mul(a, b, 20), c, 20)
        right = laurent_mul(a, laurent_mul(b, c, 20), 20)
        assert left == right

    def test_pow_zero_is_one(self):
        s = _gl([2, 0, 1])
        one = laurent_pow(s, 0, 4)
        assert one.exact_coeff(0) == QC.of(1)
        assert all(one.exact_coeff(k) == QC.of(0)
                   for k in range(-4, 3) if k != 0)

    def test_guard_rejects_bad_args(self):
        s = _gl([1, 1, 1])
        with pytest.raises(DomainError):
            laurent_pow(s, -1, 4)
        with pytest.raises(DomainError):
            laurent_mul(s, s, -2)


def test_graded_shape_validation():
    with pytest.raises(DomainError):
        GradedLaurent(1, 2, (QC.of(1),))


@pytest.mark.parametrize("module", [
    "faberbohr", "faberbohr.series", "faberbohr.continua", "faberbohr.faber",
    "faberbohr.bohr", "faberbohr.estimates"])
def test_exports_resolve(module):
    """Every name in a module's __all__ exists, so no removal leaves a
    stale export behind."""
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
