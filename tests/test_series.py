"""Exact arithmetic: map data, the QC reference and the Laurent-series
route the tests compare to."""

import ast
import dataclasses
import importlib
import inspect
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import faberbohr as fb
from faberbohr.errors import DomainError
from faberbohr.series import _gauss_horner
from series_reference import (
    QC,
    GradedLaurent,
    exterior_series,
    gauss_horner,
    gauss_ints,
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


_EXACT_NUMBERS = st.one_of(
    st.integers(-10 ** 30, 10 ** 30),
    st.floats(allow_nan=False, allow_infinity=False),
    st.fractions(max_denominator=10 ** 12),
    st.complex_numbers(allow_nan=False, allow_infinity=False))


def _reference_triple(values) -> tuple:
    """The reduced triple of QC values, with tuples for numerators."""
    D, re_, im = gauss_ints(values)
    return D, tuple(re_), tuple(im)


class TestMapTriple:
    """LaurentTail holds its map as one reduced Gaussian-int triple; it
    must be the triple of the map's QC coefficients."""

    @given(st.lists(_EXACT_NUMBERS, min_size=2, max_size=7), _EXACT_NUMBERS,
           st.floats(1.0, 1e6, exclude_min=True))
    @settings(max_examples=200, deadline=None)
    def test_build_and_scaled_match_qc_reference(self, values, factor, R):
        t = fb.LaurentTail.build(values[0], values[1], values[2:])
        qcs = [QC.of(v) for v in values]
        assert t.ints == _reference_triple(qcs)
        assert t.M == len(values) - 2
        for f in (factor, 1 / Fraction(R)):
            assert t.scaled(f).ints == _reference_triple(
                [q * QC.of(f) for q in qcs])

    @given(st.lists(_EXACT_NUMBERS, min_size=1, max_size=5),
           st.floats(1e-300, 1e300))
    @settings(max_examples=100, deadline=None)
    def test_float_views_match_qc_reference(self, tail, lead):
        """gamma and the complex coefficients of a custom map are
        float(Fraction) of the QC values, bit for bit."""
        K = fb.custom(fb.LaurentTail.build(lead, tail[0], tail[1:]))
        assert K.gamma == float(Fraction(lead))
        lead_c, c0, rest = K._complex
        want = [QC.of(v).to_complex() for v in [lead] + tail]
        assert [lead_c, c0] + rest.tolist() == want

    @pytest.mark.parametrize("lead", [0, -1.5, Fraction(-1, 3), 1j,
                                      2 + 1e-300j, -2 + 0j])
    def test_custom_refuses_lead(self, lead):
        with pytest.raises(DomainError, match="real positive leading"):
            fb.custom(fb.LaurentTail.build(lead, 0, (0.1,)))

    def test_numpy_integers_are_exact(self):
        """A NumPy integer is an exact integer: an int64 scalar, and a map
        whose tail is an int64 array, give the triple of Python ints."""
        assert (fb.LaurentTail.build(np.int64(2)).ints
                == fb.LaurentTail.build(2).ints)
        tail = np.array([5, 0, -7, 2 ** 62], dtype=np.int64)
        assert (fb.LaurentTail.build(np.int64(3), np.uint64(2 ** 64 - 1),
                                     tail).ints
                == fb.LaurentTail.build(3, 2 ** 64 - 1, tail.tolist()).ints)
        t = fb.LaurentTail.build(2, 0.5, (1j,))
        assert t.scaled(np.int64(-3)).ints == t.scaled(-3).ints

    def test_triple_is_reduced(self):
        t = fb.LaurentTail((12, [6, 0, 4], [0, 2, 0]))
        assert t.ints == (6, (3, 0, 2), (0, 1, 0))
        assert t == fb.LaurentTail.build(3, 1j, (2,)).scaled(Fraction(1, 6))

    @pytest.mark.parametrize("ints", [(0, [1, 0], [0, 0]),
                                      (1, [1], [0]), (1, [1, 0], [0])])
    def test_malformed_triple_is_refused(self, ints):
        with pytest.raises(DomainError, match="map data"):
            fb.LaurentTail(ints)


def test_one_exact_format_in_src():
    """No module of the package names QC, and only the input conversion
    of LaurentTail in series.py (the fractions import, _fraction,
    _triple and build) names Fraction: every exact quantity of the
    library is a Gaussian-int triple."""
    src = Path(fb.__file__).parent
    tree = ast.parse((src / "series.py").read_text())
    allowed = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.module == "fractions"
                or isinstance(node, ast.FunctionDef)
                and node.name in ("_fraction", "_triple", "build")):
            allowed.update(range(node.lineno, node.end_lineno + 1))
    bad = []
    for path in sorted(src.glob("*.py")):
        for i, line in enumerate(path.read_text().splitlines(), 1):
            if re.search(r"\bQC\b", line) or ("Fraction" in line and not (
                    path.name == "series.py" and i in allowed)):
                bad.append(f"{path.name}:{i}: {line.strip()}")
    assert bad == []


def test_finite_map_floats_stated_once_in_src():
    """gamma, phi, psi and psi' of a finite psi derive from psi_coeffs
    and rho on ContinuumSpec: segments and discs define none of them,
    and a disc no boundary path either, so no per-kind float form can
    come back."""
    from faberbohr.continua import DiscSpec, SegmentSpec

    floats = {"gamma", "_phi", "_psi", "_psi_prime"}
    assert floats & set(vars(SegmentSpec)) == set()
    assert (floats | {"_boundary_path"}) & set(vars(DiscSpec)) == set()


def test_faber_facts_stated_once_in_src():
    """The pullback, the level disc, sup_K |F_n| and |F_n| on K derive
    from ContinuumSpec.rho: no kind defines pullback, level_disc,
    abs_faber_on_k or faber_sup, and the last two names appear nowhere
    in the package."""
    per_kind = {"pullback", "level_disc", "abs_faber_on_k", "faber_sup"}
    bad = []
    for path in sorted(Path(fb.__file__).parent.glob("*.py")):
        text = path.read_text()
        for cls in ast.walk(ast.parse(text)):
            if isinstance(cls, ast.ClassDef) and cls.name != "ContinuumSpec":
                bad += [f"{path.name}:{node.lineno}: {cls.name}"
                        for node in ast.walk(cls)   # defs and assignments
                        if getattr(node, "name", getattr(node, "id", None))
                        in per_kind]
        bad += re.findall(r"\b(?:abs_faber_on_k|faber_sup)\b", text)
    assert bad == []


def test_one_sample_and_refine_routine_in_src():
    """Every sampled extremum goes through continua._row_sups: the golden
    search has its one call site there, and the old per-caller wrappers
    _sample_refine and _extract_members appear nowhere in the package."""
    calls, bad = [], []
    for path in sorted(Path(fb.__file__).parent.glob("*.py")):
        text = path.read_text()
        bad += re.findall(r"\b(?:_sample_refine|_extract_members)\b", text)
        for fn in ast.walk(ast.parse(text)):
            if isinstance(fn, ast.FunctionDef):
                calls += [(path.name, fn.name) for node in ast.walk(fn)
                          if isinstance(node, ast.Call)
                          and getattr(node.func, "id", None)
                          == "_golden_extremum"]
    assert bad == []
    assert calls == [("continua.py", "_row_sups")]


def test_no_numpy_import_in_src():
    """Modules of the package bind np from _lazy: on Python <= 3.11 an
    `import numpy` statement loads the lazy module at once, so one such
    statement would put numpy back on the path of every command."""
    bad = []
    for path in sorted(Path(fb.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n == "numpy" or n.startswith("numpy.") for n in names):
                bad.append(f"{path.name}:{node.lineno}")
    assert bad == []


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


class TestGaussHorner:
    @staticmethod
    @st.composite
    def _cases(draw):
        """A Gaussian-int polynomial and a point (X + iY)/d, d > 0: a power
        of two (every dyadic point) or with an odd part above 1."""
        big = st.integers(-(1 << 200), 1 << 200)
        n = draw(st.integers(0, 30))
        re = draw(st.lists(big, min_size=n + 1, max_size=n + 1))
        im = draw(st.lists(big, min_size=n + 1, max_size=n + 1))
        odd = draw(st.one_of(st.just(1), st.integers(1, 1 << 70).map(
            lambda k: 2 * k + 1)))
        d = odd << draw(st.integers(0, 80))
        return (draw(st.integers(1, 1 << 90)), re, im, draw(big), draw(big), d)

    @settings(max_examples=100, deadline=None)
    @given(case=_cases())
    def test_equals_multiply_form(self, case):
        """The same (ar, ai, den) as Horner with C_k d^(n-k) multiplied in."""
        assert _gauss_horner(*case) == gauss_horner(*case)


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


@pytest.mark.parametrize("module", list(fb._EXPORTS))
def test_exports_agree_with_the_package(module):
    """A module's __all__ is its entry in the package table, and the
    errors entry names exactly the classes errors defines, so no name
    is exported by one and missing from the other."""
    mod = importlib.import_module(f"faberbohr.{module}")
    if module == "errors":
        names = [name for name, obj in vars(mod).items()
                 if isinstance(obj, type) and obj.__module__ == mod.__name__]
    else:
        names = mod.__all__
    assert sorted(names) == sorted(fb._EXPORTS[module])


# parameters of the public functions and fields of the dataclasses that
# once took options no caller set; a name added here is a new option
_SIGNATURES = {
    "bohr_sum": ("f",),
    "coeff_bound_check": ("f", "R", "mode", "check_pre"),
    "make_context": ("K", "r", "R", "a", "n_max", "m"),
    "thm31_conditions": ("K", "R", "eps0", "C", "n_max", "m", "grid_hi",
                         "grid_points"),
    "target_identity_check": ("K", "n", "w"),
    "arc_length": ("K", "r"),
}
_FIELDS = {
    "BoundedFamily": ("kind", "seed", "count", "margin", "sweep"),
    "CampaignReport": ("K", "R", "family", "count", "sums", "min_slack",
                       "violations"),
    "Thm31Report": ("K", "R", "eps0", "C", "n_max", "a", "rows", "all_hold",
                    "r_star", "grid", "anchor_margin_tail", "tail_ratio",
                    "tail_dominance_ok", "theta_residual_max"),
    "EstimateContext": ("K", "r", "R", "lg_r", "a", "n_max", "m",
                        "theta_points", "theta_residual_max"),
    "FaberPoly": ("n", "doubles", "ints"),
}


def test_signatures_take_no_unused_option():
    got = {name: tuple(inspect.signature(getattr(fb, name)).parameters)
           for name in _SIGNATURES}
    got_fields = {name: tuple(f.name for f in
                              dataclasses.fields(getattr(fb, name)))
                  for name in _FIELDS}
    assert (got, got_fields) == (_SIGNATURES, _FIELDS)
    assert not hasattr(fb.ContinuumSpec, "capacity")
