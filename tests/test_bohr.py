"""Coefficient sums, the sufficient segment level, bounded families."""

import cmath
import dataclasses
import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import faberbohr as fb
from faberbohr.cli import main as cli_main
from faberbohr.errors import (
    DomainError,
    NonConvergent,
    PreconditionViolated,
    WrongKind,
)
from series_reference import to_faber_basis as reference_faber_basis
from test_faber import KERNEL_CONTINUA, _bits, _kernel_continuum


class TestPhiOfR:
    def test_reference_values(self):
        assert 1.030 < fb.phi_of_R(5.0) < 1.037
        assert 0.979 < fb.phi_of_R(5.2) < 0.985
        assert 0.4483 < fb.phi_of_R(10.0) < 0.4487

    def test_monotone_decrease(self):
        grid = np.linspace(1.05, 50.0, 100)
        vals = np.array([fb.phi_of_R(R) for R in grid])
        assert np.all(np.diff(vals) < 0)

    @pytest.mark.parametrize("R", [1.1, 2.0, 5.1282, 10.0, 64.0])
    def test_matches_mpmath_sum(self, R):
        import mpmath

        with mpmath.workdps(30):
            Rm = mpmath.mpf(R)
            ref = mpmath.nsum(lambda n: 4 / (Rm ** n - Rm ** -n),
                              [1, mpmath.inf])
        assert abs(fb.phi_of_R(R) - ref) <= 1e-14 * ref

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            fb.phi_of_R(1.0)
        with pytest.raises(DomainError):
            fb.phi_of_R(0.5)

    @pytest.mark.parametrize("R", [1 + 1.1e-6, 1 + 1.5e-6, 1 + 1.9e-6])
    def test_hopeless_level_is_refused_at_once(self, R):
        """Near R = 1 + 1e-6 the 1e-15 stopping test cannot pass before
        the cap of 10^7 terms, and the sum ran all of them, 1.6-1.7 s,
        before raising NonConvergent.  A closed-form upper bound on the
        sum refuses such an R before any summing; one within 5% of the
        sum left R from 1 + 1.8624e-6 to 1 + 1.9411e-6 summing, so the
        bound sums the first 256 terms and bounds the rest by an integral.
        """
        start = time.perf_counter()
        with pytest.raises(NonConvergent, match="too close to 1"):
            fb.phi_of_R(R)
        assert time.perf_counter() - start < 0.1


class TestSegmentLevel:
    def test_root_location(self):
        res = fb.segment_bohr_radius(1e-6)
        assert fb.phi_of_R(res.radius - 1e-5) > 1.0 > fb.phi_of_R(
            res.radius + 1e-5)
        assert res.eccentricity == pytest.approx(
            2.0 * res.radius / (1.0 + res.radius ** 2), abs=1e-12)
        r, e = res  # tuple protocol
        assert (r, e) == (res.radius, res.eccentricity)

    def test_bracket_independence(self):
        a = fb.segment_bohr_radius(1e-8)
        b = fb.segment_bohr_radius(1e-8, bracket=(2.0, 16.0))
        assert abs(a.radius - b.radius) < 2e-8

    def test_guards(self):
        with pytest.raises(DomainError):
            fb.segment_bohr_radius(1e-12)
        with pytest.raises(DomainError):
            fb.segment_bohr_radius(1e-6, bracket=(6.0, 64.0))


class TestBohrSum:
    def test_constant(self, seg):
        f = fb.FaberSeries(K=seg, R=2.0, coeffs=np.array([0.5 + 0j]))
        rep = fb.bohr_sum(f)
        assert rep.sum == pytest.approx(0.5, abs=1e-12)
        assert rep.verdict == "Holds"
        assert rep.holds

    def test_disc_first_mode(self, udisc):
        f = fb.FaberSeries(K=udisc, R=3.0, coeffs=np.array([0, 1 / 3]))
        assert fb.bohr_sum(f).sum == pytest.approx(1 / 3, abs=1e-9)

    def test_segment_weights(self, seg):
        # basis norms on the segment are 1, 2, 2, ...
        f = fb.FaberSeries(K=seg, R=2.0, coeffs=np.array([0.2, 0.1]))
        rep = fb.bohr_sum(f)
        assert rep.sum == pytest.approx(0.4, abs=1e-9)
        assert rep.terms[0] == pytest.approx(0.2)
        assert rep.terms[1] == pytest.approx(0.2, abs=1e-9)

    def test_violated_verdict(self, seg):
        f = fb.FaberSeries(K=seg, R=2.0, coeffs=np.array([0.6, 0.3]))
        rep = fb.bohr_sum(f)
        assert rep.verdict == "Violated"
        assert not rep.holds

    @given(st.complex_numbers(max_magnitude=3.0, allow_nan=False,
                              allow_infinity=False))
    @settings(max_examples=60, deadline=None)
    def test_homogeneity(self, t):
        seg = fb.segment(-1.0, 1.0)
        f = fb.FaberSeries(K=seg, R=2.0,
                           coeffs=np.array([0.3, 0.1j, -0.05]))
        base = fb.bohr_sum(f).sum
        scaled = fb.bohr_sum(f.scaled(t)).sum
        assert abs(scaled - abs(t) * base) <= 1e-12 * (1.0 + abs(t))


class TestBasisNorm:
    def test_segment_and_disc(self, seg, udisc):
        assert fb.basis_norm(seg, 0) == 1.0
        segments = (seg, fb.segment(0.3, 1.7))
        discs = (udisc, fb.disc(0.3 + 0.1j, 0.7))
        for n in range(1, 33):
            for K in segments:
                assert fb.basis_norm(K, n) == 2.0
            for K in discs:
                assert fb.basis_norm(K, n) == 1.0


class TestToFaberBasis:
    def test_square_on_segment(self, seg):
        # z^2 = F_2/4 + 1/2 on [-1, 1]
        a = fb.to_faber_basis(seg, [0, 0, 1])
        assert np.max(np.abs(a - np.array([0.5, 0.0, 0.25]))) < 1e-14

    def test_reconstructs_polynomial(self, seg, rng):
        c = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        a = fb.to_faber_basis(seg, c)
        z = rng.standard_normal(8) * 0.5
        want = np.polynomial.polynomial.polyval(z, c)
        polys = fb.faber_polys(seg, len(a) - 1)
        got = sum(a[n] * polys[n](z) for n in range(len(a)))
        assert np.max(np.abs(got - want)) < 1e-10

    @staticmethod
    def _outcome(K, coeffs):
        """to_faber_basis against the QC elimination: both as the bits of
        every output coefficient, or the type each raised."""
        def run(fn):
            try:
                return [_bits(complex(c)) for c in fn(K, coeffs)]
            except Exception as exc:   # noqa: BLE001 - the type is the outcome
                return type(exc)

        # a coefficient beyond double range is an OverflowError of the
        # reference's rounding and a DomainError of the library
        want = run(reference_faber_basis)
        return (run(fb.to_faber_basis),
                DomainError if want is OverflowError else want)

    # full-mantissa, subnormal-adjacent and wide-exponent entries, and
    # trailing zeros that the elimination strips
    SPECIAL = [[0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
               [0.1 + 0.7j, -2.5e-8, 3.3e12j, 0.0],
               [1e-300, 1e300j, -1.2345678901234567 + 2.718281828459045j],
               [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                1.0]]

    @pytest.mark.parametrize("name", list(KERNEL_CONTINUA))
    def test_matches_qc_elimination(self, name):
        """Exact elimination rounded once: bit for bit the QC reference,
        for degrees 0-12, with and without trailing zeros."""
        K = _kernel_continuum(name)
        rng = np.random.default_rng(7)
        cases = list(self.SPECIAL)
        for d in range(13):
            c = rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1)
            cases += [c, np.append(c, [0.0, 0.0]), c.real * 1e3]
        for c in cases:
            got, want = self._outcome(K, c)
            assert got == want, (list(c), got, want)
            assert isinstance(want, list)

    @given(st.sampled_from(list(KERNEL_CONTINUA)),
           st.lists(st.complex_numbers(allow_nan=False, allow_infinity=False),
                    max_size=13))
    @settings(max_examples=100, deadline=None)
    def test_matches_qc_elimination_property(self, name, coeffs):
        got, want = self._outcome(_kernel_continuum(name), coeffs)
        assert got == want

    def test_empty_input(self, seg):
        with pytest.raises(DomainError, match="N must be nonnegative"):
            fb.to_faber_basis(seg, [])

    @pytest.mark.parametrize("K, coeffs, n", [
        (fb.disc(0, 1000), [0] * 112 + [1], 112),   # a_112 = 1000^112
        (fb.disc(1e300, 1), [0, 1e10], 0),          # a_0 = 1e310
    ])
    def test_coefficient_beyond_double_range(self, K, coeffs, n):
        with pytest.raises(DomainError,
                           match=f"Faber coefficient {n} leaves double range"):
            fb.to_faber_basis(K, coeffs)

    def test_nan_input(self, seg):
        with pytest.raises(DomainError, match="finite"):
            fb.to_faber_basis(seg, [1.0, complex(0.0, math.nan)])


class TestCoeffBounds:
    def test_margins_nonnegative_for_generated(self, seg):
        fam = fb.BoundedFamily(kind="moebius", seed=11, count=8, margin=0.02)
        for f in fb.gen_bounded(seg, 3.0, fam):
            rows = fb.coeff_bound_check(f, mode="bohr")
            assert min(margin for *_, margin in rows) > -1e-9

    def test_caratheodory_mode(self, seg):
        f = fb.FaberSeries(K=seg, R=2.0, coeffs=np.array([0.3, 0.1]))
        rows = fb.coeff_bound_check(f, mode="caratheodory")
        _, _, bound, margin = rows[0]
        assert bound == pytest.approx(0.6 / 1.5, abs=1e-12)
        assert margin > 0

    def test_negative_control(self, seg):
        """Inflating one coefficient past its bound must show up: the
        sampled precondition refuses the series, and under a certificate
        that stands in for sampling its margin row is negative."""
        R = 3.0
        bound3 = 2.0 * (1.0 - 0.5) / (R ** 3 - R ** -3)
        coeffs = np.zeros(4, dtype=complex)
        coeffs[0] = 0.5
        coeffs[3] = 1.5 * bound3
        f = fb.FaberSeries(K=seg, R=R, coeffs=coeffs)
        with pytest.raises(PreconditionViolated, match="sampled modulus"):
            fb.coeff_bound_check(f)
        rows = fb.coeff_bound_check(dataclasses.replace(f, cert_sup=0.99))
        *_, margin = rows[2]
        assert margin < 0

    def test_precondition_positive_control(self, seg):
        f = fb.FaberSeries(K=seg, R=2.0, coeffs=np.array([0.0, 3.0]))
        with pytest.raises(PreconditionViolated) as err:
            fb.coeff_bound_check(f)
        assert err.value.point is not None
        assert err.value.value > 1.0

    def test_wrong_kind(self, udisc):
        f = fb.FaberSeries(K=udisc, R=2.0, coeffs=np.array([0.5]))
        with pytest.raises(WrongKind):
            fb.coeff_bound_check(f)

    def test_unknown_mode(self, seg):
        f = fb.FaberSeries(K=seg, R=2.0, coeffs=np.array([0.5]))
        with pytest.raises(DomainError):
            fb.coeff_bound_check(f, mode="schwarz")


class TestBoundedFamilies:
    def test_deterministic(self, seg):
        fam = fb.BoundedFamily(kind="scaled_poly", seed=5, count=6)
        a = fb.gen_bounded(seg, 2.5, fam)
        b = fb.gen_bounded(seg, 2.5, fam)
        for fa, fbb in zip(a, b):
            assert np.array_equal(fa.coeffs, fbb.coeffs)
            assert fa.label == fbb.label
            assert fa.cert_sup == fbb.cert_sup

    def test_certified_below_target(self, seg, udisc):
        for K in (seg, udisc):
            for kind in ("moebius", "scaled_poly", "faber_series"):
                fam = fb.BoundedFamily(kind=kind, seed=2, count=9,
                                       margin=0.04)
                for f in fb.gen_bounded(K, 2.5, fam):
                    assert f.cert_sup <= 1.0 - 0.02 + 1e-12

    def test_moebius_sweep_closed_form(self, udisc):
        """Disc sweep members must match the closed-form coefficients."""
        R, margin, count = 3.0, 0.01, 5
        target = 1.0 - margin / 2.0
        fam = fb.BoundedFamily(kind="moebius", seed=0, count=count,
                               margin=margin, sweep=(0.8, 0.99))
        members = fb.gen_bounded(udisc, R, fam)
        avals = np.linspace(0.8, 0.99, count)
        for f, a in zip(members, avals):
            n = np.arange(1, len(f.coeffs))
            want = np.concatenate(
                [[a], -(1.0 - a * a) * a ** (n - 1) * R ** -n.astype(float)])
            assert np.max(np.abs(f.coeffs - target * want)) < 1e-10

    def test_unknown_kind(self, seg):
        with pytest.raises(DomainError):
            fb.gen_bounded(seg, 2.0, fb.BoundedFamily(kind="blaschke"))

    def test_bad_margin(self, seg):
        with pytest.raises(DomainError):
            fb.gen_bounded(seg, 2.0, fb.BoundedFamily(margin=1.5))

    @pytest.mark.parametrize("sweep", [(2.0, 3.0), (0.5, 1.5), (0.5, math.nan)])
    def test_sweep_outside_unit_interval(self, seg, sweep):
        """A moebius parameter a outside (0, 1) puts a pole in the level region."""
        fam = fb.BoundedFamily(kind="moebius", count=3, sweep=sweep)
        with pytest.raises(DomainError, match="sweep"):
            fb.gen_bounded(seg, 3.0, fam)


class TestCampaigns:
    @pytest.mark.parametrize("kind, sweep", [
        ("moebius", (0.8, 0.99)), ("moebius", None), ("scaled_poly", None),
        ("faber_series", None)])
    def test_family_is_refined_in_lockstep(self, monkeypatch, kind, sweep):
        """A campaign maps each grid through psi once and refines every
        member's sup together, one psi call per golden stage: a few hundred
        Newton inversions, not one per member and stage."""
        K = fb.custom(fb.LaurentTail.build(
            1.0057, cmath.rect(0.1, 2.1),
            (cmath.rect(0.12, 2.5), cmath.rect(0.05, 1.9),
             cmath.rect(0.025, 1.3))))
        calls = []
        inner = type(K)._psi

        def counted(self, w):
            calls.append(len(w))
            return inner(self, w)

        monkeypatch.setattr(type(K), "_psi", counted)
        fam = fb.BoundedFamily(kind=kind, count=100, sweep=sweep)
        rep = fb.bohr_verify(K, 3.0, fam)
        assert rep.count == 100
        assert len(calls) <= 300


    def test_disc_classical_threshold(self, udisc):
        fam = fb.BoundedFamily(kind="moebius", seed=1, count=24,
                               sweep=(0.8, 0.99))
        good = fb.bohr_verify(udisc, 3.0, fam)
        assert good.verdict == "no-violation-found"
        assert good.min_slack > 0
        bad = fb.bohr_verify(udisc, 2.5, fam)
        assert bad.verdict == "violation-found"
        assert len(bad.violations) >= 1
        index, _ = bad.violations[0]
        assert bad.sums[index] > 1.0

    def test_empty_campaign(self, seg, capsys):
        fam = fb.BoundedFamily(kind="moebius", count=0)
        rep = fb.bohr_verify(seg, 3.0, fam)
        assert rep.count == 0
        assert rep.min_slack is None
        assert rep.verdict == "no-violation-found"
        # the same campaign as the verify command writes it
        assert cli_main(["verify", "--count", "0", "--output", "json"]) == 0
        d = json.loads(capsys.readouterr().out)
        assert d["schema"] == "faberbohr/1"
        assert d["max_sum"] is None

    def test_report_shape(self, capsys):
        assert cli_main(["--continuum", "disc:0,0,1", "verify", "--R", "2",
                         "--family", "faber_series", "--seed", "3",
                         "--count", "4", "--output", "json"]) == 0
        d = json.loads(capsys.readouterr().out)
        assert d["evidence_only"] is True
        assert d["family"]["kind"] == "faber_series"
        assert d["count"] == 4
        assert len(d["violations"]) == 0

    def test_annotation_constants(self):
        assert fb.KAPTANOGLU_SADIK_RADIUS == pytest.approx(5.1573)
        assert fb.KAPTANOGLU_SADIK_ECCENTRICITY == pytest.approx(0.3738)
