"""Coefficient sums, the sufficient segment level, bounded families."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import faberbohr as fb
from faberbohr.errors import DomainError, PreconditionViolated, WrongKind


class TestPhiOfR:
    def test_reference_values(self):
        assert 1.030 < fb.phi_of_R(5.0) < 1.037
        assert 0.979 < fb.phi_of_R(5.2) < 0.985
        assert 0.4483 < fb.phi_of_R(10.0) < 0.4487

    def test_monotone_decrease(self):
        grid = np.linspace(1.05, 50.0, 100)
        vals = np.array([fb.phi_of_R(R) for R in grid])
        assert np.all(np.diff(vals) < 0)

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            fb.phi_of_R(1.0)
        with pytest.raises(DomainError):
            fb.phi_of_R(0.5)


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

    def test_wrong_continuum(self, seg, udisc):
        f = fb.FaberSeries(K=seg, R=2.0, coeffs=np.array([0.5]))
        with pytest.raises(DomainError):
            fb.bohr_sum(f, udisc)

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


class TestCoeffBounds:
    def test_margins_nonnegative_for_generated(self, seg):
        fam = fb.BoundedFamily(kind="moebius", seed=11, count=8, margin=0.02)
        for f in fb.gen_bounded(seg, 3.0, fam):
            rows = fb.coeff_bound_check(f, mode="bohr")
            assert min(row["margin"] for row in rows) > -1e-9

    def test_caratheodory_mode(self, seg):
        f = fb.FaberSeries(K=seg, R=2.0, coeffs=np.array([0.3, 0.1]))
        rows = fb.coeff_bound_check(f, mode="caratheodory")
        assert rows[0]["bound"] == pytest.approx(0.6 / 1.5, abs=1e-12)
        assert rows[0]["margin"] > 0

    def test_negative_control(self, seg):
        """Inflating one coefficient past its bound must show up."""
        R = 3.0
        bound3 = 2.0 * (1.0 - 0.5) / (R ** 3 - R ** -3)
        coeffs = np.zeros(4, dtype=complex)
        coeffs[0] = 0.5
        coeffs[3] = 1.5 * bound3
        f = fb.FaberSeries(K=seg, R=R, coeffs=coeffs)
        rows = fb.coeff_bound_check(f, check_pre=False)
        assert rows[2]["margin"] < 0

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
    def test_disc_classical_threshold(self, udisc):
        fam = fb.BoundedFamily(kind="moebius", seed=1, count=24,
                               sweep=(0.8, 0.99))
        good = fb.bohr_verify(udisc, 3.0, fam)
        assert good.verdict == "no-violation-found"
        assert good.min_slack > 0
        bad = fb.bohr_verify(udisc, 2.5, fam)
        assert bad.verdict == "violation-found"
        assert len(bad.violations) >= 1
        assert bad.violations[0]["sum"] > 1.0

    def test_empty_campaign(self, seg):
        fam = fb.BoundedFamily(kind="moebius", count=0)
        rep = fb.bohr_verify(seg, 3.0, fam)
        assert rep.count == 0
        assert rep.min_slack is None
        assert rep.verdict == "no-violation-found"
        d = rep.to_json_dict()
        assert d["schema"] == "faberbohr/1"
        assert d["max_sum"] is None

    def test_report_shape(self, udisc):
        fam = fb.BoundedFamily(kind="faber_series", seed=3, count=4)
        d = fb.bohr_verify(udisc, 2.0, fam).to_json_dict()
        assert d["evidence_only"] is True
        assert d["family"]["kind"] == "faber_series"
        assert d["count"] == 4
        assert len(d["violations"]) == 0

    def test_annotation_constants(self):
        assert fb.KAPTANOGLU_SADIK_RADIUS == pytest.approx(5.1573)
        assert fb.KAPTANOGLU_SADIK_ECCENTRICITY == pytest.approx(0.3738)
