"""Remainder bounds, two-sided envelopes, separation conditions."""

import cmath
import math

import numpy as np
import pytest

import faberbohr as fb
from faberbohr import estimates
from faberbohr.cli import main as cli_main
from faberbohr.errors import (
    DomainError,
    GridExhausted,
    LengthMismatch,
    NotOnLevel,
    PointOutsideK,
)


@pytest.fixture(scope="module")
def ctx():
    return fb.make_context(fb.segment(-1.0, 1.0), 2.0, 4.0)


@pytest.fixture(scope="module")
def dctx():
    return fb.make_context(fb.disc(0j, 1.0), 1.5, 3.0)


class TestContext:
    def test_basic_fields(self, ctx):
        assert ctx.r == 2.0 and ctx.R == 4.0
        assert ctx.lg_r == pytest.approx(6.38175, abs=1e-3)
        assert abs(abs(fb.phi(ctx.K, ctx.a)) - 4.0) < 1e-9
        assert len(ctx.theta_points) == 32
        assert ctx.theta_residual_max <= 1e-9

    def test_turned_points_on_level(self, ctx):
        mods = [abs(fb.phi(ctx.K, p)) for p in ctx.theta_points]
        assert np.max(np.abs(np.array(mods) - 4.0)) < 1e-9 * 4.0

    @pytest.mark.parametrize("K, r, R", [
        (fb.segment(-1.0, 1.0), 1.5, 4.0),
        (fb.disc(0.3 - 0.1j, 0.7), 1.25, 3.0),
        (fb.custom(fb.LaurentTail.build(2.0, 0.05, (0.04, 0.01))), 1.5, 4.0),
    ], ids=["segment", "disc", "readme-map"])
    def test_turned_points_match_the_pointwise_loop(self, K, r, R):
        """The companions go through psi and phi in one call each; the
        points and the residual are those of the loop that took each
        one through psi and phi alone, bit for bit."""
        ctx = fb.make_context(K, r, R, n_max=24)
        phi_a = fb.phi(K, ctx.a)
        pts, worst = [], 0.0
        for n in range(1, 25):
            turn = cmath.exp(1j * math.pi / n)
            a_n = complex(fb.psi(K, turn * phi_a))
            pts.append(a_n)
            worst = max(worst, abs(fb.phi(K, a_n) ** n + phi_a ** n) / R ** n)
        assert ctx.theta_points == tuple(pts)
        assert ctx.theta_residual_max == worst

    def test_level_ordering(self, seg):
        with pytest.raises(DomainError):
            fb.make_context(seg, 3.0, 2.0)


class TestRemainderBound:
    def test_contract_and_growth(self, ctx, rng):
        """actual <= normalized <= raw; the raw bound grows by r per step."""
        rho = 2.2 + 0.6 * rng.random(6)
        zs = np.asarray(fb.psi(ctx.K, rho * np.exp(2j * np.pi * rng.random(6))))
        for z in zs:
            prev = None
            for n in range(8):
                eb = fb.en_bound(ctx, n, z)
                assert eb.actual <= eb.normalized_bound <= eb.paper_bound
                if prev is not None:
                    assert eb.paper_bound / prev == pytest.approx(
                        2.0, rel=1e-12)
                prev = eb.paper_bound

    def test_wide_sample(self, ctx, rng):
        rho = 2.1 + 1.5 * rng.random(20)
        zs = np.asarray(fb.psi(ctx.K, rho * np.exp(2j * np.pi * rng.random(20))))
        for z in zs:
            for n in (1, 7, 14, 20):
                eb = fb.en_bound(ctx, n, z)
                assert eb.actual <= eb.normalized_bound

    def test_memo_does_not_grow_with_fresh_points(self):
        """Distances to the level curve are not memoised per point: fresh
        exterior points every pass must leave K's memo the same size."""
        sizes = []
        for count in (5, 50):
            K = fb.segment(-1.0, 1.0)
            c = fb.make_context(K, 2.0, 4.0, n_max=4, m=256)
            rng = np.random.default_rng(count)
            for _ in range(3):
                rho = 2.2 + 0.6 * rng.random(count)
                ws = rho * np.exp(2j * np.pi * rng.random(count))
                for z in np.asarray(fb.psi(K, ws)):
                    fb.en_bound(c, 3, z)
            sizes.append(len(K._memo))
        assert sizes[0] == sizes[1]


class TestLevelEnvelope:
    def test_disc_exact_modulus(self, dctx):
        z = fb.psi(dctx.K, 3.0 * np.exp(0.8j))
        got = fb.fn_bounds(dctx, 3, z)
        assert got.actual == pytest.approx(27.0, rel=1e-12)
        assert got.lower_valid
        assert got.lower <= got.actual <= got.upper

    def test_lower_absent_when_q_large(self, dctx):
        z = fb.psi(dctx.K, 3.0)
        got = fb.fn_bounds(dctx, 1, z)
        assert got.q >= 1.0
        assert got.lower is None
        assert not got.lower_valid
        # the normalised variant is already informative at n = 1
        assert got.q_normalized < 1.0
        assert got.lower_normalized <= got.actual <= got.upper_normalized

    def test_segment_band(self, ctx, rng):
        for t in 2.0 * np.pi * rng.random(8):
            z = fb.psi(ctx.K, 4.0 * np.exp(1j * t))
            for n in (2, 5, 9):
                got = fb.fn_bounds(ctx, n, z)
                assert got.upper_normalized >= got.actual
                if got.lower_valid:
                    assert got.lower <= got.actual <= got.upper

    def test_off_level_rejected(self, ctx):
        with pytest.raises(NotOnLevel):
            fb.fn_bounds(ctx, 3, fb.psi(ctx.K, 3.0))
        with pytest.raises(DomainError):
            fb.fn_bounds(ctx, 0, fb.psi(ctx.K, 4.0))


class TestCompactBound:
    def test_chebyshev_values(self, ctx):
        assert fb.fk_bound(ctx, 5, 0.0).actual == pytest.approx(0.0, abs=1e-12)
        got = fb.fk_bound(ctx, 3, 1.0)
        assert got.actual == pytest.approx(2.0, abs=1e-12)
        assert got.actual <= got.normalized_bound <= got.paper_bound

    def test_degree_zero(self, ctx):
        got = fb.fk_bound(ctx, 0, 0.5)
        assert got.actual == pytest.approx(1.0, abs=1e-12)
        assert got.actual <= got.normalized_bound

    def test_outside_rejected(self, ctx):
        with pytest.raises(PointOutsideK):
            fb.fk_bound(ctx, 3, 0.5 + 0.5j)


class TestSeparation:
    def test_holds_at_r8(self, seg):
        c8 = fb.make_context(seg, 1.25, 8.0)
        got = fb.ineq11_check(c8, 2)
        assert got.holds
        assert got.boundary_sup >= got.rhs
        assert got.lhs <= got.boundary_sup + 1e-9 * got.rhs

    def test_witness_chain(self, seg):
        """For the segment the turned witness attains 2(R^n + R^-n)."""
        c8 = fb.make_context(seg, 1.25, 8.0)
        for n in (1, 2, 5, 16, 32):
            got = fb.ineq11_check(c8, n)
            want = 2.0 * (8.0 ** n + 8.0 ** -n)
            assert abs(got.lhs - want) <= 1e-7 * 8.0 ** n

    def test_large_level_margin(self, seg):
        c = fb.make_context(seg, 1.25, 100.0, n_max=4)
        got = fb.ineq11_check(c, 1)
        assert got.lhs / (2.0 * 100.0) == pytest.approx(1.0, abs=1e-3)

    def test_range_guard(self, ctx):
        with pytest.raises(DomainError):
            fb.ineq11_check(ctx, 0)
        with pytest.raises(DomainError):
            fb.ineq11_check(ctx, 33)


class TestLemmaCheck:
    def test_true_and_false(self):
        norms = [2.0, 2.0, 2.0]
        assert fb.lemma33_check(norms, [0.3, 0.3, 0.3], [1, 1, 1], 1 / 6)
        assert not fb.lemma33_check(norms, [0.4, 0.3, 0.3], [1, 1, 1], 1 / 6)
        assert not fb.lemma33_check(norms, [0.3, 0.3, 0.3], [2, 1, 1], 1 / 6)

    def test_guards(self):
        with pytest.raises(LengthMismatch):
            fb.lemma33_check([1.0, 1.0], [0.1], [0, 0], 1 / 6)
        with pytest.raises(DomainError):
            fb.lemma33_check([1.0], [0.1], [0], 1.2)


class TestConditionSweep:
    def test_segment_finds_level(self, seg):
        rep = fb.thm31_conditions(seg, 8.0, eps0=0.25, n_max=16)
        assert rep.all_hold
        assert 5.0 < rep.r_star < 8.0
        assert rep.tail_dominance_ok
        assert rep.theta_residual_max <= 1e-9
        assert len(rep.anchor_margin_tail) == 5
        names = {name for _, name, *_ in rep.rows}
        assert names == {"compact_sup", "anchor_bound", "separation"}
        for _, _, lhs, rhs, margin in rep.rows:
            assert margin == pytest.approx(rhs - lhs)

    def test_disc_holds_everywhere(self, udisc):
        # for the unit disc the binding condition is ||F_1|| = 1 <= C S_1
        # = R/3, so the first good grid level is the first one >= 3
        rep = fb.thm31_conditions(udisc, 4.0, eps0=0.25, n_max=8)
        assert rep.all_hold
        assert 3.0 <= rep.r_star <= 3.3

    def test_grid_exhausted(self, udisc, monkeypatch):
        # a tiny contraction constant makes the compact bound unsatisfiable
        monkeypatch.setattr(fb.Thm31Report, "C", 1e-9)
        with pytest.raises(GridExhausted):
            fb.thm31_conditions(udisc, 4.0, eps0=0.25, n_max=4)

    def test_csv_layout(self, capsys):
        # the margin table of [-1, 1] at R = 8 as the estimates command
        # writes it
        assert cli_main(["estimates", "--R", "8", "--n-max", "4",
                         "--output", "csv"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "n,condition,lhs,rhs,margin"
        assert len(lines) == 1 + 3 * 4

    def test_collar_guard(self, seg):
        with pytest.raises(DomainError):
            fb.thm31_conditions(seg, 1.2, eps0=0.25)

    def test_collar_below_double_spacing(self, seg):
        """An eps0 with 1 + eps0 == 1.0 is refused at the eps0 gate, by
        name; it reached make_context as the level r = 1.0 and was
        refused as "levels must satisfy 1 < r < R"."""
        with pytest.raises(DomainError, match="eps0=1e-20 .* rounds to 1"):
            fb.thm31_conditions(seg, 8.0, eps0=1e-20)

    @pytest.mark.parametrize("C", [1.5, 0.0, float("nan")])
    def test_contraction_guard(self, C):
        """The sweep's contraction constant is fixed inside (0, 1), where
        the two-norm lemma holds; lemma33_check, which takes C, refuses
        one outside it, NaN included."""
        assert 0.0 < fb.Thm31Report.C < 1.0
        with pytest.raises(DomainError, match="contraction constant C must"):
            fb.lemma33_check([1.0], [0.1], [0], C)

    @staticmethod
    def _full_sweep(K, rep, m):
        """R* and the last five n = 1 anchor margins from all n <= n_max
        rows at every grid level, as the sweep was first written."""
        theta_a = cmath.phase(fb.phi(K, rep.a))
        norms = [fb.basis_norm(K, n, up_to=rep.n_max)
                 for n in range(rep.n_max + 1)]
        r_star, tail = None, []
        for Rg in rep.grid:
            a_g = complex(fb.psi(K, Rg * cmath.exp(1j * theta_a)))
            rows = estimates._condition_rows(K, Rg, a_g, rep.C, rep.n_max,
                                             m, norms)
            tail.append(next(margin for n, name, _, _, margin in rows
                             if n == 1 and name == "anchor_bound"))
            if r_star is None and all(margin > 0.0 for *_, margin in rows):
                r_star = Rg
        return r_star, tuple(tail[-5:])

    @pytest.mark.parametrize("K, R, n_max, points", [
        (fb.segment(-1.0, 1.0), 8.0, 32, 48),
        (fb.disc(0j, 1.0), 8.0, 32, 48),
        (fb.segment(-0.5, 2.0), 3.0, 8, 48),
        (fb.custom(fb.LaurentTail.build(1.0, 0.0, (0.25,))), 8.0, 12, 48),
        (fb.disc(0j, 1.0), 4.0, 8, 7),
        (fb.disc(0j, 1.0), 4.0, 8, 3),
    ], ids=["segment", "disc", "segment-R3", "custom", "seven-levels",
            "three-levels"])
    def test_sweep_stops_at_r_star(self, monkeypatch, K, R, n_max, points):
        """Past R* only the n = 1 rows of the last five levels are built:
        full rows at R and at grid levels 0..i*, n = 1 rows at the tail
        levels after i*; the report equals a sweep of every level."""
        m = 256
        calls = []
        rows_of = estimates._condition_rows

        def spy(K, R, a, C, n_max, m, norms):
            calls.append(n_max)
            return rows_of(K, R, a, C, n_max, m, norms)

        monkeypatch.setattr(estimates, "_condition_rows", spy)
        monkeypatch.setattr(estimates, "_GRID_POINTS", points)
        rep = fb.thm31_conditions(K, R, n_max=n_max, m=m)
        monkeypatch.undo()
        i_star = rep.grid.index(rep.r_star)
        tail = [i for i in range(points) if i >= points - 5 and i > i_star]
        assert calls == [n_max] * (i_star + 2) + [1] * len(tail)
        assert len(rep.anchor_margin_tail) == min(points, 5)
        assert (rep.r_star, rep.anchor_margin_tail) == self._full_sweep(
            K, rep, m)

    @pytest.mark.parametrize("call, grid_hi", [
        (lambda K: fb.thm31_conditions(K, 1e20), 256.0),
        (lambda K: fb.thm31_conditions(K, 8.0, n_max=130), 256.0),
        (lambda K: fb.thm31_conditions(K, 8.0, n_max=8), 1e50),
        (lambda K: fb.make_context(K, 2.0, 1e20), 256.0),
    ], ids=["R", "n_max", "grid_hi", "make_context"])
    def test_power_beyond_double_range(self, seg, call, grid_hi, monkeypatch):
        """R^n or grid_hi^n, grid_hi the top sweep level, past the largest
        double would overflow in the residuals and the separation rows;
        refuse it up front."""
        monkeypatch.setattr(estimates, "_GRID_HI", grid_hi)
        with pytest.raises(DomainError, match="double range"):
            call(seg)


class TestSchwarzBound:
    def test_endpoint_values(self):
        assert fb.schwarz_bound(0.5, 1.0, 0.0) == pytest.approx(0.5)
        assert fb.schwarz_bound(0.5, 1.0, 1.0) == pytest.approx(1.0)
        assert fb.schwarz_bound(1.0, 1.0, 0.3) == pytest.approx(1.0)
        assert fb.schwarz_bound(0.5, 1.0, 0.25) == pytest.approx(2.0 / 3.0)

    def test_monotone_grid(self):
        ts = np.linspace(0.02, 1.0, 50)
        f0s = np.linspace(0.0, 1.0, 50)
        vals = np.array([[fb.schwarz_bound(t, 1.0, f0) for f0 in f0s]
                         for t in ts])
        assert np.all(np.diff(vals, axis=0) >= -1e-15)
        assert np.all(np.diff(vals, axis=1) >= -1e-15)

    def test_guards(self):
        with pytest.raises(DomainError):
            fb.schwarz_bound(2.0, 1.0, 0.5)
        with pytest.raises(DomainError):
            fb.schwarz_bound(0.5, 1.0, 1.5)
