"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line for its criterion before
asserting, so a full run reads as a twelve-line scorecard under -s.
"""

import json
import math
import time

import numpy as np
from numpy.polynomial.chebyshev import chebval

import faberbohr as fb
from faberbohr.cli import main as cli_main

SEG = fb.segment(-1.0, 1.0)
DISC = fb.disc(0j, 1.0)


def _crit(num: int, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _interior_points(K, rng, n_band=30, n_inside=20):
    """Points strictly inside the level-1.5 domain (band plus K itself)."""
    rho = 1.02 + 0.28 * rng.random(n_band)
    band = np.asarray(fb.psi(K, rho * np.exp(2j * np.pi * rng.random(n_band))))
    if K.kind == "segment":
        inside = (2.0 * rng.random(n_inside) - 1.0) * 0.98 + 0j
    else:
        inside = (0.95 * np.sqrt(rng.random(n_inside))
                  * np.exp(2j * np.pi * rng.random(n_inside)))
    return np.concatenate([band, inside])


def test_criterion_01_segment_level():
    t0 = time.perf_counter()
    radius, ecc = fb.segment_bohr_radius(1e-6)
    elapsed = time.perf_counter() - t0
    ok = 5.1279 <= radius <= 5.1289 and 0.37560 <= ecc <= 0.37580 \
        and elapsed < 1.0
    _crit(1, ok, f"sufficient segment level R0={radius:.6f}, "
                 f"eccentricity={ecc:.6f} in {elapsed:.3f}s")


def test_criterion_02_tail_sum_function():
    v5 = fb.phi_of_R(5.0)
    v52 = fb.phi_of_R(5.2)
    v10 = fb.phi_of_R(10.0)
    grid = np.linspace(1.05, 50.0, 100)
    vals = np.array([fb.phi_of_R(R) for R in grid])
    ok = (1.030 < v5 < 1.037 and 0.979 < v52 < 0.985
          and 0.4483 < v10 < 0.4487 and bool(np.all(np.diff(vals) < 0)))
    _crit(2, ok, f"tail sum values {v5:.5f}/{v52:.5f}/{v10:.5f}, "
                 "strictly decreasing on a 100-point grid")


def test_criterion_03_chebyshev_match():
    polys = fb.faber_polys(SEG, 24)
    x = np.linspace(-1.0, 1.0, 1000)
    worst = 0.0
    for n in range(1, 25):
        vals = chebval(x, polys[n].cheb_floats(-1.0, 1.0))
        basis = np.zeros(n + 1)
        basis[n] = 2.0
        ref = chebval(x, basis)
        worst = max(worst, float(np.max(np.abs(vals - ref))))
    const_err = float(np.max(np.abs(polys[0](x) - 1.0)))
    ok = worst < 1e-9 and const_err == 0.0
    _crit(3, ok, f"segment polynomials vs doubled Chebyshev: "
                 f"max deviation {worst:.3g} on 1000 points, n<=24")


def test_criterion_04_pullback_identity():
    rng = np.random.default_rng(41)
    ws = (1.1 + 2.9 * rng.random(100)) * np.exp(2j * np.pi * rng.random(100))
    worst = 0.0
    for n in range(1, 17):
        for w in ws:
            worst = max(worst, fb.target_identity_residual(SEG, n, w))
    ok = worst < 1e-8
    _crit(4, ok, f"pullback identity residual max {worst:.3g} "
                 "over 100 points, n<=16")


def test_criterion_05_two_routes_agree():
    rng = np.random.default_rng(5)
    ns = list(range(25))
    worst_match = 0.0
    worst_spread = 0.0
    for K in (SEG, DISC):
        zs = _interior_points(K, rng)
        polys = fb.faber_polys(K, 24)
        ref = np.array([[polys[n].eval_exact(z) for z in zs] for n in ns])
        mat = fb.contour_values(K, ns, zs, 2.0, m=1024)
        worst_match = max(worst_match, float(np.max(np.abs(mat - ref))))
        vals = {r: fb.contour_values(K, ns, zs, r, m=256, dps=30)
                for r in (1.5, 2.0, 3.0)}
        spread = max(float(np.max(np.abs(vals[a] - vals[b])))
                     for a, b in ((1.5, 2.0), (2.0, 3.0), (1.5, 3.0)))
        worst_spread = max(worst_spread, spread)
    ok = worst_match < 1e-7 and worst_spread < 1e-8
    _crit(5, ok, f"series vs contour {worst_match:.3g} at 50 interior "
                 f"points per continuum; level-choice spread {worst_spread:.3g}")


def test_criterion_06_remainder_split():
    ctx = fb.make_context(SEG, 1.5, 4.0)
    rng = np.random.default_rng(6)
    rho = 1.6 + 0.3 * rng.random(20)
    zs = np.asarray(fb.psi(SEG, rho * np.exp(2j * np.pi * rng.random(20))))
    polys = fb.faber_polys(SEG, 16)
    worst_id = 0.0
    min_slack = math.inf
    for z in zs:
        ph = complex(fb.phi(SEG, z))
        for n in range(17):
            Fn = polys[n].eval_exact(z)
            En = fb.faber_remainder(SEG, n, z, 1.5)
            worst_id = max(worst_id, abs(ph ** n - (Fn + En)))
            eb = fb.en_bound(ctx, n, z)
            min_slack = min(min_slack, eb.normalized_bound - eb.actual)
    ok = worst_id < 1e-7 and min_slack > 0.0
    _crit(6, ok, f"splitting identity max error {worst_id:.3g}; remainder "
                 f"bound slack min {min_slack:.3g} at 20 exterior points")


def test_criterion_07_coefficient_bounds():
    plans = [
        ("moebius", 3.0, {"sweep": (0.8, 0.99)}),
        ("moebius", 5.2, {}),
        ("scaled_poly", 3.0, {}),
        ("faber_series", 2.5, {}),
    ]
    total = 0
    worst = math.inf
    for kind, R, extra in plans:
        fam = fb.BoundedFamily(kind=kind, seed=17, count=50, margin=0.02,
                               **extra)
        for f in fb.gen_bounded(SEG, R, fam):
            total += 1
            for *_, margin in fb.coeff_bound_check(f, mode="bohr"):
                worst = min(worst, margin)
    ok = total == 200 and worst >= -1e-9
    _crit(7, ok, f"coefficient bounds over {total} bounded functions: "
                 f"worst margin {worst:.3g}")


def test_criterion_08_disc_campaigns():
    sweep_fam = fb.BoundedFamily(kind="moebius", seed=0, count=24,
                                 margin=0.01, sweep=(0.8, 0.99))
    tight = fb.bohr_verify(DISC, 2.5, sweep_fam)
    wide_fam = fb.BoundedFamily(kind="moebius", seed=0, count=200,
                                margin=0.01, sweep=(0.8, 0.99))
    classical = fb.bohr_verify(DISC, 3.0, wide_fam)
    ok = len(tight.violations) >= 1 and len(classical.violations) == 0
    _crit(8, ok, f"disc campaigns: {len(tight.violations)} violations at "
                 f"R=2.5 (max sum {max(tight.sums):.5f}), none among 200 "
                 f"members at R=3 (max sum {max(classical.sums):.5f})")


def test_criterion_09_scaled_closure():
    worst = 0.0
    for R in (2.0, 4.0):
        Kt = fb.scaled_closure(SEG, R)
        base = fb.faber_polys(SEG, 12)
        scl = fb.faber_polys(Kt, 12)
        for n in range(13):
            ref = base[n].coeffs * R ** -n
            denom = np.maximum(np.abs(ref), 1.0)
            worst = max(worst, float(
                np.max(np.abs(scl[n].coeffs - ref) / denom)))
    ok = worst < 1e-8
    _crit(9, ok, f"level-set closure rescales coefficients by R^-n: "
                 f"max relative deviation {worst:.3g}, R in {{2, 4}}, n<=12")


def test_criterion_10_norm_root():
    got = fb.norm_root(SEG, [2.0], 40)
    ph = abs(fb.phi(SEG, 2.0))
    rel = abs(got - ph) / ph
    ok = rel < 0.05
    _crit(10, ok, f"40th root of |F_40(2)| is {got:.6f} vs |phi(2)|="
                  f"{ph:.6f} (relative {rel:.3g})")


def test_criterion_11_separation_sweep():
    rep = fb.thm31_conditions(SEG, 8.0, eps0=0.25, n_max=32)
    ok = (rep.r_star is not None and math.isfinite(rep.r_star)
          and rep.theta_residual_max <= 1e-9)
    _crit(11, ok, f"all separation conditions hold from grid level "
                  f"R*={rep.r_star:.4f} (n<=32); turned-point residual "
                  f"{rep.theta_residual_max:.3g}")


def test_criterion_12_deterministic_campaign(capsys):
    argv = ["--seed", "7", "--output", "json", "verify", "--count", "100"]
    rc1 = cli_main(list(argv))
    out1 = capsys.readouterr().out
    rc2 = cli_main(list(argv))
    out2 = capsys.readouterr().out
    ok = out1 == out2 and rc1 == rc2 and json.loads(out1)["count"] == 100
    _crit(12, ok, f"two verify runs with seed 7 emit byte-identical JSON "
                  f"({len(out1)} bytes, exit {rc1})")
