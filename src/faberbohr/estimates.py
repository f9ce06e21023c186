"""Quantitative bounds tying Faber data to level-curve geometry.

Everything here is a comparison of three kinds of quantities:

* actual values (remainders, polynomial values) computed by the series
  or contour routes,
* geometric bounds r^n * length / distance built from an inner level
  curve, in both the raw and the 1/(2 pi) normalised form (assertions
  in the tests target the normalised form, the raw form holds a
  fortiori),
* separation conditions comparing the spread of F_n on an outer level
  curve against its size on K and at a marked boundary point, the
  machinery behind the existence of a Bohr level for general continua.

The marked-point construction places companions a_n on the same level
curve as the anchor a, turned so that the n-th powers of their exterior
coordinates cancel; residuals of that cancellation are tracked relative
to R^n since the powers themselves dwarf any absolute tolerance.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import ClassVar, NamedTuple

from . import _EXPORTS
from ._lazy import np
from .bohr import basis_norm
from .continua import (
    MEMBERSHIP_TOL,
    ContinuumSpec,
    _check_level,
    _circle,
    arc_length,
    contains,
    dist_to_level,
    phi,
    psi,
)
from .errors import (
    CertificationFailed,
    DomainError,
    GridExhausted,
    LengthMismatch,
    NotOnLevel,
    PointOutsideK,
)
from .faber import faber_poly, faber_remainder

__all__ = _EXPORTS["estimates"]

_TWO_PI = 2.0 * math.pi
_THETA_TOL = 1e-9


# ---------------------------------------------------------------------------
# context

@dataclass(frozen=True, eq=False)
class EstimateContext:
    """Frozen geometry for one round of bound checking.

    r is the inner level whose curve supplies length and distance; R is
    the outer level carrying the anchor a and its turned companions
    theta_points (one per index, starting at n = 1).
    """

    K: ContinuumSpec
    r: float
    R: float
    lg_r: float
    a: complex
    n_max: int
    m: int
    theta_points: tuple
    theta_residual_max: float


def _check_power(name: str, x: float, n_max: int) -> None:
    """Refuse a level x with x^n_max beyond double range; the residuals
    and the separation rows compute powers up to it."""
    try:
        if math.isfinite(float(x) ** int(n_max)):
            return
    except OverflowError:
        pass
    raise DomainError(f"{name} {x:g} to the power n_max={n_max} is beyond "
                      "double range")


def make_context(K: ContinuumSpec, r: float, R: float, n_max: int = 32,
                 m: int = 1024) -> EstimateContext:
    """Build an EstimateContext, validating the turned-point construction.

    For the anchor a = psi(R) and each n the companion a_n = psi(e^(i pi
    / n) phi(a)), found in one psi call for all n, has phi(a_n)^n =
    -phi(a)^n; the residual of that identity, relative to R^n, must stay
    below 1e-9 or the context is refused.
    """
    r, R = float(r), float(R)
    _check_level(r, "levels must satisfy 1 < r < R")
    _check_level(R, "levels must satisfy 1 < r < R", r)
    _check_power("level R", R, n_max)
    a = complex(psi(K, complex(R)))
    try:
        phi_a = phi(K, a)
    except DomainError:
        raise DomainError(f"phi at the anchor psi(R) = {a} leaves double "
                          f"range at R={R:g}", param="R") from None
    lg = arc_length(K, r)
    ns = range(1, n_max + 1)
    pts = psi(K, np.array([cmath.exp(1j * math.pi / n) * phi_a for n in ns]))
    worst = 0.0
    for n, w in zip(ns, phi(K, pts).tolist()):
        worst = max(worst, abs(w ** n + phi_a ** n) / R ** n)
    if worst > _THETA_TOL:
        raise CertificationFailed(
            f"turned-point residual {worst:.3g} exceeds {_THETA_TOL}")
    return EstimateContext(K=K, r=r, R=R, lg_r=float(lg), a=a,
                           n_max=int(n_max), m=int(m),
                           theta_points=tuple(pts.tolist()),
                           theta_residual_max=worst)


# ---------------------------------------------------------------------------
# stable evaluation helpers

def _fn_at(K: ContinuumSpec, ns, z: complex) -> np.ndarray:
    """F_n at a point of the exterior for each n in ns, through w = phi(z).

    Where rho is known the pullback w^n + rho^n w^-n is an exact
    identity and keeps full relative accuracy at magnitudes R^n where
    the monomial form has none.
    """
    return K.pullback(ns, np.array([phi(K, complex(z))]))[:, 0]


# ---------------------------------------------------------------------------
# pointwise bounds

class EnBound(NamedTuple):
    paper_bound: float
    normalized_bound: float
    actual: float


def en_bound(ctx: EstimateContext, n: int, z) -> EnBound:
    """Remainder size against r^n * length / distance at an exterior point.

    actual is |faber_remainder|, exactly |rho/phi(z)|^n where rho is
    known.  The normalised bound divides by 2 pi and is the one the
    tests assert; actual <= normalized_bound <= paper_bound.
    """
    z = complex(z)
    actual = abs(faber_remainder(ctx.K, n, z, ctx.r, ctx.m))
    d = dist_to_level(ctx.K, z, ctx.r, ctx.m)
    paper = ctx.r ** n * ctx.lg_r / d
    return EnBound(paper_bound=paper, normalized_bound=paper / _TWO_PI,
                   actual=actual)


class FnBounds(NamedTuple):
    upper: float
    lower: float | None
    actual: float
    q: float
    upper_normalized: float
    lower_normalized: float | None
    q_normalized: float
    lower_valid: bool


def fn_bounds(ctx: EstimateContext, n: int, z) -> FnBounds:
    """Two-sided envelope R^n (1 -+ q) for |F_n| on the outer level curve.

    q = (r/R)^n * length / distance; the lower bound only means
    anything when q < 1, and is reported as None otherwise with
    lower_valid cleared.
    """
    if n < 1:
        raise DomainError("the two-sided envelope needs n >= 1")
    z = complex(z)
    if abs(abs(phi(ctx.K, z)) - ctx.R) > 1e-9 * max(1.0, ctx.R):
        raise NotOnLevel(f"{z} is not on the level curve at R={ctx.R}")
    d = dist_to_level(ctx.K, z, ctx.r, ctx.m)
    q = (ctx.r / ctx.R) ** n * ctx.lg_r / d
    qn = q / _TWO_PI
    Rn = ctx.R ** n
    actual = abs(_fn_at(ctx.K, [n], z)[0])
    return FnBounds(
        upper=Rn * (1.0 + q),
        lower=Rn * (1.0 - q) if q < 1.0 else None,
        actual=actual,
        q=q,
        upper_normalized=Rn * (1.0 + qn),
        lower_normalized=Rn * (1.0 - qn) if qn < 1.0 else None,
        q_normalized=qn,
        lower_valid=q < 1.0,
    )


class FkBound(NamedTuple):
    paper_bound: float
    normalized_bound: float
    actual: float


def fk_bound(ctx: EstimateContext, n: int, z) -> FkBound:
    """|F_n(z)| on K, exact and rounded once, against the r^n * length /
    distance envelope."""
    z = complex(z)
    if not contains(ctx.K, z):
        raise PointOutsideK(f"{z} does not lie on {ctx.K.describe()}")
    d = dist_to_level(ctx.K, z, ctx.r, ctx.m)
    paper = ctx.r ** n * ctx.lg_r / d
    return FkBound(paper_bound=paper, normalized_bound=paper / _TWO_PI,
                   actual=abs(faber_poly(ctx.K, n).eval_exact(z)))


# ---------------------------------------------------------------------------
# separation machinery

class Ineq11(NamedTuple):
    lhs: float
    rhs: float
    holds: bool
    boundary_sup: float


def ineq11_check(ctx: EstimateContext, n: int) -> Ineq11:
    """Spread of F_n against 1.5 R^n.

    lhs is the turned-companion witness |F_n(a_n) - F_n(a)|, a lower
    bound for the boundary sup; holds compares the sampled sup (itself
    an underestimate, so a True verdict is conservative) against rhs.
    """
    if not 1 <= n <= ctx.n_max:
        raise DomainError(f"index {n} outside the context range 1..{ctx.n_max}")
    a_n = ctx.theta_points[n - 1]
    Fa = _fn_at(ctx.K, [n], ctx.a)[0]
    lhs = abs(_fn_at(ctx.K, [n], a_n)[0] - Fa)
    vals = ctx.K.pullback([n], _circle(ctx.R, ctx.m))[0]
    boundary_sup = float(np.max(np.abs(vals - Fa)))
    rhs = 1.5 * ctx.R ** n
    return Ineq11(lhs=lhs, rhs=rhs, holds=bool(boundary_sup >= rhs),
                  boundary_sup=boundary_sup)


def lemma33_check(phi_norms_K, phi_shift_norms, eps, C: float) -> bool:
    """Hypothesis check for the two-norm separation lemma.

    Requires, for every index, shifted sup <= C * base norm and
    |offset| <= (1 - C) * base norm, with a relative 1e-12 slack.
    """
    if not 0.0 < C < 1.0:
        raise DomainError("contraction constant C must lie in (0, 1)")
    norms = np.asarray(phi_norms_K, dtype=float)
    shifts = np.asarray(phi_shift_norms, dtype=float)
    offs = np.abs(np.asarray(eps, dtype=complex))
    if not len(norms) == len(shifts) == len(offs):
        raise LengthMismatch(
            f"got lengths {len(norms)}, {len(shifts)}, {len(offs)}")
    slack = 1e-12 * np.maximum(1.0, norms)
    first = np.all(shifts <= C * norms + slack)
    second = np.all(offs <= (1.0 - C) * norms + slack)
    return bool(first and second)


# ---------------------------------------------------------------------------
# the sufficient-condition sweep

_ANCHOR_TAIL = 5      # grid levels whose n = 1 anchor margin is reported
_GRID_HI = 256.0      # the sweep's top level
_GRID_POINTS = 48     # the sweep's levels, 1 + 2 eps0 to _GRID_HI


def _condition_rows(K: ContinuumSpec, R: float, a: complex, C: float,
                    n_max: int, m: int, norms) -> list:
    """Tuples (n, condition, lhs, rhs, margin), margin = rhs - lhs, at one
    level: three conditions per n; lhs <= rhs is good."""
    ns = np.arange(1, n_max + 1)
    V = K.pullback(ns, _circle(R, m))
    Fa = _fn_at(K, ns, a)
    S = np.max(np.abs(V - Fa[:, None]), axis=1)
    rows = []
    for i, n in enumerate(ns):
        n = int(n)
        S_n = float(S[i])
        triples = (
            ("compact_sup", norms[n], C * S_n),
            ("anchor_bound", abs(Fa[i]), (1.0 - C) * S_n),
            ("separation", 1.5 * R ** n, S_n),
        )
        for name, lhs, rhs in triples:
            rows.append((n, name, float(lhs), float(rhs), float(rhs - lhs)))
    return rows


@dataclass(frozen=True, eq=False)
class Thm31Report:
    """Separation conditions at one level plus a sweep for the first good one.

    rows is the margin table at R, the (n, condition, lhs, rhs, margin)
    tuples of _condition_rows.  r_star is the smallest grid level at
    which every margin is positive for all n up to n_max; an empirical
    threshold, labeled as such in note, not a certified constant.
    anchor_margin_tail records the n = 1 anchor_bound margins over the
    last five grid points (their growth is reported, not asserted).
    """

    K: ContinuumSpec
    R: float
    eps0: float
    n_max: int
    a: complex
    rows: tuple
    all_hold: bool
    r_star: float
    grid: tuple
    anchor_margin_tail: tuple
    tail_ratio: float
    tail_dominance_ok: bool
    theta_residual_max: float
    C: ClassVar[float] = 1.0 / 6.0   # the contraction constant of lemma33
    note: ClassVar[str] = "numerical sufficient-condition check"


def thm31_conditions(K: ContinuumSpec, R: float, eps0: float = 0.25,
                     n_max: int = 32, m: int = 512) -> Thm31Report:
    """Evaluate the three separation conditions and sweep for a good level.

    At the requested R the full margin table is returned; the sweep
    walks a geometric grid of 48 levels from 1 + 2*eps0 to 256,
    re-anchoring a at the same boundary angle on each level, and reports
    the first level where all conditions hold for every n <= n_max.
    Past that level only the n = 1 rows of the last five levels are
    evaluated, for anchor_margin_tail.
    """
    eps0 = float(eps0)
    if not eps0 > 0.0:
        raise DomainError("collar parameter eps0 must be positive")
    if 1.0 + eps0 == 1.0:
        raise DomainError(f"collar parameter eps0={eps0:g} is too small: "
                          "the collar level 1 + eps0 rounds to 1")
    if n_max < 1:
        raise DomainError("n_max must be at least 1")
    r = 1.0 + eps0
    _check_level(R, f"level R={R} must exceed the collar level {r}", r)
    _check_power("sweep top level", _GRID_HI, n_max)   # make_context checks R
    ctx = make_context(K, r, R, n_max=n_max, m=m)
    norms = [basis_norm(K, n, up_to=n_max) for n in range(n_max + 1)]
    rows = _condition_rows(K, R, ctx.a, Thm31Report.C, n_max, m, norms)
    all_hold = all(margin > 0.0 for *_, margin in rows)

    theta_a = cmath.phase(phi(K, ctx.a))
    grid = np.geomspace(1.0 + 2.0 * eps0, _GRID_HI, _GRID_POINTS)
    tail_from = len(grid) - _ANCHOR_TAIL
    r_star = None
    anchor_tail = []
    for i, Rg in enumerate(grid):
        # past R* only the n = 1 anchor margins of the tail are reported;
        # rows are elementwise in n, so the n = 1 row is the same alone
        if r_star is not None and i < tail_from:
            continue
        a_g = complex(psi(K, Rg * cmath.exp(1j * theta_a)))
        if contains(K, a_g):
            top = complex(psi(K, grid[-1] * cmath.exp(1j * theta_a)))
            if contains(K, top):   # no eps0 lifts the sweep off K
                raise DomainError(
                    f"the sweep level {Rg:.17g} and the top level "
                    f"{grid[-1]:.17g} meet {K.describe()} within the "
                    f"membership tolerance {MEMBERSHIP_TOL:g} at the anchor "
                    "angle, so no eps0 helps", param="continuum")
            raise DomainError(
                f"collar parameter eps0={eps0:g} is too small: the sweep "
                f"level {Rg:.17g} meets K in double precision at the anchor "
                "angle", param="eps0")
        rows_g = _condition_rows(K, float(Rg), a_g, Thm31Report.C,
                                 n_max if r_star is None else 1, m, norms)
        if i >= tail_from:
            anchor_tail.append(next(
                margin for n, name, _, _, margin in rows_g
                if n == 1 and name == "anchor_bound"))
        if r_star is None and all(margin > 0.0 for *_, margin in rows_g):
            r_star = float(Rg)
    if r_star is None:
        raise GridExhausted(
            f"no level in [{grid[0]:.4g}, {grid[-1]:.4g}] satisfies all "
            f"conditions for n <= {n_max}")

    return Thm31Report(
        K=K, R=float(R), eps0=eps0, n_max=int(n_max), a=ctx.a,
        rows=tuple(rows), all_hold=all_hold, r_star=r_star,
        grid=tuple(float(g) for g in grid),
        anchor_margin_tail=tuple(anchor_tail),
        tail_ratio=r / r_star,
        tail_dominance_ok=r / r_star < 1.0,
        theta_residual_max=ctx.theta_residual_max,
    )


# ---------------------------------------------------------------------------
# the invariant Schwarz bound

def schwarz_bound(rho1: float, rho: float, f0: float) -> float:
    """(rho1/rho + f0) / (1 + f0 rho1/rho), the invariant disc bound.

    Monotone nondecreasing in f0 and in the ratio rho1/rho, equal to
    the ratio at f0 = 0 and to 1 at f0 = 1.
    """
    if not 0.0 < rho1 <= rho:
        raise DomainError("need 0 < rho1 <= rho")
    if not 0.0 <= f0 <= 1.0:
        raise DomainError("boundary value f0 must lie in [0, 1]")
    t = rho1 / rho
    return (t + f0) / (1.0 + f0 * t)
