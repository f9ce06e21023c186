"""Bohr sums, coefficient inequalities and the segment Bohr radius.

The Bohr sum of f = a_0 + sum a_n F_n relative to a continuum K is
sum |a_n| * sup_K |F_n|.  This module answers three questions about it:

* for the segment, above which level R does boundedness on the level
  region force the sum below 1 (the sufficient radius, found as the
  root of an explicit series in R),
* what the classical annulus coefficient inequalities say about each
  individual a_n of a bounded or positive-real-part function,
* how large the sum actually gets over generated families of certified
  bounded functions (verification campaigns; a violation disproves the
  inequality at that level, absence of violations is evidence only).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import ClassVar

from . import _EXPORTS
from ._lazy import np
from .continua import (
    DEFAULT_SAMPLES,
    ContinuumSpec,
    _check_level,
    _circle,
    _polyval,
    _row_sups,
    eccentricity,
    psi,
)
from .errors import (
    AliasingRisk,
    CertificationFailed,
    DomainError,
    NonConvergent,
    PreconditionViolated,
    WrongKind,
)
from .faber import FaberSeries, _rounded, faber_coeffs, faber_polys
from .series import _dyadic

__all__ = _EXPORTS["bohr"]

# Comparison values from the literature on elliptic regions
# (Kaptanoglu and Sadik); reported in summaries, never computed here.
KAPTANOGLU_SADIK_RADIUS = 5.1573
KAPTANOGLU_SADIK_ECCENTRICITY = 0.3738

_CERT_SAMPLES = 2048


# ---------------------------------------------------------------------------
# Bohr sums

@dataclass(frozen=True, eq=False)
class BohrReport:
    """Bohr sum of one Faber series with its per-index contributions."""

    sum: float
    terms: np.ndarray
    verdict: str
    K: ContinuumSpec
    R: float

    @property
    def holds(self) -> bool:
        return self.verdict == "Holds"


def basis_norm(K: ContinuumSpec, n: int, up_to: int | None = None) -> float:
    """sup over K of |F_n|; the index-0 norm is 1.

    1 + |rho|^n where K.rho is known, the sup of |w^n + rho^n w^-n| on
    |w| = 1 (2 on segments, 1 on discs); otherwise sampled on the
    boundary like sup_norm and kept on K in one list of norms, which a
    miss extends to max(n, up_to) in one batched sample-and-refine pass.
    """
    if n == 0:
        return 1.0
    if K.rho is not None:
        return 1.0 + abs(K.rho) ** n
    norms = K._memo.setdefault("norms", [1.0])
    if n >= len(norms):
        polys = faber_polys(K, max(n, up_to or 0))[len(norms):]
        C = np.zeros((polys[-1].n + 1, len(polys)), dtype=complex)
        for i, p in enumerate(polys):
            C[: p.n + 1, i] = p.coeffs
        norms += _row_sups(K._boundary, _poly_rows(C), len(polys),
                           DEFAULT_SAMPLES).tolist()
    return norms[n]


def bohr_sum(f: FaberSeries) -> BohrReport:
    """Bohr sum of f over its continuum K = f.K, term by term.

    The norm of each basis polynomial is taken over K itself, not over
    the validity region; this is what makes the sum comparable to 1.
    """
    K = f.K
    terms = np.array([abs(a) * basis_norm(K, n, up_to=f.N)
                      for n, a in enumerate(f.coeffs)])
    total = float(np.sum(terms))
    if not math.isfinite(total):
        raise DomainError(f"Bohr sum {total} is not finite")
    return BohrReport(sum=total, terms=terms,
                      verdict="Holds" if total < 1.0 else "Violated",
                      K=K, R=f.R)


# ---------------------------------------------------------------------------
# the segment sufficient radius

def _majorant_block(q: float, n0: int) -> list:
    """The terms 4 q^n/(1 - q^2n) of phi_of_R for n = n0, ..., n0 + 255."""
    return [4.0 * t / (1.0 - t * t)
            for t in [q ** n for n in range(n0, n0 + 256)]]


def _majorant_bound(q: float) -> float:
    """An upper bound on the float sum of every term 4 q^n/(1 - q^2n) =
    2/sinh(L n), L = -log q: the first block plus the integral
    (2/L) log(1 + 2/expm1(256.5 L)) of 2/sinh(L x) from 256.5 on, which
    bounds the rest since each term is convex in n and so at most its
    mean over [n - 1/2, n + 1/2].  It is raised by 1e-8 of itself, far
    more than the rounding of the float terms (under 2e-10 of each at
    q < 1/(1 + 1e-6)) and of their sums."""
    L = -math.log(q)
    bound = (math.fsum(_majorant_block(q, 1))
             + 2.0 / L * math.log1p(2.0 / math.expm1(256.5 * L)))
    return bound * (1.0 + 1e-8)


def phi_of_R(R: float) -> float:
    """sum over n >= 1 of 4/(R^n - R^-n), the segment Bohr-sum majorant.

    Strictly decreasing from +inf (at R -> 1) to 0.  The terms are taken
    as 4 q^n/(1 - q^2n) with q = 1/R, which underflow to 0 where R^n
    would overflow, in blocks of 256 added up by math.fsum; summation
    stops after the first block whose last term is below 1e-15 of the
    partial sum, and NonConvergent is raised when no block before
    n = 10^7 does; at once where the last term it reaches, n = 10^7 +
    128, is at least 1e-15 of the upper bound _majorant_bound on the sum.
    Plain floats, so the segment level needs no numpy.
    """
    R = float(R)
    _check_level(R, "phi_of_R needs R > 1 + 1e-6", 1.0 + 1e-6)
    q = 1.0 / R
    t = q ** (10 ** 7 + 128)
    if not t or 4.0 * t / (1.0 - t * t) < 1e-15 * _majorant_bound(q):
        total = 0.0
        for n0 in range(1, 10 ** 7 + 1, 256):
            block = _majorant_block(q, n0)
            total = math.fsum([total, *block])
            if block[-1] < 1e-15 * total:
                return total
    raise NonConvergent("phi series did not settle; R too close to 1")


@dataclass(frozen=True)
class BohrRadiusResult:
    """Root of phi_of_R = 1 with its level-curve eccentricity.

    Iterable as (radius, eccentricity) for tuple-style unpacking.
    """

    radius: float
    eccentricity: float
    iterations: int
    bracket: tuple
    tol: float

    def __iter__(self):
        yield self.radius
        yield self.eccentricity


def segment_bohr_radius(tol: float = 1e-6,
                        bracket: tuple = (1.01, 64.0)) -> BohrRadiusResult:
    """Bisection solve of phi_of_R(R) = 1 on the given bracket.

    phi is strictly decreasing, so the root is unique; the returned
    radius is the sufficient Bohr level for the segment and the second
    component is the eccentricity of the corresponding level ellipse.
    """
    if not (math.isfinite(tol) and tol >= 1e-10):
        raise DomainError(f"tol must be finite and at least 1e-10; got {tol!r}")
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (phi_of_R(lo) > 1.0 > phi_of_R(hi)):
        raise DomainError(f"bracket {bracket} does not straddle the root")
    iterations = 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if phi_of_R(mid) > 1.0:
            lo = mid
        else:
            hi = mid
        iterations += 1
    root = 0.5 * (lo + hi)
    return BohrRadiusResult(radius=root, eccentricity=eccentricity(root),
                            iterations=iterations, bracket=(bracket[0], bracket[1]),
                            tol=tol)


# ---------------------------------------------------------------------------
# coefficient inequalities on the segment annulus

def coeff_bound_check(f: FaberSeries, mode: str = "bohr") -> list:
    """Per-coefficient margins against the classical annulus bounds at
    the level R = f.R.

    mode "bohr": functions bounded by 1 in modulus; after rotating so
    the constant term is nonnegative, |a_n| <= 2(1 - a_0)/(R^n - R^-n).
    mode "caratheodory": functions of positive real part; |a_n| <=
    2 re(a_0)/(R^n - R^-n), no rotation.

    Returns one row per index n >= 1, the tuple (n, |a_n|, bound,
    margin) with margin = bound - |a_n|.  Preconditions are checked by
    boundary sampling at 512 angles unless the series carries a
    generator certificate (cert_sup), which takes precedence for the
    modulus condition.
    """
    if f.K.kind != "segment":
        raise WrongKind("coefficient bounds are stated for segment continua")
    mode = mode.lower()
    if mode not in ("bohr", "caratheodory"):
        raise DomainError(f"unknown mode {mode!r}")
    R = f.R
    _check_level(R, "level parameter R must exceed 1")
    _check_bound_pre(f, mode)

    if mode == "bohr":
        a0 = abs(f.coeffs[0])
        numer = 2.0 * (1.0 - a0)
    else:
        a0 = f.coeffs[0].real
        numer = 2.0 * a0

    rows = []
    for n in range(1, f.N + 1):
        denom = R ** n - R ** (-n)
        bound = numer / denom
        coeff = abs(f.coeffs[n])
        rows.append((n, coeff, bound, bound - coeff))
    return rows


def _check_bound_pre(f: FaberSeries, mode: str):
    if mode == "bohr" and f.cert_sup is not None:
        if not f.cert_sup < 1.0:
            raise PreconditionViolated(
                f"certified sup {f.cert_sup} is not below 1", value=f.cert_sup)
        return
    w = _circle(f.R, 512)
    vals = f.eval_w(w)
    if mode == "bohr":
        j = int(np.argmax(np.abs(vals)))
        worst = float(np.abs(vals[j]))
        if not worst <= 1.0 + 1e-9:
            raise PreconditionViolated("sampled modulus exceeds 1",
                                       point=complex(psi(f.K, w[j])),
                                       value=worst)
    else:
        j = int(np.argmin(vals.real))
        worst = float(vals[j].real)
        if not worst >= -1e-9:
            raise PreconditionViolated("sampled real part dips below 0",
                                       point=complex(psi(f.K, w[j])),
                                       value=worst)


# ---------------------------------------------------------------------------
# exact change of basis for polynomials

def to_faber_basis(K: ContinuumSpec, coeffs) -> np.ndarray:
    """Faber coefficients of a polynomial given by monomial coefficients.

    Leading-coefficient elimination against the exact Faber data; the
    conversion is exact (the input floats are taken at face value), so
    the returned series represents the same polynomial, not an
    approximation of it.  In Gaussian ints, work_k = (x_k + i y_k)/W and
    F_n = f/D_n with real leading numerator L_n > 0: with a = x_n + i y_n,
    a_n = a D_n/(W L_n) is rounded once, then W <- W L_n and the
    numerators become work_k L_n - a f_k.  A coefficient beyond double
    range raises DomainError naming its index.
    """
    work = [_dyadic(complex(c))
            for c in np.atleast_1d(np.asarray(coeffs, dtype=complex))]
    W = math.lcm(*(d for _, _, d in work))
    work = [(x * (W // d), y * (W // d)) for x, y, d in work]
    while len(work) > 1 and work[-1] == (0, 0):
        work.pop()
    d = len(work) - 1
    polys = faber_polys(K, d)
    out = [0j] * (d + 1)
    for n in range(d, 0, -1):
        D, fr, fi = polys[n].ints
        L, (ar, ai) = fr[n], work.pop()
        W *= L
        out[n] = _rounded(ar * D, ai * D, W, "Faber coefficient %d", n)
        work = [(x * L - ar * u + ai * v, y * L - ar * v - ai * u)
                for (x, y), u, v in zip(work, fr, fi)]
    [(x, y)] = work
    out[0] = _rounded(x, y, W, "Faber coefficient %d", 0)
    return np.array(out)


# ---------------------------------------------------------------------------
# bounded-function families

@dataclass(frozen=True)
class BoundedFamily:
    """Recipe for a deterministic family of certified bounded functions.

    kind "scaled_poly": random polynomials scaled by (1+margin) times
    their boundary sup.  kind "moebius": disc automorphisms u ->
    (a-u)/(1-a*u) composed with an inner function; a is random in
    (0.05, 0.95) with a scaled-polynomial inner function, or swept over
    a fixed grid with the canonical inner function of the level region
    when sweep = (lo, hi) is set.  kind "faber_series": random Faber
    coefficients with geometric decay rho^n/R^n.

    Every generated member is scaled so its certified boundary sup is
    at most 1 - margin/2.
    """

    kind: str = "moebius"
    seed: int = 0
    count: int = 24
    margin: float = 0.01
    sweep: tuple | None = None
    degree: ClassVar[int] = 8
    rho: ClassVar[float] = 0.9
    n_coeffs: ClassVar[int] = 24
    samples: ClassVar[int] = 512


def _poly_rows(C):
    """Row values for _row_sups: the polynomial in column i of C."""
    return lambda z, i: _polyval(C[:, i], z)


def _draw_polys(rng, family: BoundedFamily) -> np.ndarray:
    """family.count random complex polynomials, one per column, in rng order."""
    d = family.degree + 1
    draws = [rng.standard_normal(d) + 1j * rng.standard_normal(d)
             for _ in range(family.count)]
    return np.array(draws, dtype=complex).reshape(family.count, d).T


def _series_sups(K: ContinuumSpec, R: float, coeffs: list) -> list:
    """Sampled and refined sups on |w| = R of Faber series with these coeffs.

    One pullback serves every series at each sample grid and golden
    stage.  Each series keeps its own a[ns] @ pullback product over its
    nonzero indices ns, as FaberSeries.eval_w does, so its values are
    those of eval_w to the bit.
    """
    terms = [(a[ns], ns) for a, ns in zip(coeffs, map(np.flatnonzero, coeffs))]
    top = max(map(len, coeffs), default=1)

    def values(P, i):
        if np.ndim(i) == 0:
            a, ns = terms[i]
            return a @ P[ns]
        return np.array([(a @ P[ns, j:j + 1])[0]
                         for j, (a, ns) in zip(i, terms)])

    return _row_sups(lambda t: K.pullback(np.arange(top), R * np.exp(1j * t)),
                     values, len(terms), _CERT_SAMPLES).tolist()


def _certified(K: ContinuumSpec, R: float, coeffs: list, sups: list,
               labels: list) -> list:
    """Faber series with these coeffs, their sups on |w| = R as certificates."""
    out = []
    for a, cert, label in zip(coeffs, sups, labels):
        if not cert < 1.0:
            raise CertificationFailed(
                f"{label}: certified sup {cert} is not below 1")
        out.append(FaberSeries(K=K, R=float(R), coeffs=a, cert_sup=cert,
                               label=label))
    return out


def gen_bounded(K: ContinuumSpec, R: float, family: BoundedFamily) -> list:
    """Deterministic family of Faber series certified bounded on the level.

    Certificates describe the generating function; for the moebius kind
    the returned coefficients are its first n_coeffs+1 Faber
    coefficients, so Bohr sums computed from them under-estimate the
    generator's full sum and any violation they exhibit is genuine.

    The family is built in phases: every member's random data is drawn
    first, then the sups of all members are sampled and refined together
    (the inner polynomials of moebius, the polynomials and then the
    series of scaled_poly, the series of faber_series).  The random
    generator is made only by the families that draw, so a moebius sweep
    does not load numpy.random.
    """
    _check_level(R, "level parameter R must exceed 1")
    if not 0.0 < family.margin < 1.0:
        raise DomainError("family margin must lie in (0, 1)")
    if family.count < 0:
        raise DomainError("family count must be nonnegative")
    target = 1.0 - family.margin / 2.0
    count = family.count

    def level_sups(values):
        with np.errstate(over="ignore", invalid="ignore"):
            sups = _row_sups(lambda t: psi(K, R * np.exp(1j * t)), values,
                             count, _CERT_SAMPLES)
        if not np.isfinite(sups).all():
            raise DomainError(f"{family.kind} members leave double range on "
                              f"the level R={R:g}", param="R")
        return sups

    if family.kind == "moebius":
        if family.sweep is not None:
            lo, hi = family.sweep
            if not (0.0 < lo < 1.0 and 0.0 < hi < 1.0):
                raise DomainError(f"moebius sweep must lie in (0, 1); "
                                  f"got {family.sweep}")
            a = np.linspace(lo, hi, count)
            # the natural degree-1 map of the level region into the unit disc
            c, s = K.level_disc(R, _CERT_SAMPLES)

            def inner(z, i):
                return (z - c) / s
        else:
            rng = np.random.default_rng(family.seed)
            a = 0.05 + 0.90 * rng.random(count)
            poly = _poly_rows(_draw_polys(rng, family))
            den = (1.0 + family.margin) * level_sups(poly)

            def inner(z, i):
                return poly(z, i) / den[i]

        def fn(z, i):
            u = inner(z, i)
            return (a[i] - u) / (1.0 - a[i] * u)

        # members scaled to a sup of at most target, their coefficients
        # read on the circle r_ext = sqrt(R), which goes through psi once;
        # they are cut at n_coeffs by design, so AliasingRisk is moot here
        sups = level_sups(fn).tolist()
        m = max(family.samples, 4 * family.n_coeffs)
        r_ext = math.sqrt(R)
        z_ext = psi(K, _circle(r_ext, m))
        coeffs, certs = [], []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AliasingRisk)
            for i, sup in enumerate(sups):
                factor = 1.0 if sup <= target else target / sup
                series = faber_coeffs(fn(z_ext, i), K, r_ext, family.n_coeffs)
                coeffs.append(series.coeffs * factor)
                certs.append(sup * factor)
        return _certified(K, R, coeffs, certs, [
            f"moebius[{i}] a={float(ai):.6g}" for i, ai in enumerate(a)])

    if family.kind == "scaled_poly":
        C = _draw_polys(np.random.default_rng(family.seed), family)
        C = C / ((1.0 + family.margin) * level_sups(_poly_rows(C)))
        coeffs = [to_faber_basis(K, c) for c in C.T]
        return _certified(K, R, coeffs, _series_sups(K, R, coeffs),
                          [f"scaled_poly[{i}]" for i in range(count)])

    if family.kind == "faber_series":
        c = target * (1.0 - family.rho) / 2.0
        decay = np.power(family.rho, np.arange(family.n_coeffs + 1))
        scale = np.power(float(R), -np.arange(family.n_coeffs + 1))
        rng = np.random.default_rng(family.seed)
        coeffs = []
        for _ in range(count):
            mags = rng.random(family.n_coeffs + 1)
            phases = np.exp(2j * np.pi * rng.random(family.n_coeffs + 1))
            coeffs.append(c * mags * phases * decay * scale)
        return _certified(K, R, coeffs, _series_sups(K, R, coeffs),
                          [f"faber_series[{i}]" for i in range(count)])

    raise DomainError(f"unknown family kind {family.kind!r}")


# ---------------------------------------------------------------------------
# campaigns

@dataclass(frozen=True, eq=False)
class CampaignReport:
    """Outcome of a Bohr-sum sweep over one generated family.

    sums are the members' Bohr sums; violations are the (index, member)
    pairs whose sum is not below 1.  One disproves the sum-below-1
    property at this level; none is evidence only (evidence_only).
    """

    K: ContinuumSpec
    R: float
    family: BoundedFamily
    count: int
    sums: tuple
    min_slack: float | None
    violations: tuple
    evidence_only: ClassVar[bool] = True

    @property
    def verdict(self) -> str:
        return "violation-found" if self.violations else "no-violation-found"


def bohr_verify(K: ContinuumSpec, R: float,
                family: BoundedFamily) -> CampaignReport:
    """Bohr sums over a generated family, collecting any violations."""
    members = gen_bounded(K, R, family)
    sums = tuple(bohr_sum(f).sum for f in members)
    violations = tuple((i, f) for i, f in enumerate(members)
                       if not sums[i] < 1.0)
    min_slack = (1.0 - max(sums)) if sums else None
    return CampaignReport(K=K, R=float(R), family=family, count=len(members),
                          sums=sums, min_slack=min_slack,
                          violations=violations)
