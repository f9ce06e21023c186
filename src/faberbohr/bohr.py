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
from dataclasses import dataclass

import numpy as np

from .continua import (
    ContinuumSpec,
    _sample_refine,
    eccentricity,
    psi,
    sup_norm,
)
from .errors import (
    CertificationFailed,
    DomainError,
    NonConvergent,
    PreconditionViolated,
    WrongKind,
)
from .faber import FaberSeries, faber_coeffs, faber_polys
from .series import QC

__all__ = [
    "KAPTANOGLU_SADIK_RADIUS",
    "KAPTANOGLU_SADIK_ECCENTRICITY",
    "BohrReport",
    "BohrRadiusResult",
    "BoundedFamily",
    "CampaignReport",
    "basis_norm",
    "bohr_sum",
    "phi_of_R",
    "segment_bohr_radius",
    "coeff_bound_check",
    "to_faber_basis",
    "gen_bounded",
    "bohr_verify",
]

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
    slack: float
    verdict: str
    K: ContinuumSpec
    R: float

    @property
    def holds(self) -> bool:
        return self.verdict == "Holds"


def basis_norm(K: ContinuumSpec, n: int, up_to: int | None = None) -> float:
    """sup over K of |F_n|; the index-0 norm is 1.

    Exact where the kind has a closed form (2 on segments, 1 on discs);
    otherwise sampled and kept on K in one list of norms, which a miss
    extends to max(n, up_to) in one pass.
    """
    if n == 0:
        return 1.0
    if K.faber_sup is not None:
        return K.faber_sup
    norms = K._memo.setdefault("norms", [1.0])
    if n >= len(norms):
        polys = faber_polys(K, max(n, up_to or 0))
        norms += [float(sup_norm(p, K)) for p in polys[len(norms):]]
    return norms[n]


def bohr_sum(f: FaberSeries, K: ContinuumSpec | None = None) -> BohrReport:
    """Bohr sum of f over K, term by term.

    The norm of each basis polynomial is taken over K itself, not over
    the validity region; this is what makes the sum comparable to 1.
    """
    if K is None:
        K = f.K
    if K != f.K:
        raise DomainError("series was built for a different continuum")
    terms = np.array([abs(a) * basis_norm(K, n, up_to=f.N)
                      for n, a in enumerate(f.coeffs)])
    total = float(np.sum(terms))
    return BohrReport(sum=total, terms=terms, slack=1.0 - total,
                      verdict="Holds" if total < 1.0 else "Violated",
                      K=K, R=f.R)


# ---------------------------------------------------------------------------
# the segment sufficient radius

def phi_of_R(R: float) -> float:
    """sum over n >= 1 of 4/(R^n - R^-n), the segment Bohr-sum majorant.

    Strictly decreasing from +inf (at R -> 1) to 0; summation stops when
    a term drops below 1e-15 of the partial sum.
    """
    R = float(R)
    if not R > 1.0 + 1e-6:
        raise DomainError("phi_of_R needs R > 1 + 1e-6")
    total = 0.0
    n0 = 1
    with np.errstate(over="ignore"):
        while True:
            ns = np.arange(n0, n0 + 256, dtype=float)
            pos = np.power(R, ns)
            terms = 4.0 / (pos - 1.0 / pos)
            total += float(np.sum(terms))
            if terms[-1] < 1e-15 * total:
                return total
            n0 += 256
            if n0 > 10 ** 7:
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

def coeff_bound_check(f: FaberSeries, R: float | None = None,
                      mode: str = "bohr", check_pre: bool = True,
                      samples: int = 512) -> list:
    """Per-coefficient margins against the classical annulus bounds.

    mode "bohr": functions bounded by 1 in modulus; after rotating so
    the constant term is nonnegative, |a_n| <= 2(1 - a_0)/(R^n - R^-n).
    mode "caratheodory": functions of positive real part; |a_n| <=
    2 re(a_0)/(R^n - R^-n), no rotation.

    Returns one row per index n >= 1: {"n", "coeff", "bound", "margin"}
    with margin = bound - |a_n|.  Preconditions are checked by boundary
    sampling unless the series carries a generator certificate
    (cert_sup), which takes precedence for the modulus condition.
    """
    if f.K.kind != "segment":
        raise WrongKind("coefficient bounds are stated for segment continua")
    mode = mode.lower()
    if mode not in ("bohr", "caratheodory"):
        raise DomainError(f"unknown mode {mode!r}")
    if R is None:
        R = f.R
    if not R > 1.0:
        raise DomainError("level parameter R must exceed 1")

    if check_pre:
        _check_bound_pre(f, R, mode, samples)

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
        rows.append({"n": n, "coeff": coeff, "bound": bound,
                     "margin": bound - coeff})
    return rows


def _check_bound_pre(f: FaberSeries, R: float, mode: str, samples: int):
    if mode == "bohr" and f.cert_sup is not None:
        if f.cert_sup >= 1.0:
            raise PreconditionViolated(
                f"certified sup {f.cert_sup} is not below 1", value=f.cert_sup)
        return
    th = 2.0 * np.pi * np.arange(samples) / samples
    w = R * np.exp(1j * th)
    vals = f.eval_w(w)
    if mode == "bohr":
        j = int(np.argmax(np.abs(vals)))
        worst = float(np.abs(vals[j]))
        if worst > 1.0 + 1e-9:
            raise PreconditionViolated("sampled modulus exceeds 1",
                                       point=complex(psi(f.K, w[j])),
                                       value=worst)
    else:
        j = int(np.argmin(vals.real))
        worst = float(vals[j].real)
        if worst < -1e-9:
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
    approximation of it.
    """
    work = [QC.of(complex(c)) for c in np.atleast_1d(np.asarray(coeffs,
                                                                dtype=complex))]
    while len(work) > 1 and work[-1].is_zero():
        work.pop()
    d = len(work) - 1
    polys = faber_polys(K, d)
    out = [QC(0)] * (d + 1)
    for n in range(d, 0, -1):
        fe = polys[n].exact
        a_n = work[n] / fe[-1]
        out[n] = a_n
        for k in range(n + 1):
            work[k] = work[k] - a_n * fe[k]
        work.pop()
    out[0] = work[0]
    return np.array([c.to_complex() for c in out])


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
    degree: int = 8
    rho: float = 0.9
    n_coeffs: int = 24
    sweep: tuple | None = None
    samples: int = 512

    def describe(self) -> dict:
        return {
            "kind": self.kind, "seed": self.seed, "count": self.count,
            "margin": self.margin, "degree": self.degree, "rho": self.rho,
            "n_coeffs": self.n_coeffs,
            "sweep": list(self.sweep) if self.sweep is not None else None,
            "samples": self.samples,
        }


def _fn_sup(fn, K: ContinuumSpec, R: float, m: int = _CERT_SAMPLES) -> float:
    """Sampled sup of |fn| on the level curve, with one refinement pass."""
    return _sample_refine(
        lambda t: np.abs(fn(psi(K, R * np.exp(1j * t)))), m, 1.0)


def _series_sup(series: FaberSeries, R: float, m: int = _CERT_SAMPLES) -> float:
    return _sample_refine(
        lambda t: np.abs(series.eval_w(R * np.exp(1j * t))), m, 1.0)


def _poly_values(coeffs):
    return lambda z: np.polynomial.polynomial.polyval(
        np.asarray(z, dtype=complex), coeffs)


def _extract_member(fn, K: ContinuumSpec, R: float, family: BoundedFamily,
                    target: float, label: str) -> FaberSeries:
    """Faber coefficients of fn with a certified boundary sup <= target."""
    m = max(family.samples, 4 * family.n_coeffs)
    r_ext = math.sqrt(R)
    w = r_ext * np.exp(2j * np.pi * np.arange(m) / m)
    samples = np.atleast_1d(fn(psi(K, w)))
    s_raw = _fn_sup(fn, K, R)
    factor = 1.0 if s_raw <= target else target / s_raw
    series = faber_coeffs(samples, K, r_ext, family.n_coeffs)
    cert = s_raw * factor
    if cert >= 1.0:
        raise CertificationFailed(
            f"{label}: certified sup {cert} is not below 1")
    return FaberSeries(K=K, R=float(R), coeffs=series.coeffs * factor,
                       cert_sup=cert, label=label)


def gen_bounded(K: ContinuumSpec, R: float, family: BoundedFamily) -> list:
    """Deterministic family of Faber series certified bounded on the level.

    Certificates describe the generating function; for the moebius kind
    the returned coefficients are its first n_coeffs+1 Faber
    coefficients, so Bohr sums computed from them under-estimate the
    generator's full sum and any violation they exhibit is genuine.
    """
    if not R > 1.0:
        raise DomainError("level parameter R must exceed 1")
    if not 0.0 < family.margin < 1.0:
        raise DomainError("family margin must lie in (0, 1)")
    if family.count < 0:
        raise DomainError("family count must be nonnegative")
    rng = np.random.default_rng(family.seed)
    target = 1.0 - family.margin / 2.0
    out = []

    if family.kind == "moebius":
        if family.sweep is not None:
            lo, hi = family.sweep
            if not (0.0 < lo < 1.0 and 0.0 < hi < 1.0):
                raise DomainError(f"moebius sweep must lie in (0, 1); "
                                  f"got {family.sweep}")
            a_values = np.linspace(lo, hi, family.count)
            # the natural degree-1 map of the level region into the unit disc
            c, s = K.level_disc(R, _CERT_SAMPLES)
        else:
            a_values = 0.05 + 0.90 * rng.random(family.count)
        for i, a in enumerate(a_values):
            a = float(a)
            if family.sweep is not None:
                inner = lambda z: (z - c) / s
            else:
                coeffs = (rng.standard_normal(family.degree + 1)
                          + 1j * rng.standard_normal(family.degree + 1))
                p = _poly_values(coeffs)
                den = (1.0 + family.margin) * _fn_sup(p, K, R)
                inner = lambda z, p=p, den=den: p(z) / den

            def fn(z, a=a, inner=inner):
                u = inner(z)
                return (a - u) / (1.0 - a * u)

            out.append(_extract_member(fn, K, R, family, target,
                                       label=f"moebius[{i}] a={a:.6g}"))

    elif family.kind == "scaled_poly":
        for i in range(family.count):
            coeffs = (rng.standard_normal(family.degree + 1)
                      + 1j * rng.standard_normal(family.degree + 1))
            s = _fn_sup(_poly_values(coeffs), K, R)
            scaled = coeffs / ((1.0 + family.margin) * s)
            fab = to_faber_basis(K, scaled)
            member = FaberSeries(K=K, R=float(R), coeffs=fab)
            cert = _series_sup(member, R)
            if cert >= 1.0:
                raise CertificationFailed(
                    f"scaled_poly[{i}]: certified sup {cert} is not below 1")
            out.append(FaberSeries(K=K, R=float(R), coeffs=fab, cert_sup=cert,
                                   label=f"scaled_poly[{i}]"))

    elif family.kind == "faber_series":
        c = target * (1.0 - family.rho) / 2.0
        decay = np.power(family.rho, np.arange(family.n_coeffs + 1))
        scale = np.power(float(R), -np.arange(family.n_coeffs + 1))
        for i in range(family.count):
            mags = rng.random(family.n_coeffs + 1)
            phases = np.exp(2j * np.pi * rng.random(family.n_coeffs + 1))
            a = c * mags * phases * decay * scale
            member = FaberSeries(K=K, R=float(R), coeffs=a)
            cert = _series_sup(member, R)
            if cert >= 1.0:
                raise CertificationFailed(
                    f"faber_series[{i}]: certified sup {cert} is not below 1")
            out.append(FaberSeries(K=K, R=float(R), coeffs=a, cert_sup=cert,
                                   label=f"faber_series[{i}]"))

    else:
        raise DomainError(f"unknown family kind {family.kind!r}")

    return out


# ---------------------------------------------------------------------------
# campaigns

@dataclass(frozen=True, eq=False)
class CampaignReport:
    """Outcome of a Bohr-sum sweep over one generated family.

    A listed violation disproves the sum-below-1 property at this level;
    an empty list is evidence only, which is what evidence_only records.
    """

    K: ContinuumSpec
    R: float
    family: BoundedFamily
    count: int
    sums: tuple
    min_slack: float | None
    violations: tuple
    evidence_only: bool = True

    @property
    def verdict(self) -> str:
        return "violation-found" if self.violations else "no-violation-found"

    def to_json_dict(self) -> dict:
        return {
            "schema": "faberbohr/1",
            "continuum": self.K.describe(),
            "R": self.R,
            "family": self.family.describe(),
            "count": self.count,
            "min_slack": self.min_slack,
            "max_sum": max(self.sums) if self.sums else None,
            "verdict": self.verdict,
            "evidence_only": self.evidence_only,
            "violations": list(self.violations),
        }


def bohr_verify(K: ContinuumSpec, R: float,
                family: BoundedFamily) -> CampaignReport:
    """Bohr sums over a generated family, collecting any violations."""
    members = gen_bounded(K, R, family)
    sums = []
    violations = []
    for i, f in enumerate(members):
        rep = bohr_sum(f)
        sums.append(rep.sum)
        if not rep.holds:
            violations.append({
                "index": i,
                "sum": rep.sum,
                "label": f.label,
                "coeffs": [[c.real, c.imag] for c in f.coeffs],
            })
    min_slack = (1.0 - max(sums)) if sums else None
    return CampaignReport(K=K, R=float(R), family=family, count=len(members),
                          sums=tuple(sums), min_slack=min_slack,
                          violations=tuple(violations))
