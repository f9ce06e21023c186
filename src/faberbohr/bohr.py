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

from ._lazy import np
from .continua import (
    DEFAULT_SAMPLES,
    ContinuumSpec,
    _check_level,
    _row_sups,
    _sample_refine,
    eccentricity,
    psi,
)
from .errors import (
    CertificationFailed,
    DomainError,
    NonConvergent,
    PreconditionViolated,
    WrongKind,
)
from .faber import FaberSeries, faber_coeffs, faber_polys
from .series import _dyadic

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
    if not math.isfinite(total):
        raise DomainError(f"Bohr sum {total} is not finite")
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
    _check_level(R, "phi_of_R needs R > 1 + 1e-6", 1.0 + 1e-6)
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
    _check_level(R, "level parameter R must exceed 1")

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
        if not f.cert_sup < 1.0:
            raise PreconditionViolated(
                f"certified sup {f.cert_sup} is not below 1", value=f.cert_sup)
        return
    th = 2.0 * np.pi * np.arange(samples) / samples
    w = R * np.exp(1j * th)
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
    numerators become work_k L_n - a f_k.
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
        out[n] = complex(ar * D / W, ai * D / W)
        work = [(x * L - ar * u + ai * v, y * L - ar * v - ai * u)
                for (x, y), u, v in zip(work, fr, fi)]
    [(x, y)] = work
    out[0] = complex(x / W, y / W)
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


def _poly_rows(C):
    """Row values for _row_sups: the polynomial in column i of C."""
    return lambda z, i: np.polynomial.polynomial.polyval(z, C[:, i],
                                                         tensor=False)


def _draw_polys(rng, family: BoundedFamily) -> np.ndarray:
    """family.count random complex polynomials, one per column, in rng order."""
    d = family.degree + 1
    draws = [rng.standard_normal(d) + 1j * rng.standard_normal(d)
             for _ in range(family.count)]
    return np.array(draws, dtype=complex).reshape(family.count, d).T


def _extract_members(fn, sups, K: ContinuumSpec, R: float,
                     family: BoundedFamily, target: float, labels: list) -> list:
    """Faber coefficients of each fn row with a certified boundary sup <= target.

    fn(z, i) is member i at the points z (see _row_sups) and sups holds
    the members' sampled sups on the level curve; the extraction circle
    goes through psi once for the family.
    """
    m = max(family.samples, 4 * family.n_coeffs)
    r_ext = math.sqrt(R)
    z_ext = psi(K, r_ext * np.exp(2j * np.pi * np.arange(m) / m))
    out = []
    for i, (label, s_raw) in enumerate(zip(labels, sups.tolist())):
        factor = 1.0 if s_raw <= target else target / s_raw
        series = faber_coeffs(fn(z_ext, i), K, r_ext, family.n_coeffs)
        cert = s_raw * factor
        if not cert < 1.0:
            raise CertificationFailed(
                f"{label}: certified sup {cert} is not below 1")
        out.append(FaberSeries(K=K, R=float(R), coeffs=series.coeffs * factor,
                               cert_sup=cert, label=label))
    return out


def _series_sups(K: ContinuumSpec, R: float, coeffs: list) -> np.ndarray:
    """Sampled and refined sups on |w| = R of Faber series with these coeffs.

    One pullback serves every series at each sample grid and golden
    stage.  Each series keeps its own a[ns] @ pullback product over its
    nonzero indices ns, as FaberSeries.eval_w does, so its values are
    those of eval_w to the bit.
    """
    terms = [(a[ns], ns) for a, ns in zip(coeffs, map(np.flatnonzero, coeffs))]
    top = max(map(len, coeffs), default=1)

    def pull(t):
        return K.pullback(np.arange(top), R * np.exp(1j * t))

    def rows(th):
        P = pull(th)
        return (np.abs(a @ P[ns]) for a, ns in terms)

    def stage(t):
        P = pull(t)
        return np.abs([(a @ P[ns, i:i + 1])[0]
                       for i, (a, ns) in enumerate(terms)])

    return _sample_refine(rows, stage, _CERT_SAMPLES, 1.0)


def _certified(K: ContinuumSpec, R: float, coeffs: list, name: str) -> list:
    """Faber series with these coeffs, their sups on |w| = R as certificates."""
    out = []
    for i, (a, cert) in enumerate(zip(coeffs,
                                      _series_sups(K, R, coeffs).tolist())):
        if not cert < 1.0:
            raise CertificationFailed(
                f"{name}[{i}]: certified sup {cert} is not below 1")
        out.append(FaberSeries(K=K, R=float(R), coeffs=a, cert_sup=cert,
                               label=f"{name}[{i}]"))
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
    series of scaled_poly, the series of faber_series).
    """
    _check_level(R, "level parameter R must exceed 1")
    if not 0.0 < family.margin < 1.0:
        raise DomainError("family margin must lie in (0, 1)")
    if family.count < 0:
        raise DomainError("family count must be nonnegative")
    rng = np.random.default_rng(family.seed)
    target = 1.0 - family.margin / 2.0
    count = family.count

    def level_sups(values):
        return _row_sups(lambda t: psi(K, R * np.exp(1j * t)), values, count,
                         _CERT_SAMPLES)

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
            a = 0.05 + 0.90 * rng.random(count)
            poly = _poly_rows(_draw_polys(rng, family))
            den = (1.0 + family.margin) * level_sups(poly)

            def inner(z, i):
                return poly(z, i) / den[i]

        def fn(z, i):
            u = inner(z, i)
            return (a[i] - u) / (1.0 - a[i] * u)

        labels = [f"moebius[{i}] a={float(ai):.6g}" for i, ai in enumerate(a)]
        return _extract_members(fn, level_sups(fn), K, R, family, target,
                                labels)

    if family.kind == "scaled_poly":
        C = _draw_polys(rng, family)
        C = C / ((1.0 + family.margin) * level_sups(_poly_rows(C)))
        return _certified(K, R, [to_faber_basis(K, c) for c in C.T],
                          "scaled_poly")

    if family.kind == "faber_series":
        c = target * (1.0 - family.rho) / 2.0
        decay = np.power(family.rho, np.arange(family.n_coeffs + 1))
        scale = np.power(float(R), -np.arange(family.n_coeffs + 1))
        coeffs = []
        for _ in range(count):
            mags = rng.random(family.n_coeffs + 1)
            phases = np.exp(2j * np.pi * rng.random(family.n_coeffs + 1))
            coeffs.append(c * mags * phases * decay * scale)
        return _certified(K, R, coeffs, "faber_series")

    raise DomainError(f"unknown family kind {family.kind!r}")


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
