"""Faber polynomials and Faber coefficient series.

The n-th Faber polynomial of a continuum is the polynomial part of the
n-th power of its exterior map; the remainder (the principal part) is
what the polynomial misses, and it vanishes at infinity.  Two
independent routes are implemented and kept separate on purpose:

* the exact route, one construction per kind in Gaussian-rational
  arithmetic: the Chebyshev recurrence on segments (F_n = 2 T_n of the
  affine variable), the binomial form on discs and powers of the map
  tail on custom continua; faber_polys memoises one family per
  continuum and faber_poly reads F_n from it,
* the contour route, a Cauchy-type integral over a level curve
  normalised by 1/(2 pi i), evaluated with the periodic trapezoid rule.

Coefficient extraction with respect to the Faber basis is a discrete
Fourier transform on a circle |w| = r of the target coordinate.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .continua import (
    ContinuumSpec,
    contains,
    green,
    psi,
    psi_prime,
)
from .errors import (
    AliasingRisk,
    DomainError,
    PointInsideK,
    PointInsideLevel,
    PointOutsideLevel,
    ReconstructionMismatch,
    WrongKind,
)
from .series import QC, _affine_compose_qc, qc_horner

__all__ = [
    "FaberPoly",
    "FaberSeries",
    "faber_polys",
    "faber_poly",
    "faber_contour",
    "faber_remainder",
    "contour_values",
    "faber_coeffs",
    "target_identity_check",
    "target_identity_residual",
    "norm_root",
]

_LEVEL_SLACK = 1e-12


@dataclass(frozen=True, eq=False)
class FaberPoly:
    """Monomial coefficients of one Faber polynomial, plus exact views.

    coeffs is ascending [c_0, ..., c_n]; the leading coefficient equals
    gamma**n.  exact holds the same coefficients as Gaussian rationals,
    which is what makes stable evaluation on segments possible at
    degrees where the monomial form is hopeless in doubles.
    """

    n: int
    coeffs: np.ndarray
    gamma_n: complex
    exact: tuple = field(repr=False)
    _cheb: dict = field(default_factory=dict, repr=False, compare=False)

    def __call__(self, z):
        return np.polynomial.polynomial.polyval(np.asarray(z, dtype=complex),
                                                self.coeffs)

    def eval_exact(self, z) -> complex:
        return qc_horner(self.exact, QC.of(complex(z))).to_complex()

    def cheb_floats(self, a: float, b: float) -> np.ndarray:
        """Chebyshev-basis coefficients of self on [a, b], computed exactly."""
        key = (float(a), float(b))
        if key not in self._cheb:
            half = Fraction(b) / 2 - Fraction(a) / 2
            mid = Fraction(a) / 2 + Fraction(b) / 2
            shifted = _affine_compose_qc(self.exact, QC(half), QC(mid))
            cheb = _cheb_from_monomial_qc(shifted)
            self._cheb[key] = np.array([c.to_complex() for c in cheb])
        return self._cheb[key]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "gamma": [self.gamma_n.real, self.gamma_n.imag],
            "coeffs": [[c.real, c.imag] for c in self.coeffs],
        }


# ---------------------------------------------------------------------------
# basis transforms

def _cheb_from_monomial_qc(coeffs):
    """Exact monomial-to-Chebyshev transform (Horner with x*T recurrences)."""
    half = QC(Fraction(1, 2))
    out = [coeffs[-1]]
    for c in reversed(coeffs[:-1]):
        nxt = [QC(0)] * (len(out) + 1)
        nxt[1] = nxt[1] + out[0]
        for i in range(1, len(out)):
            nxt[i + 1] = nxt[i + 1] + out[i] * half
            nxt[i - 1] = nxt[i - 1] + out[i] * half
        nxt[0] = nxt[0] + c
        out = nxt
    return tuple(out)


# ---------------------------------------------------------------------------
# construction

def _make_poly(exact_coeffs) -> FaberPoly:
    """FaberPoly from exact ascending coefficients; the leading one is gamma^n."""
    n = len(exact_coeffs) - 1
    try:
        arr = np.array([c.to_complex() for c in exact_coeffs], dtype=complex)
    except OverflowError:
        raise DomainError(f"coefficients of F_{n} overflow double "
                          "precision") from None
    return FaberPoly(n=n, coeffs=arr, gamma_n=complex(arr[-1]),
                     exact=tuple(exact_coeffs))


def faber_polys(K: ContinuumSpec, N: int):
    """Faber polynomials F_0, ..., F_N of K, exact, from one memoised family.

    The family comes from the exact construction of K's kind
    (faber_exact): the Chebyshev recurrence on segments, the binomial
    form on discs and powers of the map tail on custom continua.  The
    longest family built so far is kept on K; a longer request rebuilds
    it to N and keeps the polynomials already made.
    """
    if N < 0:
        raise DomainError("N must be nonnegative")
    fam = K._memo.get("faber", ())
    if len(fam) <= N:
        fam += tuple(_make_poly(p) for p in K.faber_exact(N)[len(fam):])
        K._memo["faber"] = fam
    return fam[: N + 1]


def faber_poly(K: ContinuumSpec, n: int) -> FaberPoly:
    """F_n of K, the n-th member of the family memoised by faber_polys."""
    if n < 0:
        raise DomainError("n must be nonnegative")
    return faber_polys(K, n)[n]


# ---------------------------------------------------------------------------
# contour route

def _nodes(K: ContinuumSpec, r: float, m: int, dps: int | None = None):
    """(w, psi(w), psi'(w) w) at w_j = r omega^j as numpy arrays; for a dps,
    mpmath lists built under workdps(dps), led by omega^j.  Both are kept
    on K: the nodes under ("nodes", r, m, dps), omega^j under (m, dps)."""
    memo, key = K._memo, ("nodes", float(r), int(m), dps)
    if key not in memo:
        if dps is None:
            w = r * np.exp(1j * (2.0 * np.pi * np.arange(m) / m))
            memo[key] = (w, psi(K, w), psi_prime(K, w) * w)
        else:
            from mpmath import mp

            omega = memo.get((m, dps)) or mp.unitroots(m)
            ws = [mp.mpf(repr(float(r))) * o for o in omega]
            ts, dpsi = K.mp_nodes(ws)   # custom maps raise before any store
            memo[(m, dps)] = omega
            memo[key] = (omega, ts, [d * w for d, w in zip(dpsi, ws)])
    return memo[key]


def contour_values(K: ContinuumSpec, ns, zs, r: float, m: int = 1024,
                   dps: int | None = None) -> np.ndarray:
    """Trapezoid Cauchy integrals of phi^n/(t - z) over {|phi| = r}.

    Returns the matrix V[i, j] for n = ns[i], z = zs[j], normalised by
    1/(2 pi i).  For points inside the level curve this is the Faber
    polynomial value; the optional dps switches to mpmath arithmetic,
    needed when r**n overwhelms double-precision summation.  The nodes
    are memoised on K per (r, m, dps).  With w_j^n = r^n omega^(jn mod m),
    each z costs one pass of m divisions and each n one mp.fdot of a
    row of roots of unity, rounded once.  Custom maps have no mpmath
    route and raise FaberBohrError.
    """
    ns = list(ns)
    zs = np.asarray(zs, dtype=complex).ravel()
    if dps is not None:
        return _contour_mp(K, ns, zs, r, m, dps)
    w, t, dw = _nodes(K, r, m)
    B = dw[:, None] / (t[:, None] - zs[None, :])
    P = w[None, :] ** np.asarray(ns, dtype=float)[:, None]
    return (P @ B) / m


def _contour_mp(K: ContinuumSpec, ns, zs, r, m, dps) -> np.ndarray:
    from mpmath import mp, mpc

    out = np.zeros((len(ns), len(zs)), dtype=complex)
    with mp.workdps(dps):
        omega, ts, dw = _nodes(K, r, m, dps)
        rr = mp.mpf(repr(float(r)))
        rows = [([omega[j * n % m] for j in range(m)], rr ** n / m) for n in ns]
        for jz, zq in enumerate(map(mpc, zs)):
            B = [d / (t - zq) for t, d in zip(ts, dw)]
            for i, (row, scale) in enumerate(rows):
                out[i, jz] = complex(mp.fdot(row, B) * scale)
    return out


def faber_contour(K: ContinuumSpec, n: int, z, r: float, m: int = 1024,
                  dps: int | None = None) -> complex:
    """Faber polynomial value by the normalised Cauchy integral.

    Valid for z strictly inside the level curve {|phi| = r} (points of K
    included).  The result does not depend on the choice of r as long as
    z stays inside, which is one of the cross-checks the tests enforce.
    """
    if n < 0:
        raise DomainError("n must be nonnegative")
    z = complex(z)
    if not contains(K, z):
        if green(K, z) >= np.log(r) - _LEVEL_SLACK:
            raise PointOutsideLevel(
                f"z={z} is not inside the level curve at r={r}")
    return complex(contour_values(K, [n], [z], r, m=m, dps=dps)[0, 0])


def faber_remainder(K: ContinuumSpec, n: int, z, r: float, m: int = 1024,
                    dps: int | None = None) -> complex:
    """Remainder phi^n - F_n at a point outside the level curve.

    Same integrand and normalisation as faber_contour; the orientation
    of the residue count flips the sign for exterior points.
    """
    if n < 0:
        raise DomainError("n must be nonnegative")
    z = complex(z)
    if contains(K, z) or green(K, z) <= np.log(r) + _LEVEL_SLACK:
        raise PointInsideLevel(
            f"z={z} is not outside the level curve at r={r}")
    return -complex(contour_values(K, [n], [z], r, m=m, dps=dps)[0, 0])


# ---------------------------------------------------------------------------
# coefficient series

@dataclass(frozen=True, eq=False)
class FaberSeries:
    """Finite Faber expansion a_0 + sum a_n F_n on the region {green < log R}.

    cert_sup, when present, is a sampled upper bound for |f| on the
    outer boundary, recorded by the generator that certified it.
    """

    K: ContinuumSpec
    R: float
    coeffs: np.ndarray
    cert_sup: float | None = None
    label: str = ""

    @property
    def N(self) -> int:
        return len(self.coeffs) - 1

    def eval_z(self, z):
        z = np.asarray(z, dtype=complex)
        polys = faber_polys(self.K, self.N)
        acc = np.zeros_like(z)
        for a_n, p in zip(self.coeffs, polys):
            if a_n != 0:
                acc = acc + a_n * p(z)
        return acc

    def eval_w(self, w):
        """Evaluate through the target coordinate w = phi(z).

        Each basis term is the pullback F_n(psi(w)) of the continuum's
        kind: w^n + w^-n on segments, w^n on discs.
        """
        w = np.asarray(w, dtype=complex)
        ns = np.flatnonzero(self.coeffs)
        if len(ns) == 0:
            return np.zeros_like(w)
        flat = self.coeffs[ns] @ self.K.pullback(ns, np.atleast_1d(w).ravel())
        return flat.reshape(w.shape)

    def scaled(self, factor: complex) -> "FaberSeries":
        cert = None if self.cert_sup is None else self.cert_sup * abs(factor)
        return FaberSeries(self.K, self.R, self.coeffs * factor, cert, self.label)

    def rotated_nonneg(self) -> "FaberSeries":
        """Multiply by a unimodular constant so the constant term is >= 0."""
        a0 = self.coeffs[0]
        if a0 == 0:
            return self
        return self.scaled(abs(a0) / a0)

    def to_json_dict(self) -> dict:
        return {
            "R": self.R,
            "coeffs": [[c.real, c.imag] for c in self.coeffs],
        }


def faber_coeffs(samples, K: ContinuumSpec, r: float, N: int,
                 fn=None, verify: bool = False) -> FaberSeries:
    """Faber coefficients from equispaced samples of f(psi(w)) on |w| = r.

    a_n is the n-th Fourier coefficient of the samples divided by r**n;
    the constant term needs no scaling.  N may not exceed a quarter of
    the sample count (anti-aliasing rule).  When verify is set, fn must
    be the sampled function itself and the reconstruction is checked at
    16 interior points.
    """
    samples = np.asarray(samples, dtype=complex)
    m = len(samples)
    if not r > 1.0:
        raise DomainError("extraction radius must exceed 1")
    if N < 0:
        raise DomainError("N must be nonnegative")
    if N > m // 4:
        raise DomainError(f"N={N} exceeds the anti-aliasing limit m/4={m // 4}")
    bins = np.fft.fft(samples) / m
    a = bins[: N + 1] * np.float_power(r, -np.arange(N + 1))
    if not np.all(np.isfinite(a)):
        raise DomainError("non-finite coefficients; check the samples")
    peak = float(np.max(np.abs(a)))
    if peak > 0 and abs(a[N]) > 1e-6 * peak:
        warnings.warn(
            f"last extracted coefficient a_{N} is {abs(a[N]):.3g} against a "
            f"peak of {peak:.3g}; increase the sample count or N",
            AliasingRisk, stacklevel=2)
    series = FaberSeries(K=K, R=float(r), coeffs=a)
    if verify:
        if fn is None:
            raise DomainError("verification requires the sampled function")
        rng = np.random.default_rng(0)
        radii = 1.0 + (min(r, 0.95 * r + 0.05) - 1.0) * rng.random(16)
        angles = 2.0 * np.pi * rng.random(16)
        zpts = psi(K, np.maximum(radii, 1.0 + 1e-6) * np.exp(1j * angles))
        rec = series.eval_z(zpts)
        ref = np.asarray([fn(z) for z in zpts], dtype=complex)
        err = float(np.max(np.abs(rec - ref)))
        if err > 1e-6:
            raise ReconstructionMismatch(
                f"reconstruction error {err:.3g} exceeds 1e-6")
    return series


# ---------------------------------------------------------------------------
# identities and norms

def target_identity_residual(K: ContinuumSpec, n: int, w) -> float:
    """|F_n(psi(w)) - (w^n + w^-n)| computed in exact arithmetic.

    Both sides grow like |w|**n, far past the absolute resolution of
    doubles, so the residual is assembled exactly and only then rounded.
    """
    if K.kind != "segment":
        raise WrongKind("the target-coordinate identity is a segment fact")
    if n < 1:
        raise DomainError("the identity is stated for n >= 1")
    wq = QC.of(complex(w))
    winv = wq.inverse()
    mid = QC((Fraction(K.a) + Fraction(K.b)) / 2)
    quarter = QC((Fraction(K.b) - Fraction(K.a)) / 4)
    zq = mid + quarter * (wq + winv)
    p = faber_poly(K, n)
    lhs = qc_horner(p.exact, zq)
    wn = QC(1)
    wninv = QC(1)
    for _ in range(n):
        wn = wn * wq
        wninv = wninv * winv
    diff = lhs - (wn + wninv)
    return float(diff.abs2()) ** 0.5


def target_identity_check(K: ContinuumSpec, n: int, w, tol: float = 1e-9) -> bool:
    return target_identity_residual(K, n, w) < tol


def norm_root(K: ContinuumSpec, L, n: int) -> float:
    """(max over L of |F_n|)**(1/n) for a finite point set L outside K."""
    if n < 1:
        raise DomainError("norm root needs n >= 1")
    pts = [complex(p) for p in np.atleast_1d(np.asarray(L, dtype=complex))]
    for p in pts:
        if contains(K, p):
            raise PointInsideK(f"norm root point {p} lies on K")
    poly = faber_poly(K, n)
    top = max(abs(poly.eval_exact(p)) for p in pts)
    return float(top) ** (1.0 / n)
