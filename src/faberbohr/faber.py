"""Faber polynomials and Faber coefficient series.

The n-th Faber polynomial of a continuum is the polynomial part of the
n-th power of its exterior map; the remainder (the principal part) is
what the polynomial misses, and it vanishes at infinity.  Two
independent routes are implemented and kept separate on purpose:

* the exact route, one construction per kind, each yielding Gaussian-int
  numerators over one denominator: the Chebyshev recurrence on segments
  (F_n = 2 T_n of the affine variable), the binomial form on discs and
  powers of the map tail on custom continua; faber_polys memoises one
  family per continuum, faber_poly reads F_n from it, and exact
  evaluation is Horner's rule in Gaussian ints, rounded once,
* the contour route, a Cauchy-type integral over a level curve
  normalised by 1/(2 pi i), evaluated with the periodic trapezoid rule.

Coefficient extraction with respect to the Faber basis is a discrete
Fourier transform on a circle |w| = r of the target coordinate.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, mul, sub

import numpy as np

from .continua import (
    ContinuumSpec,
    _check_contour,
    _check_level,
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
from .series import QC, _dyadic, _gauss_horner, _gauss_ints

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
    gamma**n.  ints holds the same coefficients exactly, as the triple
    (D, re, im): c_k = (re[k] + i im[k])/D with Python-int numerators,
    which is what makes stable evaluation on segments possible at
    degrees where the monomial form is hopeless in doubles.
    """

    n: int
    coeffs: np.ndarray
    gamma_n: complex
    ints: tuple = field(repr=False)
    _cheb: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def exact(self) -> tuple:
        """The coefficients as QC Gaussian rationals, derived from ints on
        each access; nothing is stored."""
        D, re, im = self.ints
        return tuple(QC(Fraction(x, D), Fraction(y, D)) for x, y in zip(re, im))

    def __call__(self, z):
        return np.polynomial.polynomial.polyval(np.asarray(z, dtype=complex),
                                                self.coeffs)

    def eval_exact(self, z) -> complex:
        """F_n(z) computed exactly and rounded once to the nearest doubles.

        z = (X + iY)/d exactly, d a power of two; Horner's rule runs on
        the integer numerators, and the value (ar + i ai)/(D d^n) is
        rounded by int/int true division, so it equals the correctly
        rounded value of the exact Gaussian rational.  A non-finite z
        raises DomainError and a value beyond double range OverflowError.
        """
        ar, ai, den = _gauss_horner(*self.ints, *_dyadic(complex(z)))
        return complex(ar / den, ai / den)

    def cheb_floats(self, a: float, b: float) -> np.ndarray:
        """Chebyshev-basis coefficients of self on [a, b], computed exactly.

        With z = mid + half x, Horner's rule runs in the Chebyshev basis
        of x: out <- (mid + half x) out + c_k, where x T_0 = T_1 and
        x T_i = (T_{i+1} + T_{i-1})/2.  mid and half are real, so the
        real and imaginary parts go through it apart, in Fractions, and
        each result is rounded once.
        """
        key = (float(a), float(b))
        if key not in self._cheb:
            a, b = Fraction(a), Fraction(b)
            mid, half = (a + b) / 2, (b - a) / 2
            parts = []
            for cs in zip(*((c.re, c.im) for c in self.exact)):
                out = [cs[-1]]
                for c in reversed(cs[:-1]):
                    nxt = [mid * t for t in out] + [0]
                    nxt[0] += c
                    nxt[1] += half * out[0]
                    for i in range(1, len(out)):
                        h = half * out[i] / 2
                        nxt[i - 1] += h
                        nxt[i + 1] += h
                    out = nxt
                parts.append(out)
            self._cheb[key] = np.array([complex(float(x), float(y))
                                        for x, y in zip(*parts)])
        return self._cheb[key]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "gamma": [self.gamma_n.real, self.gamma_n.imag],
            "coeffs": [[c.real, c.imag] for c in self.coeffs],
        }


# ---------------------------------------------------------------------------
# construction

def _make_poly(ints) -> FaberPoly:
    """FaberPoly from an exact (D, re, im) triple, ascending; the leading
    coefficient is gamma^n.  Each double is one int/int true division."""
    D, re, im = ints
    try:
        arr = np.array([complex(x / D, y / D) for x, y in zip(re, im)],
                       dtype=complex)
    except OverflowError:
        raise DomainError(f"coefficients of F_{len(re) - 1} overflow double "
                          "precision") from None
    return FaberPoly(n=len(re) - 1, coeffs=arr, gamma_n=complex(arr[-1]),
                     ints=ints)


def faber_polys(K: ContinuumSpec, N: int):
    """Faber polynomials F_0, ..., F_N of K, exact, from one memoised family.

    The family comes from the exact construction of K's kind
    (faber_exact): the Chebyshev recurrence on segments, the binomial
    form on discs and powers of the map tail on custom continua, all in
    Gaussian ints.  Each member keeps its coefficients as integer
    numerators over one denominator (ints), which eval_exact runs on.
    Members are converted to doubles as they are built, so a family
    whose F_n overflows fails at F_n.  The longest family built so far
    is kept on K; a longer request builds only the new members on
    segments and discs, while custom maps rebuild the whole family,
    since their tail truncation depends on N.
    """
    if N < 0:
        raise DomainError("N must be nonnegative")
    fam = K._memo.get("faber", ())
    if len(fam) <= N:
        fam += tuple(map(_make_poly,
                         K.faber_exact(N, tuple(p.ints for p in fam))))
        K._memo["faber"] = fam
    return fam[: N + 1]


def faber_poly(K: ContinuumSpec, n: int) -> FaberPoly:
    """F_n of K, the n-th member of the family memoised by faber_polys."""
    if n < 0:
        raise DomainError("n must be nonnegative")
    return faber_polys(K, n)[n]


# ---------------------------------------------------------------------------
# contour route

_GUARD_BITS = 8


def _nodes(K: ContinuumSpec, r: float, m: int):
    """(w, psi(w), psi'(w) w) at w_j = r omega^j, memoised on K."""
    key = ("nodes", float(r), int(m))
    if key not in K._memo:
        w = r * np.exp(1j * (2.0 * np.pi * np.arange(m) / m))
        K._memo[key] = (w, psi(K, w), psi_prime(K, w) * w)
    return K._memo[key]


def _fixed(values, shift: int):
    """Real and imaginary parts of mpc values times 2**shift, as two lists
    of Python ints (rounded down)."""
    from mpmath import mpc
    from mpmath.libmp import to_fixed

    parts = [mpc(v)._mpc_ for v in values]
    return ([to_fixed(re, shift) for re, _ in parts],
            [to_fixed(im, shift) for _, im in parts])


def _fixed_nodes(K: ContinuumSpec, r: float, m: int, dps: int):
    """Fixed-point data of the high-precision route, under mp.workdps(dps).

    Returns P, the roots of unity omega^j at 2**P, the centre c of K's
    kind and the exponent e of the node set, and, at 2**P in the
    coordinate (t - c)/2^e, the nodes psi(w_j) and the weights
    psi'(w_j) w_j.  mp_nodes gives the nodes relative to c, so no digit
    is lost to the distance of K from 0; a point z is moved by c once.
    The roots are kept on K under ("roots", m, dps), shared by the
    levels; the rest under ("fixed nodes", r, m, dps).
    """
    from mpmath import mp

    P = mp.prec + int(m).bit_length() + _GUARD_BITS
    memo = K._memo
    roots, key = ("roots", int(m), dps), ("fixed nodes", float(r), int(m), dps)
    if key not in memo:
        omega = mp.unitroots(m)
        ws = [mp.mpf(repr(float(r))) * o for o in omega]
        c, ts, dpsi = K.mp_nodes(ws)   # custom maps raise before any store
        e = max(mp.mag(t) for t in ts)
        memo.setdefault(roots, _fixed(omega, P))
        memo[key] = (c, e, _fixed(ts, P - e),
                     _fixed([d * w for d, w in zip(dpsi, ws)], P - e))
    return (P, memo[roots]) + memo[key]


def contour_values(K: ContinuumSpec, ns, zs, r: float, m: int = 1024,
                   dps: int | None = None) -> np.ndarray:
    """Trapezoid Cauchy integrals of phi^n/(t - z) over {|phi| = r}.

    Returns the matrix V[i, j] for n = ns[i], z = zs[j], normalised by
    1/(2 pi i).  For points inside the level curve this is the Faber
    polynomial value.  The optional dps switches to a high-precision
    route, needed when r**n overwhelms double-precision summation.  It
    works in mpmath's precision for dps decimal digits, prec bits, and
    holds every quantity as an exact Python int in fixed point at 2**P,
    P = prec + bits(m) + 8 guard bits.  The nodes are taken relative to
    the centre c of K's kind and scaled by 2^-e to size about 1; the
    Cauchy weight dw/(t - z) does not change under this affine map, and
    z - c is formed once in mpmath, so the accuracy does not depend on
    where K lies or how large it is.  Nodes and roots of unity are
    converted once and memoised on K per (r, m, dps).  With
    w_j^n = r^n omega^(jn mod m), each z costs m integer complex
    divisions and each n three integer dot products, rounded once to
    mpmath.  Custom maps have no high-precision route and raise
    FaberBohrError.
    """
    _check_contour(r, m)
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
        P, (wr, wi), c, e, (tr, ti), (dr, di) = _fixed_nodes(K, r, m, dps)
        rows = {}
        for k in {n % m for n in ns}:
            x = [wr[j * k % m] for j in range(m)]
            y = [wi[j * k % m] for j in range(m)]
            rows[k] = (x, y, list(map(add, x, y)))
        rr = mp.mpf(repr(float(r)))
        scales = [mp.ldexp(rr ** n / m, -2 * P) for n in ns]
        for jz, z in enumerate(zs):
            (zr,), (zi,) = _fixed([mpc(z) - c], P - e)
            u, v = [], []   # B_j = dw_j/(t_j - z) = u_j + i v_j at 2**P
            for a, b, t_re, t_im in zip(dr, di, tr, ti):
                er, ei = t_re - zr, t_im - zi
                den = er * er + ei * ei
                u.append(((a * er + b * ei) << P) // den)
                v.append(((b * er - a * ei) << P) // den)
            # sum of (x + iy)(u + iv) in three products: k1 = (x + y)u,
            # re = k1 - y(u + v), im = k1 + x(v - u)
            upv, vmu = list(map(add, u, v)), list(map(sub, v, u))
            sums = {}
            for k, (x, y, xpy) in rows.items():
                k1 = sum(map(mul, xpy, u))
                sums[k] = (k1 - sum(map(mul, y, upv)),
                           k1 + sum(map(mul, x, vmu)))
            for i, n in enumerate(ns):
                out[i, jz] = complex(mpc(*sums[n % m]) * scales[i])
    return out


def faber_contour(K: ContinuumSpec, n: int, z, r: float, m: int = 1024,
                  dps: int | None = None) -> complex:
    """Faber polynomial value by the normalised Cauchy integral.

    Valid for z strictly inside the level curve {|phi| = r} (points of K
    included).  The result does not depend on the choice of r as long as
    z stays inside, which is one of the cross-checks the tests enforce.
    """
    _check_contour(r, m)
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
    _check_contour(r, m)
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
    _check_level(r, "extraction radius must exceed 1")
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
    The point z = psi(w) = mid + quarter (w + 1/w) is the Gaussian
    rational Z/dz and F_n(z) = A/(D dz^n) comes from the integer
    kernel.  With w = (X + iY)/d and s = X^2 + Y^2, U = (X + iY)^n gives
    w^n + w^-n = (U s^n + d^2n conj(U))/(d^n s^n).  The difference and
    its squared modulus are integers over one denominator, rounded once.
    """
    if K.kind != "segment":
        raise WrongKind("the target-coordinate identity is a segment fact")
    if n < 1:
        raise DomainError("the identity is stated for n >= 1")
    wq = QC.of(complex(w))
    mid = QC((Fraction(K.a) + Fraction(K.b)) / 2)
    quarter = QC((Fraction(K.b) - Fraction(K.a)) / 4)
    dz, (zr,), (zi,) = _gauss_ints([mid + quarter * (wq + wq.inverse())])
    ar, ai, da = _gauss_horner(*faber_poly(K, n).ints, zr, zi, dz)
    d, (x,), (y,) = _gauss_ints([wq])
    ur, ui = 1, 0
    for _ in range(n):
        ur, ui = ur * x - ui * y, ur * y + ui * x
    sn, d2n = (x * x + y * y) ** n, d ** (2 * n)
    dv = d ** n * sn
    nr = ar * dv - ur * (sn + d2n) * da
    ni = ai * dv - ui * (sn - d2n) * da
    return ((nr * nr + ni * ni) / (da * dv) ** 2) ** 0.5


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
