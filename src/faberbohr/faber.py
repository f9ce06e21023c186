"""Faber polynomials and Faber coefficient series.

The n-th Faber polynomial of a continuum is the polynomial part of the
n-th power of its exterior map; the remainder (the principal part) is
what the polynomial misses, and it vanishes at infinity.  Two
independent routes are implemented and kept separate on purpose:

* the exact route in Gaussian-int numerators over one denominator:
  one generating-function recurrence on the exact psi of segments and
  discs, powers of phi on custom continua; faber_polys memoises one
  family per continuum, faber_poly reads F_n from it, and exact
  evaluation is Horner's rule in Gaussian ints, rounded once,
* the contour route, a Cauchy-type integral over a level curve
  normalised by 1/(2 pi i), evaluated with the periodic trapezoid rule
  in float64 or, given dps, in Python-int fixed point, its sums formed
  by one float64 GEMM on limbs that is exact (_limb_product).

Coefficient extraction with respect to the Faber basis is a discrete
Fourier transform on a circle |w| = r of the target coordinate.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

from ._lazy import np
from .continua import (
    ContinuumSpec,
    _check_contour,
    _check_level,
    _check_points,
    contains,
    green,
    phi,
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
from .series import _dyadic, _gauss_horner

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

    doubles is ascending (c_0, ..., c_n) as Python complex values, and
    coeffs the same values as an array, built on first use; the leading
    coefficient equals gamma**n.  ints holds the same coefficients
    exactly, as the triple (D, re, im): c_k = (re[k] + i im[k])/D with
    Python-int numerators, which is what makes stable evaluation on
    segments possible at degrees where the monomial form is hopeless in
    doubles.
    """

    n: int
    doubles: tuple
    gamma_n: complex
    ints: tuple = field(repr=False)
    _cheb: dict = field(default_factory=dict, repr=False, compare=False)

    @functools.cached_property
    def coeffs(self) -> np.ndarray:
        return np.array(self.doubles, dtype=complex)

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
        x T_i = (T_{i+1} + T_{i-1})/2.  With a = A/S and b = B/S, mid and
        half are M/s and H/s, s = 2S/g the power of two with
        g = gcd(A + B, B - A, 2S), so each step multiplies the common
        denominator by 2s: the real and imaginary numerators of ints go
        through it apart as Python ints over D (2s)^n, with no gcd, and
        each result is rounded once by int/int true division.
        """
        key = (float(a), float(b))
        if key not in self._cheb:
            D, re, im = self.ints
            A, B, S = _dyadic(complex(*key))
            g = math.gcd(A + B, B - A, 2 * S)
            M2, H, s = 2 * (A + B) // g, (B - A) // g, 2 * S // g
            step = s.bit_length()   # 2s = 2**step
            parts = []
            for cs in (re, im):
                out = [cs[-1]]
                for e, c in enumerate(reversed(cs[:-1]), 1):
                    low = [2 * out[0]] + out[1:]
                    out = [M2 * x + H * (y + t) for x, y, t in
                           zip(out + [0], out[1:] + [0, 0], [0] + low)]
                    out[0] += c << e * step
                parts.append(out)
            den = D << self.n * step
            self._cheb[key] = np.array([complex(x / den, y / den)
                                        for x, y in zip(*parts)])
        return self._cheb[key]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "gamma": [self.gamma_n.real, self.gamma_n.imag],
            "coeffs": [[c.real, c.imag] for c in self.doubles],
        }


# ---------------------------------------------------------------------------
# construction

def _make_poly(ints) -> FaberPoly:
    """FaberPoly from an exact (D, re, im) triple, ascending; the leading
    coefficient is gamma^n.  Each double is one int/int true division."""
    D, re, im = ints
    try:
        cs = tuple([complex(x / D, y / D) for x, y in zip(re, im)])
    except OverflowError:
        raise DomainError(f"coefficients of F_{len(re) - 1} overflow double "
                          "precision") from None
    return FaberPoly(n=len(re) - 1, doubles=cs, gamma_n=cs[-1], ints=ints)


def faber_polys(K: ContinuumSpec, N: int):
    """Faber polynomials F_0, ..., F_N of K, exact, from one memoised family.

    The family comes from K.faber_exact, in Gaussian ints: one
    generating-function recurrence on the exact psi_map of segments and
    discs, powers of the map tail of phi on custom continua.  Each member
    keeps its coefficients as integer numerators over one denominator
    (ints), which eval_exact runs on.
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
# float64 entries (128 KiB) per gathered block of _root_sums rows; one
# block for all degrees raised the peak memory of a session by ~0.8 MB
_BLOCK = 1 << 14


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
    return ([int(to_fixed(re, shift)) for re, _ in parts],
            [int(to_fixed(im, shift)) for _, im in parts])


def _limb_width(n: int) -> int:
    """Bits w per limb for an exact n-term product of limbs: every
    partial sum is an integer below n (2^w - 1)^2 < 2^53 in magnitude,
    which float64 holds exactly in whatever order a GEMM adds."""
    return 16 if n <= 1 << 21 else 8


def _limbs(vals, w: int) -> np.ndarray:
    """w-bit limbs of Python ints, least significant first.

    Row i is the two's complement of vals[i] in L limbs, L enough for
    the widest value and its sign, as float64 of shape (len(vals), L):
    every limb in [0, 2^w) but the last, which is signed.  So each limb
    is below 2^w in magnitude and vals[i] = sum_a row[a] 2^(w a).
    """
    nb = w // 8
    L = max(map(int.bit_length, vals), default=0) // w + 1
    raw = b"".join([v.to_bytes(L * nb, "little", signed=True) for v in vals])
    out = np.frombuffer(raw, dtype=f"<u{nb}").reshape(-1, L).astype(float)
    out[:, -1] = np.frombuffer(raw, dtype=f"<i{nb}").reshape(-1, L)[:, -1]
    return out


def _limb_product(blocks, B: np.ndarray, w: int) -> list:
    """Exact integer matrix product of two matrices held in w-bit limbs.

    The left matrix comes as an iterable of row blocks, each with
    A[a, i, j] limb a of entry (i, j), so that only one block need
    exist at a time; B[j, b, k] is limb b of entry (j, k) of the right
    one.  With w at most _limb_width of the inner size, one float64
    GEMM per block forms every sum G[a, b, i, k] over j exactly.  Entry
    (i, k) is the sum of G 2^(w (a + b)).  Each G is split as
    lo + hi 2^w, lo in [0, 2^w), before the int64 sums along the
    diagonals a + b: they stay below 2^(54 - w) times the limb count,
    so they cannot overflow at any precision that fits in memory.  A
    carry pass then leaves every diagonal but the last in [0, 2^w), the
    little-endian digits of the low part, and the last, signed, is the
    high part.  Returns the entries in row-major order, as Python ints.
    """
    n, lb, C = B.shape
    B2 = B.reshape(n, lb * C)
    G = np.concatenate([(A.reshape(-1, n) @ B2).reshape(len(A), -1, lb, C)
                        for A in blocks], axis=1)
    la, R = G.shape[:2]
    G = G.astype(np.int64).transpose(0, 2, 1, 3)
    mask, S = (1 << w) - 1, la + lb
    lo, hi = G & mask, G >> w
    D = np.zeros((S, R * C), dtype=np.int64)
    Dv = D.reshape(S, R, C)
    for a in range(la):
        Dv[a:a + lb] += lo[a]
        Dv[a + 1:a + lb + 1] += hi[a]
    for s in range(S - 1):
        carry = D[s] >> w
        D[s] &= mask
        D[s + 1] += carry
    nb, top = w // 8, w * (S - 1)
    step = nb * (S - 1)
    low = np.ascontiguousarray(D[:-1].T).astype(f"<u{nb}").tobytes()
    return [int.from_bytes(low[i * step:(i + 1) * step], "little") + (t << top)
            for i, t in enumerate(D[-1].tolist())]


@functools.lru_cache(maxsize=8)
def _unit_roots(m: int, prec: int) -> tuple:
    """The roots of unity omega^j, j < m, at prec bits: as mpc, and at
    2**P, P = prec + bits(m) + 8 guard bits, as an array of shape
    (L, m, 2) holding limb a of the real and imaginary parts of omega^j,
    _limb_width(2 m) bits each.  Computed once per (m, prec) and shared
    by every continuum and level; at most 8 pairs are kept."""
    from mpmath import mp

    with mp.workprec(prec):
        omega = mp.unitroots(m)
    wr, wi = _fixed(omega, prec + m.bit_length() + _GUARD_BITS)
    roots = np.ascontiguousarray(
        _limbs(wr + wi, _limb_width(2 * m)).reshape(2, m, -1).T)
    roots.flags.writeable = False   # one array for every caller
    return tuple(omega), roots


def _fixed_nodes(K: ContinuumSpec, r: float, m: int, dps: int):
    """Fixed-point data of the high-precision route, under mp.workdps(dps).

    Returns P, the limb array of the roots of unity at 2**P (from
    _unit_roots, which holds them apart from K), the centre c of K's
    kind and the exponent e of the node set, and, at 2**P in the
    coordinate (t - c)/2^e, the nodes psi(w_j) and the weights
    psi'(w_j) w_j as pairs of object arrays of Python ints.  mp_nodes
    gives the nodes relative to c, so no digit is lost to the distance
    of K from 0; a point z is moved by c once.  All but P and the roots
    are kept on K under ("fixed nodes", r, m, dps).
    """
    from mpmath import mp

    m = int(m)
    P = mp.prec + m.bit_length() + _GUARD_BITS
    omega, roots = _unit_roots(m, mp.prec)
    key = ("fixed nodes", float(r), m, dps)
    if key not in K._memo:
        ws = [mp.mpf(repr(float(r))) * o for o in omega]
        c, ts, dpsi = K.mp_nodes(ws)   # custom maps raise before any store
        e = max(mp.mag(t) for t in ts)
        K._memo[key] = (c, e) + tuple(
            tuple(np.array(x, dtype=object) for x in _fixed(v, P - e))
            for v in (ts, [d * w for d, w in zip(dpsi, ws)]))
    return (P, roots) + K._memo[key]


def _on_node(z, r, m) -> DomainError:
    return DomainError(f"z={z} lies on a node of the contour at r={r}, m={m}")


def contour_values(K: ContinuumSpec, ns, zs, r: float, m: int = 1024,
                   dps: int | None = None) -> np.ndarray:
    """Trapezoid Cauchy integrals of phi^n/(t - z) over {|phi| = r}.

    Returns the matrix V[i, j] for n = ns[i], z = zs[j], normalised by
    1/(2 pi i).  For points inside the level curve this is the Faber
    polynomial value.  The degrees and m must be integers, the points
    finite and off the nodes, or DomainError is raised.  This is the
    plain trapezoid sum: from n = m on it adds r^m F_(n-m) to F_n, and
    only faber_contour and faber_remainder refuse such degrees.

    On the float route a sum that leaves double range (r**n does from
    n = 1024 at r = 2) raises DomainError.  The optional dps switches to
    a high-precision route, needed when r**n overwhelms double-precision
    summation.  It works in mpmath's precision for dps decimal digits,
    prec bits, and holds every quantity as an exact Python int in fixed
    point at 2**P, P = prec + bits(m) + 8 guard bits.  The nodes are
    taken relative to the centre c of K's kind and scaled by 2^-e to
    size about 1; the Cauchy weight dw/(t - z) does not change under
    this affine map, and z - c is formed once in mpmath, so the accuracy
    does not depend on where K lies or how large it is.  The nodes are
    converted once and memoised on K per (r, m, dps); the roots of unity
    once per (m, prec) for all continua (_unit_roots).  B_j(z) =
    dw_j/(t_j - z) is formed for every point and node at once, as
    Python-int floor divisions on numpy object arrays of shape (Z, m).
    With w_j^n = r^n omega^(jn mod m), every degree needs the
    Gaussian-int sums S_k(z) = sum_j omega^(jk) B_j(z), k = n mod m,
    and all of them come from an exact float64 matrix product, one GEMM
    per block of degrees: the ints are split into signed 16-bit limbs,
    so every partial sum of the 2m-term limb products is an integer
    below 2m 2^32 <= 2^53 (8-bit limbs above m = 2^20), and the limb
    products are recombined into Python ints (_limb_product).  Each
    S_k(z) r^n/m is then rounded to prec bits and to doubles by the
    libmp calls that complex(mpc(x, y) * scale) makes, on tuples, with
    no mpc object per value.  Custom maps have no high-precision route
    and raise FaberBohrError.
    """
    ns = list(ns)
    _check_contour(r, m, dps, ns)
    zs = _check_points(zs)
    if dps is not None:
        return _contour_mp(K, ns, zs, r, m, dps)
    w, t, dw = _nodes(K, r, m)
    diff = t[:, None] - zs[None, :]
    hit = np.flatnonzero(~diff.all(axis=0))
    if len(hit):
        raise _on_node(zs[hit[0]], r, m)
    B = dw[:, None] / diff
    with np.errstate(over="ignore", invalid="ignore"):
        P = w[None, :] ** np.asarray(ns, dtype=float)[:, None]
        V = (P @ B) / m
    if not np.isfinite(V).all():
        raise DomainError(f"the float contour route overflows double at "
                          f"r={r}, n={max(ns)}; use the high-precision "
                          f"route (dps=...)")
    return V


def _root_sums(roots: np.ndarray, ks, U: list, V: list, w: int) -> dict:
    """{k: [(re, im) per z]}, the Gaussian ints sum_j omega^(jk) B_j(z).

    roots is the (L, m, 2) limb array of _fixed_nodes, and U, V hold the
    real and imaginary parts of B_j(z), z-major.  The left matrix has a
    row per k, omega^(jk mod m) gathered by an index array, with the
    real part x_j and imaginary part y_j side by side along j; the right
    matrix has the columns (u_j, -v_j) and (v_j, u_j) per z.  One exact
    product then gives re = xu - yv and im = xv + yu for every k and z.
    The rows are gathered in blocks of about _BLOCK entries.
    """
    la, m = roots.shape[:2]
    Z = len(U) // m
    u, v = _limbs(U + V, w).reshape(2, Z, m, -1).transpose(0, 2, 3, 1)
    lb = u.shape[1]
    B = np.empty((m, 2, lb, Z, 2))
    B[:, 0, ..., 0], B[:, 0, ..., 1] = u, v
    B[:, 1, ..., 0], B[:, 1, ..., 1] = -v, u
    B = B.reshape(2 * m, lb, 2 * Z)
    ks = np.asarray(ks, dtype=np.int64)
    jk = ks[:, None] * np.arange(m)   # taken mod m by mode="wrap"
    step = max(1, _BLOCK // (la * 2 * m))
    flat = _limb_product(
        (roots.take(jk[i:i + step], axis=1, mode="wrap").reshape(la, -1, 2 * m)
         for i in range(0, len(ks), step)), B, w)
    sums = {}
    for j, k in enumerate(ks.tolist()):
        row = flat[2 * Z * j:2 * Z * (j + 1)]
        sums[k] = list(zip(row[::2], row[1::2]))
    return sums


def _contour_mp(K: ContinuumSpec, ns, zs, r, m, dps) -> np.ndarray:
    from mpmath import mp, mpc
    from mpmath.libmp import from_int, mpf_mul, to_float

    out = np.zeros((len(ns), len(zs)), dtype=complex)
    with mp.workdps(dps):
        P, roots, c, e, (tr, ti), (dr, di) = _fixed_nodes(K, r, m, dps)
        # B_j(z) = dw_j/(t_j - z) = u_j + i v_j at 2**P, a row per z
        zr, zi = (np.array(x, dtype=object)[:, None]
                  for x in _fixed([mpc(z) - c for z in zs], P - e))
        er, ei = tr - zr, ti - zi
        den = er * er + ei * ei
        hit = np.flatnonzero((den == 0).any(axis=1))
        if len(hit):
            raise _on_node(zs[hit[0]], r, m)
        if not (ns and len(zs)):
            return out
        U = ((dr * er + di * ei) << P) // den
        V = ((di * er - dr * ei) << P) // den
        sums = _root_sums(roots, sorted({n % m for n in ns}),
                          U.ravel().tolist(), V.ravel().tolist(),
                          _limb_width(2 * m))
        # S_k(z) r^n/m, rounded as complex(mpc(x, y) * scale) rounds it
        prec, rnd = mp._prec_rounding
        rr = mp.mpf(repr(float(r)))
        for i, n in enumerate(ns):
            sc = mp.ldexp(rr ** n / m, -2 * P)._mpf_
            out[i] = [complex(
                to_float(mpf_mul(from_int(x, prec, rnd), sc, prec, rnd),
                         False, rnd),
                to_float(mpf_mul(from_int(y, prec, rnd), sc, prec, rnd),
                         False, rnd)) for x, y in sums[n % m]]
    return out


def _check_faber_call(n, z, r, m, dps) -> complex:
    """The checks shared by faber_contour and faber_remainder; returns z
    as a complex.  From n = m on, the trapezoid sum over m nodes adds
    r^m F_(n-m) to the value, so such a degree raises DomainError."""
    _check_contour(r, m, dps, [n])
    if n < 0:
        raise DomainError("n must be nonnegative")
    if n >= m:
        raise DomainError(f"degree n={n} aliases on m={m} contour nodes "
                          "(the sum adds r^m F_(n-m)); use m > n")
    z = complex(z)
    _check_points(z)
    return z


def faber_contour(K: ContinuumSpec, n: int, z, r: float, m: int = 1024,
                  dps: int | None = None) -> complex:
    """Faber polynomial value by the normalised Cauchy integral.

    Valid for z strictly inside the level curve {|phi| = r} (points of K
    included).  The result does not depend on the choice of r as long as
    z stays inside, which is one of the cross-checks the tests enforce.
    n must be below m, or the sum aliases (DomainError).
    """
    z = _check_faber_call(n, z, r, m, dps)
    if not contains(K, z):
        if green(K, z) >= np.log(r) - _LEVEL_SLACK:
            raise PointOutsideLevel(
                f"z={z} is not inside the level curve at r={r}")
    return complex(contour_values(K, [n], [z], r, m=m, dps=dps)[0, 0])


def faber_remainder(K: ContinuumSpec, n: int, z, r: float, m: int = 1024,
                    dps: int | None = None) -> complex:
    """Remainder phi^n - F_n at a point outside the level curve.

    Same gates as faber_contour.  Where K.rho is known it is
    -(rho/phi(z))^n, 0 at n = 0, with no contour; otherwise the contour
    integral of faber_contour, its sign flipped for exterior points.
    """
    z = _check_faber_call(n, z, r, m, dps)
    if contains(K, z) or green(K, z) <= np.log(r) + _LEVEL_SLACK:
        raise PointInsideLevel(
            f"z={z} is not outside the level curve at r={r}")
    if K.rho is None:
        return -complex(contour_values(K, [n], [z], r, m=m, dps=dps)[0, 0])
    return -(K.rho / phi(K, z)) ** n if n and K.rho else 0j


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

        Each basis term is the pullback F_n(psi(w)) of the continuum,
        w^n + rho^n w^-n where rho is known (ContinuumSpec.pullback).
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
    With w = (X + iY)/d, s = X^2 + Y^2, 1/w = d (X - iY)/s and psi_map
    (C w + B_0 + C/w)/E, the point z = psi(w) is a Gaussian int over
    dz = E d s, reduced by one gcd, and F_n(z) comes from the integer
    kernel over D dz^n.  With U = (X + iY)^n,
    w^n + w^-n = (U s^n + d^2n conj(U))/(d^n s^n).  The
    difference and its squared modulus are integers over one
    denominator, rounded once.
    """
    if K.kind != "segment":
        raise WrongKind("the target-coordinate identity is a segment fact")
    if n < 1:
        raise DomainError("the identity is stated for n >= 1")
    x, y, d = _dyadic(complex(w))
    if not (x or y):
        raise DomainError("the identity is stated for w != 0")
    E, (C, B0, _), _ = K.psi_map.ints
    s, d2 = x * x + y * y, d * d
    zr = B0 * d * s + C * x * (s + d2)
    zi, dz = C * y * (s - d2), E * d * s
    g = math.gcd(zr, zi, dz)
    ar, ai, da = _gauss_horner(*faber_poly(K, n).ints, zr // g, zi // g,
                               dz // g)
    ur, ui = 1, 0
    for _ in range(n):
        ur, ui = ur * x - ui * y, ur * y + ui * x
    sn, d2n = s ** n, d2 ** n
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
