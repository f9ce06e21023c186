"""Faber polynomials and Faber coefficient series.

The n-th Faber polynomial of a continuum is the polynomial part of the
n-th power of its exterior map; the remainder (the principal part) is
what the polynomial misses, and it vanishes at infinity.  Two
independent routes are implemented and kept separate on purpose:

* the exact route in Gaussian-int numerators over one denominator:
  one generating-function recurrence on the exact psi of segments,
  discs and ellipses, powers of phi on custom continua; faber_polys memoises one
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
    _circle,
    _check_level,
    _check_points,
    _polyval,
    contains,
    green,
    phi,
    psi,
    psi_prime,
)
from .errors import (
    AliasingRisk,
    DomainError,
    FaberBohrError,
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
    ints: tuple = field(repr=False)

    @functools.cached_property
    def coeffs(self) -> np.ndarray:
        return np.array(self.doubles, dtype=complex)

    def __call__(self, z):
        return _polyval(self.coeffs, np.asarray(z, dtype=complex))

    def eval_exact(self, z) -> complex:
        """F_n(z) computed exactly and rounded once to the nearest doubles.

        z = (X + iY)/d exactly, d a power of two; Horner's rule runs on
        the integer numerators, and the value (ar + i ai)/(D d^n) is
        rounded by int/int true division, so it equals the correctly
        rounded value of the exact Gaussian rational.  A non-finite z or
        a value beyond double range raises DomainError.
        """
        ar, ai, den = _gauss_horner(*self.ints, *_dyadic(complex(z)))
        return _rounded(ar, ai, den, "F_%d at %s", self.n, z)

    def cheb_floats(self, a: float, b: float) -> np.ndarray:
        """Chebyshev-basis coefficients of self on [a, b], computed exactly.

        With z = mid + half x, Horner's rule runs in the Chebyshev basis
        of x: out <- (mid + half x) out + c_k, where x T_0 = T_1 and
        x T_i = (T_{i+1} + T_{i-1})/2.  With a = A/S and b = B/S, mid and
        half are M/s and H/s, s = 2S/g the power of two with
        g = gcd(A + B, B - A, 2S), so each step multiplies the common
        denominator by 2s: the real and imaginary numerators of ints go
        through it apart as Python ints over D (2s)^n, with no gcd, and
        each result is rounded once by int/int true division; one beyond
        double range raises DomainError.  Since T_j(+-1) = +-1,
        (n + 1) max |Re c_j| >= |Re p(+-1)|, and so for Im: p/(n + 1) at
        b and at a, exact and rounded first, refuses such a view before
        the O(n^2) pass.
        """
        D, re, im = self.ints
        what = "a Chebyshev coefficient of F_%d on [%s, %s]"
        for end in (b, a):
            x, y, den = _gauss_horner(D, re, im, *_dyadic(complex(float(end))))
            _rounded(x, y, den * (self.n + 1), what, self.n, a, b)
        A, B, S = _dyadic(complex(float(a), float(b)))
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
        return np.array([_rounded(x, y, den, what, self.n, a, b)
                         for x, y in zip(*parts)])


# ---------------------------------------------------------------------------
# construction

def _rounded(x: int, y: int, den: int, what: str, *args) -> complex:
    """(x + i y)/den rounded once by int/int true division; past double
    range DomainError naming what % args, chained from the OverflowError."""
    try:
        return complex(x / den, y / den)
    except OverflowError as exc:
        raise DomainError(f"{what % args} leaves double range") from exc


def _make_poly(ints) -> FaberPoly:
    """FaberPoly from an exact (D, re, im) triple, ascending; the leading
    coefficient is gamma^n.  Each double is one int/int true division."""
    D, re, im = ints
    try:
        cs = tuple([complex(x / D, y / D) for x, y in zip(re, im)])
    except OverflowError:
        raise DomainError(f"coefficients of F_{len(re) - 1} overflow double "
                          "precision") from None
    return FaberPoly(n=len(re) - 1, doubles=cs, ints=ints)


def faber_polys(K: ContinuumSpec, N: int):
    """Faber polynomials F_0, ..., F_N of K, exact, from one memoised family.

    The family comes from K.faber_exact, in Gaussian ints: one
    generating-function recurrence on the exact psi_map of segments,
    discs and ellipses, powers of the map tail of phi on custom
    continua.  Each member keeps its coefficients as integer numerators
    over one denominator (ints), which eval_exact runs on.
    Members are converted to doubles as they are built, so a family
    whose F_n overflows fails at F_n.  The longest family built so far
    is kept on K; a longer request builds only the new members where
    psi_map is known, while custom maps rebuild the whole family,
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
        w = _circle(r, m)
        K._memo[key] = (w, psi(K, w), psi_prime(K, w) * w)
    return K._memo[key]


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


def _pi_fixed(W: int) -> int:
    """pi 2^W within 2 units, by Machin's formula
    pi/4 = 4 arctan(1/5) - arctan(1/239) summed at W + g bits,
    g = bits(W) + 5: the two series have under 0.28 (W + g) + 2 terms,
    each within 3 units there, and so has the tail, so
    16 arctan(1/5) - 4 arctan(1/239) errs by under 12 (W + g) + 100 <
    2^g units, and the final shift adds under 1."""
    g = W.bit_length() + 5

    def arctan_inv(x):   # arctan(1/x) at 2^(W + g)
        t, s, k = (1 << W + g) // x, 0, 1
        while t:
            s += -(t // k) if k & 2 else t // k
            t //= x * x
            k += 2
        return s

    return (16 * arctan_inv(5) - 4 * arctan_inv(239)) >> g


def _cos_sin(a: int, W: int) -> tuple:
    """cos and sin of a/2^W at 2^W by their Taylor series, each term
    floored from the last, t_j = t_(j-1) |a|/(j 2^W), until one is 0.
    For |a/2^W| <= 2.1 and a within 3 units of its angle, each part is
    within 2^8 W units of the truth."""
    t = c = 1 << W
    s, j, neg, a = 0, 1, a < 0, abs(a)
    while t:
        t = t * a // (j << W)
        if j & 1:
            s += -t if j & 2 else t
        else:
            c += -t if j & 2 else t
        j += 1
    return c, -s if neg else s


@functools.lru_cache(maxsize=8)
def _unit_roots(m: int, prec: int) -> tuple:
    """The roots of unity omega^j, j < m, at 2**P, P = prec + bits(m) + 8
    guard bits: as the pair of tuples of Python ints (wr, wi), the real
    and imaginary parts, and as an array of shape (L, m, 2) holding limb
    a of them, _limb_width(2 m) bits each.  Computed once per (m, prec)
    and shared by every continuum and level; at most 8 pairs are kept.

    At 2^W, W - P >= bits(m) + bits(W) + 12, omega is
    _cos_sin(2 _pi_fixed(W) // m), its angle within 3 units, or the
    exact -1 for m <= 2 (_cos_sin holds up to angle 2.1), and omega^j
    comes from j floored products.  Each step multiplies by omega, whose
    parts are within 2^8 W units (_cos_sin), and floors, so after fewer
    than m steps each part is within 2^(bits(m) + bits(W) + 10) units of
    the truth (Brent & Zimmermann, Modern Computer Arithmetic, ch. 4),
    under 1/4 unit at 2^P, and its floor at 2^P within 1.25 units."""
    P = prec + m.bit_length() + _GUARD_BITS
    W = P + m.bit_length() + 12
    W += W.bit_length() + 1   # the new W is below twice the old
    c, s = _cos_sin(2 * _pi_fixed(W) // m, W) if m > 2 else (-1 << W, 0)
    x, y, wr, wi = 1 << W, 0, [], []
    for _ in range(m):
        wr.append(x >> W - P)
        wi.append(y >> W - P)
        x, y = (x * c - y * s) >> W, (x * s + y * c) >> W
    roots = np.ascontiguousarray(
        _limbs(wr + wi, _limb_width(2 * m)).reshape(2, m, -1).T)
    roots.flags.writeable = False   # one array for every caller
    return (tuple(wr), tuple(wi)), roots


def _map_nodes(ints, r: float, wr, wi, P: int) -> tuple:
    """e and, at 2**(P - e), the nodes psi(w_j) - b_0 and weights
    psi'(w_j) w_j at w_j = r omega^j, as pairs of object arrays of
    Python ints, from the exact ints = (D, re, im) of
    psi(w) = sum_s a_s w^s, s = 1, 0, ..., -M, and the roots (wr, wi)
    at 2**P.  With r = p/q and omega^(js) = omega^(js mod m), each is
    sum_(s != 0) a_s r^s omega^(js), times s for a weight: one Gaussian
    int per node over Q = D q p^M, then one floor division by Q 2^e.
    e = bits(S Q) - bits(Q) + 1 for S = sum |s| (|Re a_s| + |Im a_s|) r^s,
    so S <= 2^e < 4 S bounds every node and weight.
    """
    D, re, im = ints
    p, q = r.as_integer_ratio()
    M, m = len(re) - 2, len(wr)
    terms = [(s, x * p ** (M + s) * q ** (1 - s),
              y * p ** (M + s) * q ** (1 - s))
             for s, x, y in zip((1, *range(-1, -M - 1, -1)),
                                re[:1] + re[2:], im[:1] + im[2:]) if x or y]
    Q = D * q * p ** M
    e = (sum(abs(s) * (abs(x) + abs(y)) for s, x, y in terms).bit_length()
         - Q.bit_length() + 1)
    j = np.arange(m)
    Wr, Wi = np.array(wr, dtype=object), np.array(wi, dtype=object)
    tr = ti = dr = di = 0
    for s, x, y in terms:
        a, b = Wr[s * j % m], Wi[s * j % m]
        xr, xi = x * a - y * b, x * b + y * a
        tr, ti, dr, di = tr + xr, ti + xi, dr + s * xr, di + s * xi
    up, Q = max(-e, 0), Q << max(e, 0)
    return e, ((tr << up) // Q, (ti << up) // Q), ((dr << up) // Q,
                                                    (di << up) // Q)


def _fixed_nodes(K: ContinuumSpec, r: float, m: int, dps: int):
    """Fixed-point data of the high-precision route at dps digits.

    The precision is prec = max(1, round((dps + 1) log2(10))) bits, what
    mpmath gives dps digits.  Returns P = prec + bits(m) + 8 guard bits,
    the limb array of the roots of unity at 2**P (from _unit_roots,
    which holds them apart from K) and _map_nodes of psi_map: e and the
    nodes and weights at 2**P in the coordinate (t - b_0)/2^e, b_0 the
    centre of K's kind.  Relative nodes lose no digit to the distance of
    K from 0.  All but P and the roots are kept on K under
    ("fixed nodes", r, m, dps); a custom map raises FaberBohrError
    before any store.

    Bound.  Each part of each root from _unit_roots is within 1.25
    units at 2**P, so each root within 1.77 units of 2^P omega^j in
    modulus, and P - prec >= 9 makes that under 0.0035 2^(P-prec).  The
    map and r are exact, so a node or weight sum over Q 2^e carries that
    error times sum |s| |a_s| r^s/2^e <= 1, and its floor under 1 unit
    <= 2^(P-prec-9): each part of every node and weight is within
    3 2^(P-prec-2) units at 2^(P-e), with room to spare.
    """
    m = int(m)
    prec = max(1, round((dps + 1) * 3.3219280948873626))
    P = prec + m.bit_length() + _GUARD_BITS
    (wr, wi), roots = _unit_roots(m, prec)
    key = ("fixed nodes", float(r), m, dps)
    if key not in K._memo:
        if K.psi_map is None:
            raise FaberBohrError("high-precision contour is implemented for "
                                 "segment, disc and ellipse continua only")
        K._memo[key] = _map_nodes(K.psi_map.ints, float(r), wr, wi, P)
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
    summation.  It works at prec = round((dps + 1) log2(10)) bits, the
    precision mpmath gives dps digits, and holds every quantity as an
    exact Python int in fixed point at 2**P, P = prec + bits(m) + 8 guard
    bits.  The nodes and weights are built in Python ints from the exact
    map psi_map.ints and the integer roots of unity (_map_nodes), relative
    to b_0, the centre of K's kind, and scaled by 2^-e to size about 1;
    the Cauchy weight dw/(t - z) does not change under this affine map,
    and z - b_0 is formed exactly from z = (X + iY)/d and the exact b_0
    and floored once, so the accuracy does not depend on where K lies or
    how large it is.  The roots of unity are built in Python ints, each
    part within 1.25 units at 2**P, once per (m, prec) for all continua
    (_unit_roots); the nodes are built once and memoised on K per
    (r, m, dps).  B_j(z) = dw_j/(t_j - z) is
    formed for every point and node at once, as Python-int floor
    divisions on numpy object arrays of shape (Z, m).  With
    w_j^n = r^n omega^(jn mod m), every degree needs the Gaussian-int
    sums S_k(z) = sum_j omega^(jk) B_j(z), k = n mod m, and all of them
    come from an exact float64 matrix product, one GEMM per block of
    degrees: the ints are split into signed 16-bit limbs, so every
    partial sum of the 2m-term limb products is an integer below
    2m 2^32 <= 2^53 (8-bit limbs above m = 2^20), and the limb products
    are recombined into Python ints (_limb_product).  Each part of
    S_k(z) r^n/(m 2^(2P)), r = p/q, is one int/int true division, which
    Python rounds correctly; a value beyond double range raises
    DomainError, as on the float route, and so does a degree whose
    error bound 3 u kappa r^n below passes double max at some point
    where the bound is claimed, naming double range and asking for a
    larger dps.  Custom maps have no high-precision route and raise
    FaberBohrError.

    Accuracy of the dps route.  Let u = 2^-prec, A = 2^e, t_j the nodes
    psi(w_j), g the least |t_j - z| and kappa = 1 + (A/g)(1 + A/g).  If
    8 u A <= g and u r^n >= 2^-1073, each value is within
    3 u kappa r^n + 2^-53 |V| of the exact trapezoid sum V at the level
    of the double r.  The nodes t_j and weights d_j are within 0.75 u A
    of the truth in each part (_fixed_nodes), so within 1.07 u A in
    modulus, and z - b_0 is exact until its floor, which moves it by
    under sqrt(2) 2^(e-P) <= 0.003 u A.  With |d_j| <= A and the
    condition, which keeps every computed |t_j - z| above 0.86 g, B_j
    moves by at most 1.23 u (kappa - 1), and its floors by 0.003 u.  The
    roots of unity, within 0.0035 u in modulus (_fixed_nodes), add
    0.0035 u max |B_j| <= 0.004 u (kappa - 1) + 0.001 u to S_k(z)/m, so
    S_k(z)/m = V/r^n is within 2 u kappa, and r^n is exact.  Rounding
    each part once adds 2^-53 of the value, or under 2^-1075 below the
    normal range, which the second condition makes smaller than
    u kappa r^n.
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
    m, ns = int(m), [int(n) for n in ns]
    out = np.zeros((len(ns), len(zs)), dtype=complex)
    P, roots, e, (tr, ti), (dr, di) = _fixed_nodes(K, r, m, dps)
    # z - b_0 at 2**(P - e), exact from z = (X + iY)/d and
    # b_0 = (re_1 + i im_1)/D, then floored once
    D, re, im = K.psi_map.ints
    up, down = max(P - e, 0), max(e - P, 0)
    zq = np.array([[((X * D - re[1] * d) << up) // (D * d << down),
                     ((Y * D - im[1] * d) << up) // (D * d << down)]
                    for X, Y, d in map(_dyadic, zs)], dtype=object)
    # B_j(z) = dw_j/(t_j - z) = u_j + i v_j at 2**P, a row per z
    er, ei = tr - zq[:, :1], ti - zq[:, 1:]
    den = er * er + ei * ei
    hit = np.flatnonzero((den == 0).any(axis=1))
    if len(hit):
        raise _on_node(zs[hit[0]], r, m)
    if not (ns and len(zs)):
        return out
    # the stated bound 3 u kappa r^n, claimed where 8 u A <= g, must stay
    # below double max < 2^1024; in log2, A/g = 2^a from the least den of
    # each point, kappa = 1 + 2^a + 2^2a grows with a and r^n with n
    prec = P - m.bit_length() - _GUARD_BITS
    a = max((x for x in (P - math.log2(d) / 2 for d in den.min(axis=1))
             if x <= prec - 3), default=None)
    if a is not None and (math.log2(3) - prec + max(ns) * math.log2(r)
                          + np.logaddexp2.reduce([0, a, 2 * a]) > 1024):
        raise DomainError(f"the error bound of the high-precision contour "
                          f"route leaves double range at r={r}, n={max(ns)}; "
                          f"raise dps")
    U = ((dr * er + di * ei) << P) // den
    V = ((di * er - dr * ei) << P) // den
    sums = _root_sums(roots, sorted({n % m for n in ns}),
                      U.ravel().tolist(), V.ravel().tolist(),
                      _limb_width(2 * m))
    # S_k(z) r^n/m with r = p/q, one correctly rounded int/int division
    p, q = float(r).as_integer_ratio()
    for i, n in enumerate(ns):
        num, div = (p ** n, q ** n) if n >= 0 else (q ** -n, p ** -n)
        div = m * div << 2 * P
        try:
            out[i] = [complex(x * num / div, y * num / div)
                      for x, y in sums[n % m]]
        except OverflowError:
            raise DomainError(f"a value of the high-precision contour route "
                              f"leaves double range at r={r}, n={n}") from None
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


def _check_extraction(r: float, N: int, m: int) -> None:
    """Gates of coefficient extraction from m samples: a radius r > 1
    and 0 <= N <= m/4 (anti-aliasing rule), else DomainError."""
    _check_level(r, "extraction radius must exceed 1")
    if N < 0:
        raise DomainError("N must be nonnegative")
    if N > m // 4:
        raise DomainError(f"N={N} exceeds the anti-aliasing limit m/4={m // 4}")


def faber_coeffs(samples, K: ContinuumSpec, r: float, N: int,
                 fn=None, verify: bool = False) -> FaberSeries:
    """Faber coefficients from equispaced samples of f(psi(w)) on |w| = r.

    a_n is the n-th Fourier coefficient of the samples divided by r**n;
    the constant term needs no scaling.  N may not exceed a quarter of
    the sample count (anti-aliasing rule).  When verify is set, fn must
    be the sampled function itself and the reconstruction is checked at
    16 fixed interior points, within 1e-6.
    """
    samples = np.asarray(samples, dtype=complex)
    m = len(samples)
    _check_extraction(r, N, m)
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
        # stratified radii, turned by the golden angle from one to the next
        k = np.arange(16)
        radii = 1.0 + (min(r, 0.95 * r + 0.05) - 1.0) * (k + 0.5) / 16
        angles = 2.0 * np.pi * (k * 0.6180339887498949 % 1.0)
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


def target_identity_check(K: ContinuumSpec, n: int, w) -> bool:
    """Whether target_identity_residual is below 1e-9."""
    return target_identity_residual(K, n, w) < 1e-9


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
