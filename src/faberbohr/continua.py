"""Planar continua and their exterior conformal data.

A continuum K here is one of

* a closed disc, inverse exterior map psi(w) = center + radius w,
* a real segment [a, b], psi(w) = (a + b)/2 + (b - a)/4 (w + 1/w),
* a filled ellipse, psi(w) = c w + b0 + b1/w with |b1| < c, the level
  closure of a segment or of an ellipse,
* a custom continuum defined by a finite Laurent polynomial
  g*z + g0 + g1/z + ... (the map is the definition of the set).

Each kind is one frozen subclass of ContinuumSpec.  The first three
state psi exactly (psi_map), and ContinuumSpec derives their math from
it.  A custom continuum is defined by phi; its Faber polynomials power
phi.

The exterior map phi sends the complement of K onto {|w| > 1} with
phi(inf) = inf and real positive derivative at infinity.  Level sets
{|phi| = r} for r > 1 are the closed analytic curves on which all the
contour machinery of the package lives; the Green function of the
complement is log|phi|.
"""

from __future__ import annotations

import cmath
import math
import numbers
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import ClassVar

from ._lazy import np
from .errors import (
    DomainError,
    InsideUnitDisc,
    NonConvergent,
    PointInsideK,
    WrongKind,
)
from .series import LaurentTail, _dyadic, _fraction, _polys_from_tail

__all__ = [
    "ContinuumSpec",
    "LevelSet",
    "SupNorm",
    "disc",
    "segment",
    "custom",
    "contains",
    "phi",
    "psi",
    "psi_prime",
    "green",
    "level_boundary",
    "eccentricity",
    "arc_length",
    "dist_to_level",
    "sup_norm",
    "scaled_closure",
]

MEMBERSHIP_TOL = 1e-12
DEFAULT_SAMPLES = 1024
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class ContinuumSpec:
    """Immutable description of a continuum; build via disc/segment/custom.

    Segments, discs and ellipses state psi once, exactly, as psi_map;
    the members here derive from it, with rho = b_1/c of
    psi(w) = c w + b_0 + b_1/w (1 on a segment, 0 on a disc), gamma,
    the float psi, psi' and phi, |phi| <= 1 membership, the boundary,
    the closure psi(R w), psi_coeffs and the Faber family (one
    recurrence); faber builds the high-precision contour nodes from
    psi_map.ints.  F_n(psi(w)) = w^n + rho^n w^-n for
    n >= 1, its one Grunsky term (Pommerenke, Univalent Functions,
    1975), gives the pullback, sup_K |F_n| = 1 + |rho|^n and
    phi^n - F_n = -(rho/phi)^n.  Segments and discs keep their own
    membership; custom maps override what phi defines.  The module
    functions validate input and delegate.
    """

    kind: ClassVar[str]
    # psi as an exact LaurentTail c w + b_0 + b_1/w + ... + b_M/w^M where
    # it is one, else None (psi is found by Newton's method)
    psi_map: ClassVar[LaurentTail | None] = None

    @cached_property
    def _memo(self) -> dict:
        """Data derived from this continuum, kept in its __dict__ (not a
        field) so that it is freed with it."""
        return {}

    @cached_property
    def psi_coeffs(self) -> dict | None:
        """{k: c_k}, psi(w) = sum c_k w^k, psi_map rounded once, or None."""
        if self.psi_map is None:
            return None
        D, re, im = self.psi_map.ints
        return {1 - i: complex(x / D, y / D)
                for i, (x, y) in enumerate(zip(re, im))}

    @property
    def gamma(self) -> float:
        """Derivative of the exterior map at infinity (real positive): 1/c."""
        return 1.0 / self.psi_coeffs[1].real

    def _psi(self, w):
        """b_0 + c (w + rho/w)."""
        c, rho = self.psi_coeffs, self.rho
        return c[0] + c[1] * (w + rho / w if rho else w)

    def _psi_prime(self, w):
        """c (1 - rho w^-2)."""
        c, rho = self.psi_coeffs[1], self.rho
        return c * (1.0 - rho * w ** -2) if rho else np.full_like(w, c)

    def _phi(self, z):
        """(z - b_0)/c, or the larger root u +- sqrt(u^2 - rho) of
        w + rho/w = 2u, u = (z - b_0)/(2c)."""
        c, rho = self.psi_coeffs, self.rho
        if not rho:
            return (z - c[0]) / c[1]
        u = (z - c[0]) / (2.0 * c[1])
        s = np.sqrt(u * u - rho)
        w1, w2 = u + s, u - s
        return np.where(np.abs(w1) >= np.abs(w2), w1, w2)

    def _contains(self, z: complex) -> bool:
        w = self._phi(np.array([z], dtype=complex))[0]
        if not np.isfinite(w):
            return True
        return abs(w) <= 1.0 + MEMBERSHIP_TOL

    def _closure(self, R: float) -> ContinuumSpec:
        """The ellipse psi(R w), exactly: c w + b_0 + b_1/w at R = P/Q
        is (c P^2 w + b_0 P Q + b_1 Q^2/w)/(P Q)."""
        P, Q = _fraction(R).as_integer_ratio()
        D, re, im = self.psi_map.ints
        s = (P * P, P * Q, Q * Q)
        ints = [[x * k for x, k in zip(v, s)] for v in (re, im)]
        K = EllipseSpec(LaurentTail((D * P * Q, *ints)))
        try:
            K.psi_coeffs
        except OverflowError:
            raise DomainError(f"the closure of {self.describe()} at R={R} "
                              "leaves double range") from None
        return K

    def faber_exact(self, N: int, have: tuple = ()):
        """(D, re, im) of F_k, ..., F_N, k = len(have), one at a time.

        With psi_map = (C w + B_0 + sum_j B_j w^-j)/E, C real, the
        generating function psi'(w)/(psi(w) - z) = sum F_n(z) w^(-n-1)
        gives F_n = P_n/C^n, P_0 = 1 and, B_j = 0 for j > M,
        P_(n+1) = (E z - B_0) P_n - sum_(j=1..n) B_j C^j P_(n-j) - n B_n C^n
        (Curtiss, Amer. Math. Monthly 78, 1971), in Gaussian ints with no
        gcd; it resumes from the last M + 1 members in have.
        """
        E, re, im = self.psi_map.ints
        C, M = re[0], len(re) - 2
        BC = [(x * C ** j, y * C ** j)   # B_j C^j
              for j, (x, y) in enumerate(zip(re[1:], im[1:]))]
        P = [(r, i) for _, r, i in have[-M - 1:]]
        if not P:
            P = [([1], [0])]
            yield 1, [1], [0]
        start = max(len(have), 1) - 1   # P holds P_(start-M), ..., P_start
        Cn = C ** start
        for n in range(start, N):
            xr, xi = P[-1]
            nr, ni = [0] + [E * x for x in xr], [0] + [E * y for y in xi]
            for (br, bi), (xr, xi) in zip(BC, reversed(P)):   # P_(n-j)
                if br or bi:
                    L = len(xr)
                    nr[:L] = [a - br * x + bi * y for a, x, y in zip(nr, xr, xi)]
                    ni[:L] = [a - br * y - bi * x for a, x, y in zip(ni, xr, xi)]
            if 1 <= n <= M:
                nr[0] -= n * re[n + 1] * Cn
                ni[0] -= n * im[n + 1] * Cn
            Cn *= C
            P = (P + [(nr, ni)])[-M - 1:]
            yield Cn, nr, ni

    @cached_property
    def rho(self) -> complex | None:
        """b_1/c of psi_map = c w + b_0 + b_1/w, rounded once (0 with no
        b_1), or None: custom maps and longer tails."""
        if self.psi_map is None or self.psi_map.M > 1:
            return None
        _, (c, _, *x), (_, _, *y) = self.psi_map.ints
        return complex(x[0] / c, y[0] / c) if x else 0j

    def pullback(self, ns, w: np.ndarray) -> np.ndarray:
        """Matrix of F_n(psi(w)), rows indexed by ns, columns by w:
        w^n + rho^n w^-n (row n = 0 is 1) where rho is known, else the
        Faber polynomials at psi(w); DomainError beyond double range."""
        ns = np.asarray(ns)
        with np.errstate(over="ignore", invalid="ignore"):
            if self.rho is None:
                from .faber import faber_polys   # faber imports this module

                polys = faber_polys(self, int(max(ns)))
                C = np.zeros((len(polys), len(ns)), dtype=complex)
                for i, n in enumerate(ns):
                    C[: n + 1, i] = polys[n].coeffs
                V = _polyval(C[:, :, None], psi(self, w))
            else:
                V = w[None, :] ** ns.astype(float)[:, None]
                if self.rho:
                    V = V + (self.rho ** ns)[:, None] / V
                    V[ns == 0] = 1.0
        if not np.isfinite(V.view(float)).all():
            raise DomainError(f"F_n(psi(w)) on {self.describe()} leaves "
                              "double range")
        return V

    def _boundary(self, t):
        """Boundary angle -> points of K's boundary, psi on |w| = 1."""
        return self._psi(np.exp(1j * t))

    def _boundary_path(self, p):
        """Boundary angle -> values of the polynomial p on the boundary of K."""
        return lambda t: _eval_on_values(p, self._boundary(t))

    def level_disc(self, R: float, m: int) -> tuple:
        """Centre z0 and radius s with |z - z0| <= s on {|phi| = R}: b_0
        and |c| (R + |rho|/R) where rho is known, else the centroid of m
        level points and the sampled, refined largest distance from it.
        """
        if self.rho is not None:
            c = self.psi_coeffs
            return c[0], abs(c[1]) * (R + abs(self.rho) / R)

        def level(t):
            return psi(self, R * np.exp(1j * t))

        zc = complex(np.mean(level(_angles(m))))
        return zc, float(_row_sups(level, lambda x, i: x - zc, 1, m)[0])


@dataclass(frozen=True)
class DiscSpec(ContinuumSpec):
    """The closed disc |z - center| <= radius; phi is (z - center)/radius."""

    center: complex
    radius: float
    kind = "disc"

    def describe(self) -> str:
        return f"disc(center={self.center}, radius={self.radius})"

    def _contains(self, z: complex) -> bool:
        return abs(z - self.center) <= (self.radius
                                        + MEMBERSHIP_TOL * max(1.0, self.radius))

    @cached_property
    def psi_map(self) -> LaurentTail:
        """psi(w) = radius w + center, exactly."""
        return LaurentTail.build(self.radius, self.center)

    def _closure(self, R: float) -> ContinuumSpec:
        return disc(self.center, self.radius * R)


@dataclass(frozen=True)
class SegmentSpec(ContinuumSpec):
    """The real segment [a, b]; phi is u + sqrt(u*u - 1) of its affine image u."""

    a: float
    b: float
    kind = "segment"

    @cached_property
    def psi_map(self) -> LaurentTail:
        """psi(w) = (b - a)/4 (w + 1/w) + (a + b)/2, exactly."""
        A, B, S = _dyadic(complex(self.a, self.b))   # a = A/S, b = B/S
        return LaurentTail((4 * S, (B - A, 2 * (A + B), B - A), (0, 0, 0)))

    def describe(self) -> str:
        return f"segment([{self.a}, {self.b}])"

    def _contains(self, z: complex) -> bool:
        if self.a <= z.real <= self.b:
            d = abs(z.imag)
        else:
            d = min(abs(z - self.a), abs(z - self.b))
        return d <= MEMBERSHIP_TOL

    def _boundary_path(self, p):
        if hasattr(p, "cheb_floats"):
            cheb = p.cheb_floats(self.a, self.b)
            return lambda t: _polyval(cheb, np.cos(t), chebyshev=True)
        mid, half = self.psi_coeffs[0].real, 0.5 * (self.b - self.a)
        return lambda t: _eval_on_values(p, mid + half * np.cos(t))


@dataclass(frozen=True)
class EllipseSpec(ContinuumSpec):
    """The filled ellipse bounded by psi(|w| = 1), psi_map = c w + b_0 +
    b_1/w with |b_1| < c: the level closure of a segment or an ellipse."""

    psi_map: LaurentTail
    kind = "ellipse"

    def describe(self) -> str:
        c = self.psi_coeffs
        return f"ellipse(c={c[1].real}, b0={c[0]}, b1={c[-1]})"


@dataclass(frozen=True)
class CustomSpec(ContinuumSpec):
    """The continuum whose exterior map is the Laurent polynomial map_tail."""

    map_tail: LaurentTail
    kind = "custom"

    @property
    def gamma(self) -> float:
        """Derivative of the exterior map at infinity (real positive)."""
        D, re, _ = self.map_tail.ints
        return re[0] / D

    def describe(self) -> str:
        return f"custom(gamma={self.gamma}, depth={self.map_tail.M})"

    @cached_property
    def _complex(self) -> tuple:
        """The map's lead, c0 and tail as complex floats, built once."""
        D, re, im = self.map_tail.ints
        c = [complex(x / D, y / D) for x, y in zip(re, im)]
        return c[0], c[1], np.array(c[2:], dtype=complex)

    def _phi(self, z):
        """lead z + c0 + sum_k t_k z^-k, the tail by Horner in u = 1/z."""
        lead, c0, tail = self._complex
        if not len(tail):
            return lead * z + c0
        with np.errstate(divide="ignore", invalid="ignore"):
            u = 1.0 / z
            return lead * z + c0 + _polyval(tail, u) * u

    def _phi_deriv(self, z):
        lead, _, tail = self._complex
        if not len(tail):
            return np.full_like(z, lead)
        u = 1.0 / z
        slopes = [-k * t for k, t in enumerate(tail, 1)]
        return lead + _polyval(slopes, u) * u * u

    def _psi(self, w):
        """Newton's method for phi(z) = w from z = (w - c0)/lead.

        A point that meets the tolerance takes one more, polishing, step
        and stops, so its result does not depend on the points it is
        batched with.
        """
        lead, c0, _ = self._complex
        shape, w = w.shape, w.ravel()
        z = (w - c0) / lead
        tol = 1e-13 * np.maximum(1.0, np.abs(w))
        idx = np.arange(w.size)   # the points still moving
        for step in range(61):
            zi = z[idx]
            f = self._phi(zi) - w[idx]
            done = np.abs(f) <= tol[idx]
            if step == 60 and not done.all():
                break
            z[idx] = zi - f / self._phi_deriv(zi)   # polishes the done ones
            idx = idx[~done]
            if idx.size == 0:
                return z.reshape(shape)
        raise NonConvergent("Newton inversion of the custom exterior map stalled")

    def _psi_prime(self, w):
        return 1.0 / self._phi_deriv(self._psi(w))

    def _boundary(self, t):
        """psi just outside |w| = 1, where Newton's method converges."""
        return psi(self, (1.0 + 1e-9) * np.exp(1j * t))

    def _closure(self, R: float) -> ContinuumSpec:
        return custom(self.map_tail.scaled(1 / _fraction(R)))

    def faber_exact(self, N: int, have: tuple = ()):
        """(D, re, im) of the polynomial parts of the powers k = len(have),
        ..., N of the map tail.  Their truncation depends on N, so the
        whole family is rebuilt and the first k dropped."""
        return islice(_polys_from_tail(self.map_tail, N), len(have), None)


def _check_finite(kind: str, **fields) -> None:
    for name, value in fields.items():
        if not cmath.isfinite(value):
            raise DomainError(f"{kind} field {name!r} must be finite; "
                              f"got {value!r}")


def disc(center=0j, radius=1.0) -> ContinuumSpec:
    center, radius = complex(center), float(radius)
    _check_finite("disc", center=center, radius=radius)
    if not radius > 0:
        raise DomainError("disc radius must be positive")
    return DiscSpec(center=center, radius=radius)


def segment(a=-1.0, b=1.0) -> ContinuumSpec:
    a, b = float(a), float(b)
    _check_finite("segment", a=a, b=b)
    if not a < b:
        raise DomainError("segment needs a < b")
    if not math.isfinite(b - a):
        raise DomainError(f"segment [{a!r}, {b!r}]: b - a overflows double")
    return SegmentSpec(a=a, b=b)


def custom(tail: LaurentTail) -> ContinuumSpec:
    if not isinstance(tail, LaurentTail):
        raise DomainError("custom continuum needs a LaurentTail map")
    _, re, im = tail.ints
    if im[0] or re[0] <= 0:
        raise DomainError("exterior map must have real positive leading coefficient")
    return CustomSpec(map_tail=tail)


# ---------------------------------------------------------------------------
# membership

def contains(K: ContinuumSpec, z) -> bool:
    """True when z lies on K, within a tolerance of 1e-12: absolute on a
    segment, relative to max(1, radius) on a disc, on |phi(z)| <= 1
    elsewhere.  Points within tolerance of the boundary count as inside.
    """
    return K._contains(complex(z))


def _check_points(zs) -> np.ndarray:
    """zs as a flat complex array; a non-finite point raises DomainError."""
    zs = np.asarray(zs, dtype=complex).ravel()
    bad = zs[~np.isfinite(zs)]
    if len(bad):
        raise DomainError(f"points must be finite; got {bad[0]}")
    return zs


# ---------------------------------------------------------------------------
# exterior map and inverse

def phi(K: ContinuumSpec, z):
    """Exterior map value(s); raises DomainError on a non-finite point or
    value and PointInsideK on points of K."""
    arr = np.asarray(z, dtype=complex)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    for zz in _check_points(arr):
        if contains(K, zz):
            raise PointInsideK(f"point {zz} lies on {K.describe()}")
    with np.errstate(over="ignore", invalid="ignore"):
        w = K._phi(arr)
    if not np.isfinite(w).all():
        raise DomainError(f"phi on {K.describe()} leaves double range")
    return complex(w[0]) if scalar else w


def psi(K: ContinuumSpec, w):
    """Inverse of the exterior map, |w| > 1; DomainError past double range."""
    arr = np.asarray(w, dtype=complex)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if np.any(np.abs(arr) <= 1.0):
        bad = arr[np.abs(arr) <= 1.0][0]
        raise InsideUnitDisc(f"psi is defined for |w| > 1, got {bad}")
    with np.errstate(over="ignore", invalid="ignore"):
        z = K._psi(arr)
    if not np.isfinite(z).all():
        raise DomainError(f"psi on {K.describe()} leaves double range")
    return complex(z[0]) if scalar else z


def psi_prime(K: ContinuumSpec, w):
    """Derivative of psi; for custom maps via 1/phi'(psi(w))."""
    arr = np.asarray(w, dtype=complex)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    d = K._psi_prime(arr)
    return complex(d[0]) if scalar else d


def green(K: ContinuumSpec, z):
    """Green function of the complement with pole at infinity: log|phi|."""
    w = phi(K, z)
    if isinstance(w, complex):
        return math.log(abs(w))
    return np.log(np.abs(w))


# ---------------------------------------------------------------------------
# levels

def _check_level(R, message: str, floor: float = 1.0) -> None:
    """Raise DomainError(message) unless floor < R < inf.

    A bare `not R > 1` passes an infinite R, which then turns into NaN
    or an overflow further on; NaN fails the first test.
    """
    if not R > floor:
        raise DomainError(message)
    if not math.isfinite(R):
        raise DomainError(f"{message}; a level must be finite, got {R!r}")


def _is_int(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _check_contour(r, m, dps=None, ns=()) -> None:
    """Gate of the contour routes: a finite level r > 1, an integer count
    m >= 1 of nodes, an integer dps >= 1 when given, integer degrees."""
    _check_level(r, "contour level r must exceed 1")
    if not _is_int(m):
        raise DomainError(f"node count m must be an integer; got {m!r}")
    if m < 1:
        raise DomainError(f"node count m must be at least 1; got {m}")
    if dps is not None and not (_is_int(dps) and dps >= 1):
        raise DomainError(f"dps must be an integer of at least 1; got {dps!r}")
    for n in ns:
        if not _is_int(n):
            raise DomainError(f"degree n must be an integer; got {n!r}")


def scaled_closure(K: ContinuumSpec, R: float) -> ContinuumSpec:
    """The filled level set {green <= log R} as a continuum of its own.

    Its exterior map is phi/R, its inverse map psi(R w), both exact.
    For a disc this is again a disc, and for a custom continuum the
    custom continuum of the stored map tail over R.  A segment or an
    ellipse gives the ellipse of psi(R w), whose Faber polynomials are
    R^-n F_n.
    """
    _check_level(R, "level parameter R must exceed 1")
    return K._closure(R)


# ---------------------------------------------------------------------------
# level sets

@dataclass(frozen=True, eq=False)
class LevelSet:
    """Discretised level curve {|phi| = R} with its arc length."""

    spec: ContinuumSpec
    R: float
    points: np.ndarray
    m: int
    arc_length: float


def level_boundary(K: ContinuumSpec, R: float, m: int = DEFAULT_SAMPLES) -> LevelSet:
    """Sample the level curve at m equispaced angles of the circle |w| = R."""
    _check_level(R, "level parameter R must exceed 1")
    if m < 8:
        raise DomainError("need at least 8 boundary samples")
    pts = psi(K, _circle(R, m))
    back = np.abs(phi(K, pts))
    if np.max(np.abs(back - R)) > 1e-9 * R:
        raise NonConvergent("level curve points failed the roundtrip check")
    return LevelSet(spec=K, R=R, points=pts, m=m, arc_length=arc_length(K, R))


def eccentricity(R: float) -> float:
    """Eccentricity of the segment level ellipse with focal half-distance 1.

    The level curve of a segment at parameter R is an ellipse with
    semi-axes (R + 1/R)/2 and (R - 1/R)/2, so the eccentricity is
    2R/(1 + R^2).  Strictly decreasing in R.
    """
    _check_level(R, "eccentricity defined for R > 1")
    return 2.0 * R / (1.0 + R * R)


def arc_length(K: ContinuumSpec, r: float) -> float:
    """Arc length of {|phi| = r} by the periodic trapezoid rule.

    The integrand |psi'(r e^(i theta))| * r is smooth and periodic, so
    the node count, from DEFAULT_SAMPLES, is doubled, at most 12 times,
    until two successive values agree to relative 1e-8.  A sum beyond
    double range raises DomainError.
    """
    _check_level(r, "level parameter must exceed 1")

    def value(mm: int) -> float:
        with np.errstate(over="ignore", invalid="ignore"):
            total = float(np.sum(np.abs(psi_prime(K, _circle(r, mm))) * r))
        length = total * 2.0 * np.pi / mm
        if not math.isfinite(length):
            raise DomainError(f"the arc length at r={r} of {K.describe()} "
                              "leaves double range")
        return length

    m = DEFAULT_SAMPLES
    prev = value(m)
    for _ in range(12):
        m *= 2
        cur = value(m)
        if abs(cur - prev) <= 1e-8 * abs(cur):
            return cur
        prev = cur
    raise NonConvergent("arc length did not stabilise; is the map tail sane?")


def _golden_extremum(f, lo, hi, sign: float) -> np.ndarray:
    """60-step golden-section searches for the extrema of f, one per row,
    in lockstep.

    lo and hi hold one bracket per row, and f maps an array of angles,
    one per row, to each row's value at its own angle.  Every stage is
    one call of f; each row takes the branch and the arithmetic of a
    scalar golden-section search.  Returns the extremal values.
    """
    d = _GOLDEN * (hi - lo)
    x1, x2 = hi - d, lo + d
    f1, f2 = sign * f(x1), sign * f(x2)
    for _ in range(60):
        left = f1 <= f2   # keep [x1, hi], else [lo, x2]
        lo, hi = np.where(left, x1, lo), np.where(left, hi, x2)
        d = _GOLDEN * (hi - lo)
        xn = np.where(left, lo + d, hi - d)
        fn = sign * f(xn)
        x1, x2 = np.where(left, x2, xn), np.where(left, xn, x1)
        f1, f2 = np.where(left, f2, fn), np.where(left, fn, f1)
    return sign * np.where(f2 > f1, f2, f1)


def _angles(m: int) -> np.ndarray:
    return 2.0 * np.pi * np.arange(m) / m


def _circle(r: float, m: int) -> np.ndarray:
    """The m points r e^(i theta) at the angles theta of _angles(m)."""
    return r * np.exp(1j * _angles(m))


def dist_to_level(K: ContinuumSpec, z, r: float, m: int = DEFAULT_SAMPLES) -> float:
    """Distance from z to the level curve {|phi| = r}.

    Where psi is a finite Laurent polynomial (segments, discs, ellipses, see
    ContinuumSpec.psi_coeffs) the nearest point is found in closed form
    (_laurent_distance) and m is only checked.  For custom maps, m is
    the number of boundary samples of _sampled_distance.  z must be
    finite, or DomainError is raised.
    """
    _check_contour(r, m)
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"distance needs a finite point; got {z!r}")
    if K.psi_coeffs is None:
        return _sampled_distance(K, z, r, m)
    return _laurent_distance(K, z, r)


def _laurent_distance(K: ContinuumSpec, z: complex, r: float) -> float:
    """Distance from z to {|phi| = r} for psi(w) = sum c_k w^k, k = lo..hi.

    On |w| = r, w = r zeta, psi(w) - z is g(zeta) = sum a_k zeta^k with
    a_k = c_k r^k less z at k = 0, and |g|^2 is the trigonometric
    polynomial P = sum p_j zeta^j, |j| <= L = hi - lo, with p_j = sum over
    j = k - l of a_k conj(a_l).  Its critical angles are the unit roots
    of sum j p_j zeta^(j + L), of degree 2L (for a segment the classical
    point-to-ellipse quartic).  The distance is the least |psi - z| at
    the angles of all its roots and at the angle 0, which stands in
    when P is constant (the centre of a disc) and np.roots finds none.
    The a_k are scaled by a power of two first, so |g|^2 neither
    underflows nor overflows whatever the size of K.  The j p_j are
    scaled again, since p_j can be subnormal when z is near the centre
    of a disc, and entries still below the least normal double are
    dropped: np.roots divides by the leading one, and the reciprocal of
    a subnormal overflows.
    """
    c = K.psi_coeffs
    lo, hi = min(c), max(c)
    a = [c.get(k, 0.0) * r ** k for k in range(lo, hi + 1)]
    a[-lo] -= z
    if not all(map(cmath.isfinite, a)):
        raise DomainError(f"the level curve at r={r} of {K.describe()} "
                          "leaves double range")
    e = math.frexp(max(max(abs(x.real), abs(x.imag)) for x in a))[1]
    a = np.array([complex(math.ldexp(x.real, -e), math.ldexp(x.imag, -e))
                  for x in a])
    p = np.convolve(a, a[::-1].conj())   # p[j + L] = p_j
    L = hi - lo
    q = np.arange(-L, L + 1) * p
    e = math.frexp(float(np.abs(q).max()))[1]
    q = np.ldexp(q.view(float), -e).view(complex)
    q[np.abs(q) < sys.float_info.min] = 0.0
    roots = np.roots(q[::-1])
    t = np.append(np.angle(roots), 0.0)
    return float(np.min(np.abs(psi(K, r * np.exp(1j * t)) - z)))


def _sampled_distance(K: ContinuumSpec, z, r: float, m: int) -> float:
    """Distance from z to {|phi| = r} for any exterior map.

    Sampled minimum over m boundary points followed by one golden
    section refinement stage in the boundary angle.  If refinement
    cannot improve the sampled value, the sampled value is returned;
    an overestimate here would wrongly tighten the bounds built on it,
    an underestimate only loosens them.
    """
    return float(_row_sups(lambda t: psi(K, r * np.exp(1j * t)),
                           lambda x, i: x - z, 1, m, -1.0, fallback=True)[0])


# ---------------------------------------------------------------------------
# sup norms

class SupNorm(float):
    """A float carrying the sample count that produced it."""

    def __new__(cls, value: float, samples: int):
        obj = super().__new__(cls, value)
        obj.samples = samples
        return obj


def _polyval(c, x, chebyshev: bool = False):
    """sum_k c[k] x^k, or sum_k c[k] T_k(x) with chebyshev, c[k]
    broadcast against x: the steps of numpy.polynomial's polyval
    (Horner's rule) and chebval (Clenshaw's recurrence) in their order,
    so every value is theirs to the bit."""
    if not chebyshev:
        acc = c[-1] + x * 0
        for a in c[-2::-1]:
            acc = a + acc * x
        return acc
    if len(c) < 3:
        return c[0] + (c[1] if len(c) == 2 else 0) * x
    x2, c0, c1 = 2 * x, c[-2], c[-1]
    for a in c[-3::-1]:
        c0, c1 = a - c1, c0 + c1 * x2
    return c0 + c1 * x


def _eval_on_values(p, z: np.ndarray) -> np.ndarray:
    """p at z, for a FaberPoly or an ascending coefficient array."""
    return _polyval(np.asarray(getattr(p, "coeffs", p), dtype=complex), z)


def sup_norm(p, S, m: int = DEFAULT_SAMPLES) -> SupNorm:
    """Maximum modulus of the polynomial p over a continuum or level set.

    Sampling is followed by one golden section refinement around the
    discrete maximiser.  On segments, polynomials that expose an exact
    Chebyshev-basis view (see FaberPoly.cheb_floats) are evaluated
    through it; monomial evaluation of high-degree Faber data on [-1, 1]
    loses everything to cancellation.  A sup beyond double range raises
    DomainError.
    """
    if isinstance(S, LevelSet):
        def path(t):
            return _eval_on_values(p, psi(S.spec, S.R * np.exp(1j * t)))
    elif isinstance(S, ContinuumSpec):
        path = S._boundary_path(p)
    else:
        raise WrongKind(f"cannot take a sup norm over {type(S).__name__}")
    with np.errstate(over="ignore", invalid="ignore"):
        s = _row_sups(path, lambda v, i: v, 1, m)[0]
    if not math.isfinite(s):
        K = getattr(S, "spec", S)
        raise DomainError(f"the sup of p over {K.describe()} leaves double "
                          "range")
    return SupNorm(s, m)


def _row_sups(path, values, k: int, m: int, sign: float = 1.0,
              fallback: bool = False) -> np.ndarray:
    """Extrema of |values(path(t), i)| over the angle t, rows i < k: sups
    for sign 1, infs for sign -1.

    values(x, i) gives row i at the points x for an integer i and, for
    an index array i, row i[j] at x[j].  The m equispaced angles go
    through path once and each row is sampled on them by itself, so no
    k-by-m array is held.  Every row is then refined by a golden-section
    search within 2 pi/m of its best sample, all rows in lockstep, one
    path call and one values call a stage, and keeps the better of the
    two.  When refinement fails to converge, fallback returns the
    sampled values of every row instead of raising.
    """
    th = _angles(m)
    x = path(th)
    coarse, centre = [], []
    for i in range(k):
        vals = np.abs(values(x, i))
        j = int(np.argmax(sign * vals))
        coarse.append(vals[j])
        centre.append(th[j])
    coarse, centre = np.array(coarse, dtype=float), np.array(centre)
    step = 2.0 * np.pi / m
    idx = np.arange(k)
    try:
        fine = _golden_extremum(lambda t: np.abs(values(path(t), idx)),
                                centre - step, centre + step, sign)
    except NonConvergent:
        if not fallback:
            raise
        return coarse
    return np.where(sign * fine > sign * coarse, fine, coarse)
