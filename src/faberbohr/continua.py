"""Planar continua and their exterior conformal data.

A continuum K here is one of

* a closed disc, exterior map (z - center)/radius,
* a real segment [a, b], exterior map via the inverse Zhukovskii map
  u + sqrt(u*u - 1) on the affine image of [-1, 1],
* a custom continuum defined by a finite Laurent polynomial
  g*z + g0 + g1/z + ... (the map is the definition of the set).

Each kind is one frozen subclass of ContinuumSpec (DiscSpec,
SegmentSpec, CustomSpec) that holds all of its math.

The exterior map phi sends the complement of K onto {|w| > 1} with
phi(inf) = inf and real positive derivative at infinity.  Level sets
{|phi| = r} for r > 1 are the closed analytic curves on which all the
contour machinery of the package lives; the Green function of the
complement is log|phi|.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb
from typing import ClassVar

import numpy as np

from .errors import (
    DomainError,
    FaberBohrError,
    InsideUnitDisc,
    NonConvergent,
    PointInsideK,
    WrongKind,
)
from .series import (
    QC,
    GradedLaurent,
    LaurentTail,
    _polys_from_graded,
)

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
    "exterior_series",
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

    Each kind is one frozen subclass holding all of its math: gamma,
    describe(), membership, phi, psi, psi', the exact series of phi,
    exact Faber coefficients, the pullback F_n(psi(w)), |F_n| on K,
    sup_K |F_n| in closed form (faber_sup, None where it is sampled),
    the boundary path of sup_norm, a disc holding each level curve and
    the high-precision contour nodes.  The module functions validate
    input and delegate.  The members defined here work for any exterior
    map; segments and discs override them with closed forms.
    """

    kind: ClassVar[str]
    faber_sup: ClassVar[float | None] = None

    @cached_property
    def _memo(self) -> dict:
        """Data derived from this continuum, kept in its __dict__ (not a
        field) so that it is freed with it."""
        return {}

    @property
    def capacity(self) -> float:
        """Logarithmic capacity, the reciprocal of gamma."""
        return 1.0 / self.gamma

    def _closure(self, R: float, depth: int) -> "ContinuumSpec":
        g = exterior_series(self, depth).scaled(QC(1) / QC(Fraction(R)))
        return custom(LaurentTail(g.exact_coeff(1), g.exact_coeff(0),
                                  tuple(g.data[2:])))

    def pullback(self, ns, w: np.ndarray) -> np.ndarray:
        """Matrix of F_n(psi(w)), rows indexed by ns, columns by w."""
        from .faber import faber_polys   # faber imports this module

        polys = faber_polys(self, int(max(ns)))
        C = np.zeros((len(polys), len(ns)), dtype=complex)
        for i, n in enumerate(ns):
            C[: n + 1, i] = polys[n].coeffs
        return np.polynomial.polynomial.polyval(psi(self, w), C)

    def abs_faber_on_k(self, n: int, z: complex) -> float:
        """|F_n(z)| for a point z of K."""
        from .faber import faber_poly

        return abs(faber_poly(self, n).eval_exact(z))

    def _boundary_path(self, p):
        """Boundary angle -> values of the polynomial p on the boundary of K."""
        rr = 1.0 + 1e-9
        return lambda t: _eval_on_values(p, psi(self, rr * np.exp(1j * t)))

    def level_disc(self, R: float, m: int) -> tuple:
        """Centre c and radius s with |z - c| <= s on {|phi| = R}.

        Here the centroid of m level points and the sampled, refined
        largest distance from it.
        """
        def level(t):
            return psi(self, R * np.exp(1j * t))

        zc = complex(np.mean(level(_angles(m))))
        return zc, _sample_refine(lambda t: np.abs(level(t) - zc), m, 1.0)

    def mp_nodes(self, ws):
        """psi and psi' at the mpmath nodes ws, in the current precision."""
        raise FaberBohrError("high-precision contour is implemented for "
                             "segment and disc continua only")


@dataclass(frozen=True)
class DiscSpec(ContinuumSpec):
    """The closed disc |z - center| <= radius; phi is (z - center)/radius."""

    center: complex
    radius: float
    kind = "disc"
    faber_sup = 1.0   # F_n = phi^n

    @property
    def gamma(self) -> float:
        """Derivative of the exterior map at infinity (real positive)."""
        return 1.0 / self.radius

    def describe(self) -> str:
        return f"disc(center={self.center}, radius={self.radius})"

    def _contains(self, z: complex) -> bool:
        return abs(z - self.center) <= (self.radius
                                        + MEMBERSHIP_TOL * max(1.0, self.radius))

    def _phi(self, z):
        return (z - self.center) / self.radius

    def _psi(self, w):
        return self.center + self.radius * w

    def _psi_prime(self, w):
        return np.full_like(w, self.radius)

    def _series(self, depth: int) -> GradedLaurent:
        r = Fraction(self.radius)
        c0 = QC.of(complex(self.center)) * QC(-1 / r)
        return GradedLaurent(1, depth, (QC(1 / r), c0) + (QC(0),) * depth)

    def _closure(self, R: float, depth: int) -> ContinuumSpec:
        return disc(self.center, self.radius * R)

    def faber_exact(self, N: int) -> list:
        """Exact coefficients of phi^0, ..., phi^N by the binomial theorem."""
        alpha, beta = self._series(0).data   # phi = alpha z + beta
        apow, bpow = [QC(1)], [QC(1)]
        for _ in range(N):
            apow.append(apow[-1] * alpha)
            bpow.append(bpow[-1] * beta)
        return [tuple(QC(comb(n, k)) * apow[k] * bpow[n - k]
                      for k in range(n + 1))
                for n in range(N + 1)]

    def pullback(self, ns, w: np.ndarray) -> np.ndarray:
        return w[None, :] ** np.asarray(ns, dtype=float)[:, None]

    def abs_faber_on_k(self, n: int, z: complex) -> float:
        return abs((z - self.center) / self.radius) ** n

    def _boundary_path(self, p):
        return lambda t: _eval_on_values(p, self.center
                                         + self.radius * np.exp(1j * t))

    def level_disc(self, R: float, m: int) -> tuple:
        return self.center, self.radius * R

    def mp_nodes(self, ws):
        from mpmath import mp, mpc

        c = mpc(self.center.real, self.center.imag)
        r = mp.mpf(repr(self.radius))
        return [c + r * w for w in ws], [r] * len(ws)


@dataclass(frozen=True)
class SegmentSpec(ContinuumSpec):
    """The real segment [a, b]; phi is u + sqrt(u*u - 1) of its affine image u."""

    a: float
    b: float
    kind = "segment"
    faber_sup = 2.0   # F_n = 2 T_n of the affine variable

    @property
    def gamma(self) -> float:
        """Derivative of the exterior map at infinity (real positive)."""
        return 4.0 / (self.b - self.a)

    @property
    def _canonical(self) -> bool:
        return self.a == -1.0 and self.b == 1.0

    def describe(self) -> str:
        return f"segment([{self.a}, {self.b}])"

    def _contains(self, z: complex) -> bool:
        if self.a <= z.real <= self.b:
            d = abs(z.imag)
        else:
            d = min(abs(z - self.a), abs(z - self.b))
        return d <= MEMBERSHIP_TOL

    def _phi(self, z):
        u = (2.0 * z - (self.a + self.b)) / (self.b - self.a)
        s = np.sqrt(u * u - 1.0)
        w1 = u + s
        w2 = u - s
        return np.where(np.abs(w1) >= np.abs(w2), w1, w2)

    def _psi(self, w):
        mid = 0.5 * (self.a + self.b)
        quarter = 0.25 * (self.b - self.a)
        return mid + quarter * (w + 1.0 / w)

    def _psi_prime(self, w):
        return 0.25 * (self.b - self.a) * (1.0 - w ** -2)

    def _series(self, depth: int) -> GradedLaurent:
        if not self._canonical:
            raise DomainError("series form only available for the segment [-1, 1]")
        return _canonical_segment_graded(depth)

    def faber_exact(self, N: int) -> list:
        """F_0 = 1, F_n = 2 T_n(alpha z + beta), by the Chebyshev recurrence."""
        a, b = Fraction(self.a), Fraction(self.b)
        alpha, beta = 2 / (b - a), -(a + b) / (b - a)
        polys = [(QC(1),)]
        prev, cur = [Fraction(1)], [beta, alpha]   # T_0 and T_1 = u
        for _ in range(N):
            polys.append(tuple(QC(2 * c) for c in cur))
            # T_{n+1} = 2 u T_n - T_{n-1}
            nxt = [2 * beta * c for c in cur] + [Fraction(0)]
            for k, c in enumerate(cur):
                nxt[k + 1] += 2 * alpha * c
            for k, c in enumerate(prev):
                nxt[k] -= c
            prev, cur = cur, nxt
        return polys

    def pullback(self, ns, w: np.ndarray) -> np.ndarray:
        ns = np.asarray(ns)
        P = w[None, :] ** ns.astype(float)[:, None]
        V = P + 1.0 / P
        V[ns == 0] = 1.0
        return V

    def abs_faber_on_k(self, n: int, z: complex) -> float:
        t = (2.0 * z.real - self.a - self.b) / (self.b - self.a)
        cheb = [0.0] * n + [2.0] if n else [1.0]
        return float(abs(np.polynomial.chebyshev.chebval(t, cheb)))

    def _boundary_path(self, p):
        if hasattr(p, "cheb_floats"):
            cheb = p.cheb_floats(self.a, self.b)
            return lambda t: np.polynomial.chebyshev.chebval(np.cos(t), cheb)
        mid, half = 0.5 * (self.a + self.b), 0.5 * (self.b - self.a)
        return lambda t: _eval_on_values(p, mid + half * np.cos(t))

    def level_disc(self, R: float, m: int) -> tuple:
        return 0.5 * (self.a + self.b), 0.25 * (self.b - self.a) * (R + 1.0 / R)

    def mp_nodes(self, ws):
        from mpmath import mp

        mid = (mp.mpf(repr(self.a)) + mp.mpf(repr(self.b))) / 2
        quarter = (mp.mpf(repr(self.b)) - mp.mpf(repr(self.a))) / 4
        return ([mid + quarter * (w + 1 / w) for w in ws],
                [quarter * (1 - 1 / (w * w)) for w in ws])


@dataclass(frozen=True)
class CustomSpec(ContinuumSpec):
    """The continuum whose exterior map is the Laurent polynomial map_tail."""

    map_tail: LaurentTail
    kind = "custom"

    @property
    def gamma(self) -> float:
        """Derivative of the exterior map at infinity (real positive)."""
        return float(self.map_tail.lead.re)

    def describe(self) -> str:
        return f"custom(gamma={self.gamma}, depth={self.map_tail.M})"

    def _contains(self, z: complex) -> bool:
        w = self._phi(np.array([z], dtype=complex))[0]
        if not np.isfinite(w):
            return True
        return abs(w) <= 1.0 + MEMBERSHIP_TOL

    def _phi(self, z):
        t = self.map_tail
        with np.errstate(divide="ignore", invalid="ignore"):
            u = 1.0 / z
            acc = np.zeros_like(z)
            for g in t.tail_complex()[::-1]:
                acc = (acc + g) * u
            return t.lead_complex * z + t.c0_complex + acc

    def _phi_deriv(self, z):
        t = self.map_tail
        u = 1.0 / z
        acc = np.zeros_like(z)
        tc = t.tail_complex()
        for k in range(len(tc), 0, -1):
            acc = (acc - k * tc[k - 1]) * u
        return t.lead_complex + acc * u

    def _psi(self, w):
        t = self.map_tail
        z = (w - t.c0_complex) / t.lead_complex
        tol = 1e-13 * np.maximum(1.0, np.abs(w))
        for _ in range(60):
            f = self._phi(z) - w
            if np.all(np.abs(f) <= tol):
                return z
            z = z - f / self._phi_deriv(z)
        f = self._phi(z) - w
        if np.all(np.abs(f) <= tol):
            return z
        raise NonConvergent("Newton inversion of the custom exterior map stalled")

    def _psi_prime(self, w):
        return 1.0 / self._phi_deriv(self._psi(w))

    def _series(self, depth: int) -> GradedLaurent:
        return self.map_tail.to_graded().truncated(depth)

    def faber_exact(self, N: int) -> list:
        """Polynomial parts of the powers of the stored map tail."""
        return _polys_from_graded(self.map_tail.to_graded(), N)


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
    return SegmentSpec(a=a, b=b)


def custom(tail: LaurentTail) -> ContinuumSpec:
    if not isinstance(tail, LaurentTail):
        raise DomainError("custom continuum needs a LaurentTail map")
    if tail.lead.im != 0 or tail.lead.re <= 0:
        raise DomainError("exterior map must have real positive leading coefficient")
    return CustomSpec(map_tail=tail)


# ---------------------------------------------------------------------------
# membership

def contains(K: ContinuumSpec, z) -> bool:
    """True when z lies on K, within an absolute tolerance of 1e-12.

    Points within tolerance of the boundary count as inside; the
    exterior map is never evaluated there.
    """
    return K._contains(complex(z))


def _check_outside(K: ContinuumSpec, z: np.ndarray):
    for zz in z.ravel():
        if contains(K, zz):
            raise PointInsideK(f"point {zz} lies on {K.describe()}")


# ---------------------------------------------------------------------------
# exterior map and inverse

def phi(K: ContinuumSpec, z):
    """Exterior map value(s); raises PointInsideK on points of K."""
    arr = np.asarray(z, dtype=complex)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    _check_outside(K, arr)
    w = K._phi(arr)
    return complex(w[0]) if scalar else w


def psi(K: ContinuumSpec, w):
    """Inverse of the exterior map, defined for |w| > 1."""
    arr = np.asarray(w, dtype=complex)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if np.any(np.abs(arr) <= 1.0):
        bad = arr[np.abs(arr) <= 1.0][0]
        raise InsideUnitDisc(f"psi is defined for |w| > 1, got {bad}")
    z = K._psi(arr)
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
# exact series of the exterior map

def _sqrt_binomials(depth: int) -> tuple:
    """Coefficients of (1 - x)**(1/2): 1, -1/2, -1/8, -1/16, -5/128, ..."""
    out = [Fraction(1)]
    c = Fraction(1)
    for j in range(1, depth + 1):
        c = c * Fraction(3 - 2 * j, 2 * j)   # C(1/2, j) recurrence
        out.append(c * (-1) ** j)
    return tuple(out)


def _canonical_segment_graded(depth: int) -> GradedLaurent:
    """z + sqrt(z^2-1) = 2z - (1/2)/z - (1/8)/z^3 - ... to the given depth."""
    b = _sqrt_binomials(depth // 2 + 1)
    data = [QC(2), QC(0)]
    for k in range(1, depth + 1):
        if k % 2 == 1:
            data.append(QC(b[(k + 1) // 2]))
        else:
            data.append(QC(0))
    return GradedLaurent(1, depth, tuple(data))


def exterior_series(K: ContinuumSpec, depth: int) -> GradedLaurent:
    """Truncated Laurent series of phi at infinity, exact coefficients.

    Segments are supported in canonical position [-1, 1] only; their
    Faber polynomials come from the Chebyshev recurrence, not from this
    series.
    """
    if depth < 0:
        raise DomainError("depth must be nonnegative")
    return K._series(depth)


def scaled_closure(K: ContinuumSpec, R: float, depth: int = 96) -> ContinuumSpec:
    """The filled level set {green <= log R} as a continuum of its own.

    Its exterior map is phi/R.  For a disc this is again a disc; for the
    canonical segment and for custom continua the scaled map tail is
    materialised as a custom spec.
    """
    if not R > 1.0:
        raise DomainError("level parameter R must exceed 1")
    return K._closure(R, depth)


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

    def thetas(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.m) / self.m

    def to_csv(self) -> str:
        lines = ["theta,re,im"]
        for t, p in zip(self.thetas(), self.points):
            lines.append(f"{t:.17g},{p.real:.17g},{p.imag:.17g}")
        return "\n".join(lines) + "\n"


def level_boundary(K: ContinuumSpec, R: float, m: int = DEFAULT_SAMPLES) -> LevelSet:
    """Sample the level curve at m equispaced angles of the circle |w| = R."""
    if not R > 1.0:
        raise DomainError("level parameter R must exceed 1")
    if m < 8:
        raise DomainError("need at least 8 boundary samples")
    w = R * np.exp(2j * np.pi * np.arange(m) / m)
    pts = psi(K, w)
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
    if not R > 1.0:
        raise DomainError("eccentricity defined for R > 1")
    return 2.0 * R / (1.0 + R * R)


def arc_length(K: ContinuumSpec, r: float, m: int = DEFAULT_SAMPLES,
               rtol: float = 1e-8, max_doublings: int = 12) -> float:
    """Arc length of {|phi| = r} by the periodic trapezoid rule.

    The integrand |psi'(r e^(i theta))| * r is smooth and periodic, so
    the node count is doubled until two successive values agree to
    relative rtol.
    """
    if not r > 1.0:
        raise DomainError("level parameter must exceed 1")

    def value(mm: int) -> float:
        th = 2.0 * np.pi * np.arange(mm) / mm
        w = r * np.exp(1j * th)
        integ = np.abs(psi_prime(K, w)) * r
        return float(np.sum(integ)) * 2.0 * np.pi / mm

    prev = value(m)
    for _ in range(max_doublings):
        m *= 2
        cur = value(m)
        if abs(cur - prev) <= rtol * abs(cur):
            return cur
        prev = cur
    raise NonConvergent("arc length did not stabilise; is the map tail sane?")


def _golden_extremum(f, lo: float, hi: float, sign: float, iters: int = 60) -> float:
    """Golden-section search for extremum of f on [lo, hi]; returns f value."""
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = sign * f(x1), sign * f(x2)
    for _ in range(iters):
        if f1 <= f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = sign * f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = sign * f(x1)
    return sign * max(f1, f2)


def _angles(m: int) -> np.ndarray:
    return 2.0 * np.pi * np.arange(m) / m


def _sample_refine(f, m: int, sign: float, fallback: bool = False) -> float:
    """Extremum of f over the boundary angle: max for sign 1, min for -1.

    f maps an array of angles to real values.  It is sampled at m
    equispaced angles, then one 60-step golden section stage refines
    within 2 pi/m of the best sample; the better of the two is returned.
    With fallback set, the sampled value is returned when refinement
    fails to converge.
    """
    th = _angles(m)
    vals = f(th)
    j = int(np.argmax(sign * vals))
    coarse = float(vals[j])
    step = 2.0 * np.pi / m
    try:
        fine = _golden_extremum(lambda t: float(f(np.array([t]))[0]),
                                th[j] - step, th[j] + step, sign)
    except NonConvergent:
        if not fallback:
            raise
        return coarse
    return sign * max(sign * coarse, sign * fine)


def dist_to_level(K: ContinuumSpec, z, r: float, m: int = DEFAULT_SAMPLES) -> float:
    """Distance from z to the level curve {|phi| = r}.

    Sampled minimum over m boundary points followed by one golden
    section refinement stage in the boundary angle.  If refinement
    cannot improve the sampled value, the sampled value is returned;
    an overestimate here would wrongly tighten the bounds built on it,
    an underestimate only loosens them.
    """
    z = complex(z)
    return _sample_refine(lambda t: np.abs(psi(K, r * np.exp(1j * t)) - z),
                          m, -1.0, fallback=True)


# ---------------------------------------------------------------------------
# sup norms

class SupNorm(float):
    """A float carrying the sample count that produced it."""

    def __new__(cls, value: float, samples: int):
        obj = super().__new__(cls, value)
        obj.samples = samples
        return obj


def _eval_on_values(p, z: np.ndarray) -> np.ndarray:
    """p at z, for a FaberPoly or an ascending coefficient array."""
    coeffs = np.asarray(getattr(p, "coeffs", p), dtype=complex)
    return np.polynomial.polynomial.polyval(z, coeffs)


def sup_norm(p, S, m: int = DEFAULT_SAMPLES) -> SupNorm:
    """Maximum modulus of the polynomial p over a continuum or level set.

    Sampling is followed by one golden section refinement around the
    discrete maximiser.  On segments, polynomials that expose an exact
    Chebyshev-basis view (see FaberPoly.cheb_floats) are evaluated
    through it; monomial evaluation of high-degree Faber data on [-1, 1]
    loses everything to cancellation.
    """
    if isinstance(S, LevelSet):
        def path(t):
            return _eval_on_values(p, psi(S.spec, S.R * np.exp(1j * t)))
    elif isinstance(S, ContinuumSpec):
        path = S._boundary_path(p)
    else:
        raise WrongKind(f"cannot take a sup norm over {type(S).__name__}")
    return SupNorm(_sample_refine(lambda t: np.abs(path(t)), m, 1.0), m)
