"""Truncated Laurent series at infinity with exact rational coefficients.

An exterior conformal map of a compact continuum looks like

    g*z + g0 + g1/z + g2/z**2 + ...

near infinity, and Faber polynomials are the polynomial parts of its
integer powers.  Those polynomial parts have integer-like coefficients
of size comparable to 4**n, so double precision convolution loses the
low-order information that the later evaluation steps need.  Every
float is a dyadic rational, lifting inputs to Gaussian rationals is
therefore lossless, and all series arithmetic here is exact.  Complex
views are offered wherever a consumer only needs doubles.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError

__all__ = [
    "QC",
    "LaurentTail",
    "GradedLaurent",
    "laurent_mul",
    "laurent_pow",
    "split_parts",
]


def _fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, float)):
        # Fraction(float) is exact, not a decimal approximation.
        try:
            return Fraction(x)
        except (OverflowError, ValueError):
            raise DomainError(f"cannot represent {x!r} exactly; values must "
                              "be finite") from None
    raise TypeError(f"cannot represent {type(x).__name__} exactly")


class QC:
    """A complex number whose real and imaginary parts are Fractions."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _fraction(re)
        self.im = _fraction(im)

    @classmethod
    def of(cls, value) -> "QC":
        if isinstance(value, QC):
            return value
        if isinstance(value, complex):
            return cls(_fraction(value.real), _fraction(value.imag))
        return cls(_fraction(value))

    def __add__(self, other):
        o = QC.of(other)
        return QC(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = QC.of(other)
        return QC(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return QC.of(other).__sub__(self)

    def __mul__(self, other):
        o = QC.of(other)
        return QC(self.re * o.re - self.im * o.im,
                  self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __neg__(self):
        return QC(-self.re, -self.im)

    def inverse(self) -> "QC":
        d = self.re * self.re + self.im * self.im
        if d == 0:
            raise ZeroDivisionError("inverse of exact zero")
        return QC(self.re / d, -self.im / d)

    def __truediv__(self, other):
        return self * QC.of(other).inverse()

    def __rtruediv__(self, other):
        return QC.of(other) * self.inverse()

    def conjugate(self) -> "QC":
        return QC(self.re, -self.im)

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __eq__(self, other):
        if not isinstance(other, (QC, complex, int, float, Fraction)):
            return NotImplemented
        o = QC.of(other)
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"QC({self.re!s}, {self.im!s})"


_QC_ZERO = QC(0)
_QC_ONE = QC(1)


def qc_horner(coeffs, z) -> QC:
    """Evaluate sum(coeffs[k] * z**k) exactly; coeffs ascending."""
    zq = QC.of(z)
    acc = _QC_ZERO
    for c in reversed(coeffs):
        acc = acc * zq + c
    return acc


@dataclass(frozen=True)
class LaurentTail:
    """Exterior map data: lead*z + c0 + tail[0]/z + tail[1]/z**2 + ...

    The tail tuple is the full stored depth; its length is the M of the
    representation.  A continuum given by such a tail is, by definition,
    the one whose exterior map is this finite Laurent polynomial.
    """

    lead: QC
    c0: QC
    tail: tuple

    @classmethod
    def build(cls, lead, c0=0, tail=()) -> "LaurentTail":
        return cls(QC.of(lead), QC.of(c0), tuple(QC.of(t) for t in tail))

    @property
    def M(self) -> int:
        return len(self.tail)

    @property
    def lead_complex(self) -> complex:
        return self.lead.to_complex()

    @property
    def c0_complex(self) -> complex:
        return self.c0.to_complex()

    def tail_complex(self) -> np.ndarray:
        return np.array([t.to_complex() for t in self.tail], dtype=complex)

    def to_graded(self) -> "GradedLaurent":
        return GradedLaurent(1, self.M, (self.lead, self.c0) + self.tail)

    def scaled(self, factor) -> "LaurentTail":
        f = QC.of(factor)
        return LaurentTail(self.lead * f, self.c0 * f,
                           tuple(t * f for t in self.tail))


@dataclass(frozen=True)
class GradedLaurent:
    """Dense truncated Laurent series with exponents in [-M, top].

    data[i] is the coefficient of z**(top - i); every exponent in the
    window is present, so len(data) == top + M + 1.
    """

    top: int
    M: int
    data: tuple

    def __post_init__(self):
        if self.M < 0 or self.top < 0:
            raise DomainError("GradedLaurent needs top >= 0 and M >= 0")
        if len(self.data) != self.top + self.M + 1:
            raise DomainError("GradedLaurent data length must be top + M + 1")

    @classmethod
    def constant(cls, value, M: int = 0) -> "GradedLaurent":
        return cls(0, M, (QC.of(value),) + (_QC_ZERO,) * M)

    def exact_coeff(self, k: int) -> QC:
        if k > self.top or k < -self.M:
            return _QC_ZERO
        return self.data[self.top - k]

    def coeff(self, k: int) -> complex:
        return self.exact_coeff(k).to_complex()

    def as_dict(self) -> dict:
        return {self.top - i: c.to_complex() for i, c in enumerate(self.data)}

    def truncated(self, M_new: int) -> "GradedLaurent":
        if M_new >= self.M:
            pad = (_QC_ZERO,) * (M_new - self.M)
            return GradedLaurent(self.top, M_new, self.data + pad)
        return GradedLaurent(self.top, M_new,
                             self.data[: self.top + M_new + 1])

    def scaled(self, factor) -> "GradedLaurent":
        f = QC.of(factor)
        return GradedLaurent(self.top, self.M, tuple(c * f for c in self.data))

    def __repr__(self):
        head = ", ".join(f"z^{self.top - i}:{c.to_complex():.3g}"
                         for i, c in enumerate(self.data[:3]))
        return f"GradedLaurent(top={self.top}, M={self.M}, [{head}, ...])"


def laurent_mul(a: GradedLaurent, b: GradedLaurent, M: int) -> GradedLaurent:
    """Cauchy product of two truncated series, dropping exponents below -M.

    Exponents >= -M of the result are exact for the inputs as given;
    whether they match the product of deeper untruncated series depends
    on the inputs carrying depth at least M + top of the other factor.
    """
    if M < 0:
        raise DomainError("truncation depth M must be nonnegative")
    top = a.top + b.top
    out = [_QC_ZERO] * (top + M + 1)
    for i, ca in enumerate(a.data):
        if ca.is_zero():
            continue
        ea = a.top - i
        floor = -M - ea
        for j, cb in enumerate(b.data):
            eb = b.top - j
            if eb < floor:
                break  # b.data is ordered by descending exponent
            if cb.is_zero():
                continue
            e = ea + eb
            out[top - e] = out[top - e] + ca * cb
    return GradedLaurent(top, M, tuple(out))


def laurent_pow(s: GradedLaurent, n: int, M: int) -> GradedLaurent:
    """n-th power by repeated squaring, truncating every intermediate.

    Intermediates are kept to depth M + n*max(top, 1).  A term dropped
    at that depth can re-enter the window [-M, ...] only by multiplying
    against a factor of degree above the remaining chain degree, which
    cannot happen, so the reported coefficients do not depend on the
    chosen M (truncation stability) provided the input carries at least
    that working depth.
    """
    if n < 0:
        raise DomainError("only nonnegative powers are defined")
    if M < 0:
        raise DomainError("truncation depth M must be nonnegative")
    if n == 0:
        return GradedLaurent.constant(_QC_ONE, M)
    work = M + n * max(s.top, 1)
    result = None
    base = s
    k = n
    while k:
        if k & 1:
            result = base if result is None else laurent_mul(result, base, work)
        k >>= 1
        if k:
            base = laurent_mul(base, base, work)
    return result.truncated(M)


def split_parts(s: GradedLaurent):
    """Split into (polynomial part, principal part) as complex arrays.

    The polynomial part is ascending [z^0, ..., z^top]; the principal
    part lists [z^-1, ..., z^-M].  Nothing is truncated by the split:
    recombining the two arrays reproduces every stored coefficient.
    """
    poly = np.array([s.data[s.top - k].to_complex() for k in range(s.top + 1)],
                    dtype=complex)
    principal = np.array([s.data[s.top + k].to_complex()
                          for k in range(1, s.M + 1)], dtype=complex)
    return poly, principal


def split_parts_exact(s: GradedLaurent):
    """Exact variant of split_parts, returning tuples of QC."""
    poly = tuple(s.data[s.top - k] for k in range(s.top + 1))
    principal = tuple(s.data[s.top + k] for k in range(1, s.M + 1))
    return poly, principal


def _affine_compose_qc(coeffs, alpha: QC, beta: QC):
    """Coefficients of p(alpha*x + beta) from ascending coeffs of p."""
    out = [coeffs[-1]]
    for c in reversed(coeffs[:-1]):
        nxt = [out[0] * beta + c]
        for i in range(1, len(out) + 1):
            prev = out[i] * beta if i < len(out) else _QC_ZERO
            nxt.append(out[i - 1] * alpha + prev)
        out = nxt
    return tuple(out)


def _polys_from_graded(g: GradedLaurent, N: int):
    """Exact polynomial parts of g^0, g^1, ..., g^N.

    g is an exact Laurent polynomial of top degree 1 (a map tail).
    g^n is kept to depth N - n only: a dropped term climbs one exponent
    per further product by g, N - n products follow, so truncation
    errors never reach z^0.
    """
    out = [(_QC_ONE,)]
    cur = g
    for n in range(1, N + 1):
        if n > 1:
            cur = laurent_mul(cur, g, N - n)
        out.append(split_parts_exact(cur)[0])
    return out
