"""Exact Gaussian-rational numbers, exterior map data and the integer kernel.

An exterior conformal map of a compact continuum looks like

    g*z + g0 + g1/z + g2/z**2 + ...

near infinity, and Faber polynomials are the polynomial parts of its
integer powers.  Those polynomial parts have integer-like coefficients
of size comparable to 4**n, so double precision loses the low-order
information that the later evaluation steps need.  Every float is a
dyadic rational, lifting inputs to Gaussian rationals is therefore
lossless, and all arithmetic here is exact.  Complex views are offered
wherever a consumer only needs doubles.

Exact polynomials are held in one format, a Gaussian-integer triple
(D, re, im): one denominator D and two lists of Python-int numerators,
coefficient k being (re[k] + i im[k])/D.  A float point z is
(X + iY)/2^e.  The Faber constructions, Horner's rule (by shifts),
the powers of a map tail and the change to the Faber basis all run in
Python ints with no gcd per step; QC pairs of Fractions remain for map
data and the segment target identity.  The single rounding at the end
is an int/int true division, which Python rounds correctly, so the
doubles are the ones float(Fraction) gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError

__all__ = ["QC", "LaurentTail"]


def _not_finite(x) -> DomainError:
    return DomainError(f"cannot represent {x!r} exactly; values must be finite")


def _fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, float)):
        # Fraction(float) is exact, not a decimal approximation.
        try:
            return Fraction(x)
        except (OverflowError, ValueError):
            raise _not_finite(x) from None
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



# ---------------------------------------------------------------------------
# Gaussian-integer kernel

def _gauss_ints(values) -> tuple:
    """(D, re, im) with values[k] == (re[k] + i im[k]) / D, for QC values;
    D is the least common denominator."""
    D = math.lcm(*(q.denominator for v in values for q in (v.re, v.im)))
    return (D, [v.re.numerator * (D // v.re.denominator) for v in values],
            [v.im.numerator * (D // v.im.denominator) for v in values])


def _dyadic(z: complex) -> tuple:
    """(X, Y, d) with z == (X + iY)/d exactly and d a power of two."""
    try:
        p, q = z.real.as_integer_ratio()
        r, s = z.imag.as_integer_ratio()
    except (OverflowError, ValueError):
        raise _not_finite(z.imag if math.isfinite(z.real) else z.real) from None
    d = max(q, s)
    return p * (d // q), r * (d // s), d


def _gauss_horner(D: int, re, im, X: int, Y: int, d: int) -> tuple:
    """sum((re[k] + i im[k])/D * ((X + iY)/d)**k) as (ar, ai, den), the
    value being (ar + i ai)/den with den = D d^n.

    Horner's rule on the numerators, acc = acc (X + iY) + C_k d^(n-k),
    with d split once as o 2^s, o odd: C_k d^(n-k) is C_k o^(n-k)
    shifted by s (n-k), so a dyadic point (o = 1, every float point)
    costs no multiplication by a power of d.
    """
    s = (d & -d).bit_length() - 1
    o, ok, sk = d >> s, 1, 0
    ar, ai = re[-1], im[-1]
    for k in range(len(re) - 2, -1, -1):
        ok *= o
        sk += s
        ar, ai = (ar * X - ai * Y + (re[k] * ok << sk),
                  ar * Y + ai * X + (im[k] * ok << sk))
    return ar, ai, D * ok << sk


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

    def scaled(self, factor) -> "LaurentTail":
        f = QC.of(factor)
        return LaurentTail(self.lead * f, self.c0 * f,
                           tuple(t * f for t in self.tail))


def _polys_from_tail(t: LaurentTail, N: int):
    """Exact polynomial parts of g^0, g^1, ..., g^N for the map g of t,
    yielded one at a time as (d^n, re, im) triples, ascending.

    g^n is kept to depth N - n only: a dropped term climbs one exponent
    per further product by g, N - n products follow, so truncation
    errors never reach z^0.  With g = G/d over the shared denominator
    d, the powers are G^n/d^n with G^n in Gaussian ints.  Entry i of
    G^n is its coefficient of z^(n - i), so a product with entry j of G
    lands in entry i + j, and depth N - n keeps the entries up to N.
    """
    d, gre, gim = _gauss_ints((t.lead, t.c0) + t.tail)
    terms = [(j, x, y) for j, (x, y) in enumerate(zip(gre, gim)) if x or y]
    yield 1, [1], [0]
    cre, cim, dn = gre, gim, d
    for n in range(1, N + 1):
        if n > 1:
            nre, nim = [0] * (N + 1), [0] * (N + 1)
            for j, x, y in terms:
                for i in range(min(len(cre), N + 1 - j)):
                    a, b = cre[i], cim[i]
                    nre[i + j] += a * x - b * y
                    nim[i + j] += a * y + b * x
            cre, cim, dn = nre, nim, dn * d
        yield dn, cre[n::-1], cim[n::-1]
