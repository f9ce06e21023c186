"""Exact truncated Laurent series: the reference route for the tests.

The n-th Faber polynomial of a continuum is the polynomial part of the
n-th power of its exterior map.  The library builds each kind's Faber
polynomials in closed form; this module keeps the definition itself,
powering a truncated exterior series in QC arithmetic (complex numbers
as pairs of Fractions), so the tests can compare the two bit for bit.
The library holds every exact number as a Gaussian-int triple
(D, re, im); gauss_ints and qc_values convert between the two formats,
and exact(p) gives the coefficients of a FaberPoly as QC values.

It also keeps the two-step Chebyshev view (exact affine change of
variable, then the monomial-to-Chebyshev transform) that the one-pass
Chebyshev Horner loop of FaberPoly.cheb_floats replaced, the QC
elimination that the Gaussian-int elimination of to_faber_basis
replaced, the Horner loop that multiplied each coefficient by d^(n-k),
which the shift-based series._gauss_horner replaced, and the sqrt
binomial series that the Catalan-number tail of the segment closure
replaced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from faberbohr.errors import DomainError
from faberbohr.faber import faber_polys
from faberbohr.series import _fraction


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


def gauss_ints(values) -> tuple:
    """(D, re, im) with values[k] == (re[k] + i im[k]) / D, for QC values;
    D is the least common denominator."""
    D = math.lcm(*(q.denominator for v in values for q in (v.re, v.im)))
    return (D, [v.re.numerator * (D // v.re.denominator) for v in values],
            [v.im.numerator * (D // v.im.denominator) for v in values])


def qc_values(ints) -> tuple:
    """The entries (re[k] + i im[k])/D of a triple (D, re, im) as QC."""
    D, re, im = ints
    return tuple(QC(Fraction(x, D), Fraction(y, D)) for x, y in zip(re, im))


def exact(p) -> tuple:
    """The coefficients of the FaberPoly p as QC Gaussian rationals."""
    return qc_values(p.ints)


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

    def exact_coeff(self, k: int) -> QC:
        if k > self.top or k < -self.M:
            return _QC_ZERO
        return self.data[self.top - k]

    def truncated(self, M_new: int) -> "GradedLaurent":
        if M_new >= self.M:
            pad = (_QC_ZERO,) * (M_new - self.M)
            return GradedLaurent(self.top, M_new, self.data + pad)
        return GradedLaurent(self.top, M_new,
                             self.data[: self.top + M_new + 1])


def laurent_mul(a: GradedLaurent, b: GradedLaurent, M: int) -> GradedLaurent:
    """Cauchy product of two truncated series, dropping exponents below -M."""
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

    Intermediates are kept to depth M + n*max(top, 1), so the reported
    coefficients do not depend on M provided the input carries at
    least that working depth.
    """
    if n < 0:
        raise DomainError("only nonnegative powers are defined")
    if M < 0:
        raise DomainError("truncation depth M must be nonnegative")
    if n == 0:
        return GradedLaurent(0, M, (_QC_ONE,) + (_QC_ZERO,) * M)
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
    """(polynomial part ascending, principal part [z^-1, ..., z^-M]) as
    complex arrays."""
    poly, principal = split_parts_exact(s)
    return (np.array([c.to_complex() for c in poly], dtype=complex),
            np.array([c.to_complex() for c in principal], dtype=complex))


def split_parts_exact(s: GradedLaurent):
    """Exact variant of split_parts, returning tuples of QC."""
    poly = tuple(s.data[s.top - k] for k in range(s.top + 1))
    principal = tuple(s.data[s.top + k] for k in range(1, s.M + 1))
    return poly, principal


def affine_compose(coeffs, alpha: QC, beta: QC):
    """Coefficients of p(alpha*x + beta) from ascending coeffs of p."""
    out = [coeffs[-1]]
    for c in reversed(coeffs[:-1]):
        nxt = [out[0] * beta + c]
        for i in range(1, len(out) + 1):
            prev = out[i] * beta if i < len(out) else _QC_ZERO
            nxt.append(out[i - 1] * alpha + prev)
        out = nxt
    return tuple(out)


def cheb_from_monomial(coeffs):
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


def cheb_view(coeffs, a: float, b: float) -> np.ndarray:
    """Chebyshev-basis coefficients on [a, b] of the polynomial with exact
    ascending coefficients, by the two-step transform, rounded once."""
    half = Fraction(b) / 2 - Fraction(a) / 2
    mid = Fraction(a) / 2 + Fraction(b) / 2
    cheb = cheb_from_monomial(affine_compose(coeffs, QC(half), QC(mid)))
    return np.array([c.to_complex() for c in cheb])


def _sqrt_binomials(depth: int) -> tuple:
    """Coefficients of (1 - x)**(1/2): 1, -1/2, -1/8, -1/16, -5/128, ..."""
    out = [Fraction(1)]
    c = Fraction(1)
    for j in range(1, depth + 1):
        c = c * Fraction(3 - 2 * j, 2 * j)   # C(1/2, j) recurrence
        out.append(c * (-1) ** j)
    return tuple(out)


def exterior_series(K, depth: int) -> GradedLaurent:
    """Truncated Laurent series of phi at infinity, exact coefficients.

    Segments are supported in canonical position [-1, 1] only.
    """
    if K.kind == "disc":
        r = Fraction(K.radius)
        c0 = QC.of(complex(K.center)) * QC(-1 / r)
        return GradedLaurent(1, depth, (QC(1 / r), c0) + (_QC_ZERO,) * depth)
    if K.kind == "custom":
        t = K.map_tail
        return GradedLaurent(1, t.M, qc_values(t.ints)).truncated(depth)
    if not (K.a == -1.0 and K.b == 1.0):
        raise DomainError("series form only available for the segment [-1, 1]")
    # z + sqrt(z^2-1) = 2z - (1/2)/z - (1/8)/z^3 - ...
    b = _sqrt_binomials(depth // 2 + 1)
    data = [QC(2), QC(0)]
    for k in range(1, depth + 1):
        data.append(QC(b[(k + 1) // 2]) if k % 2 == 1 else QC(0))
    return GradedLaurent(1, depth, tuple(data))


def to_faber_basis(K, coeffs) -> np.ndarray:
    """Faber coefficients of a monomial polynomial by leading-coefficient
    elimination in QC arithmetic, each rounded once."""
    work = [QC.of(complex(c)) for c in np.atleast_1d(np.asarray(coeffs,
                                                                dtype=complex))]
    while len(work) > 1 and work[-1].is_zero():
        work.pop()
    d = len(work) - 1
    polys = faber_polys(K, d)
    out = [QC(0)] * (d + 1)
    for n in range(d, 0, -1):
        fe = exact(polys[n])
        a_n = work[n] / fe[-1]
        out[n] = a_n
        for k in range(n + 1):
            work[k] = work[k] - a_n * fe[k]
        work.pop()
    out[0] = work[0]
    return np.array([c.to_complex() for c in out])


def gauss_horner(D: int, re, im, X: int, Y: int, d: int) -> tuple:
    """sum((re[k] + i im[k])/D * ((X + iY)/d)**k) as (ar, ai, D d^n).

    Horner's rule on the numerators: acc = acc (X + iY) + C_k d^(n-k).
    """
    ar, ai, dk = re[-1], im[-1], 1
    for k in range(len(re) - 2, -1, -1):
        dk *= d
        ar, ai = ar * X - ai * Y + re[k] * dk, ar * Y + ai * X + im[k] * dk
    return ar, ai, D * dk
