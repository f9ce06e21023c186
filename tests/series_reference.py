"""Exact truncated Laurent series: the reference route for the tests.

The n-th Faber polynomial of a continuum is the polynomial part of the
n-th power of its exterior map.  The library builds each kind's Faber
polynomials in closed form; this module keeps the definition itself,
powering a truncated exterior series in QC arithmetic, so the tests can
compare the two bit for bit.  It also keeps the two-step Chebyshev view
(exact affine change of variable, then the monomial-to-Chebyshev
transform) that the one-pass Chebyshev Horner loop of
FaberPoly.cheb_floats replaced, and the QC elimination that the
Gaussian-int elimination of to_faber_basis replaced.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from faberbohr.errors import DomainError
from faberbohr.faber import faber_polys
from faberbohr.series import QC

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


def cheb_view(exact, a: float, b: float) -> np.ndarray:
    """Chebyshev-basis coefficients on [a, b] of the polynomial with exact
    ascending coefficients, by the two-step transform, rounded once."""
    half = Fraction(b) / 2 - Fraction(a) / 2
    mid = Fraction(a) / 2 + Fraction(b) / 2
    cheb = cheb_from_monomial(affine_compose(exact, QC(half), QC(mid)))
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
        return GradedLaurent(1, t.M, (t.lead, t.c0) + t.tail).truncated(depth)
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
        fe = polys[n].exact
        a_n = work[n] / fe[-1]
        out[n] = a_n
        for k in range(n + 1):
            work[k] = work[k] - a_n * fe[k]
        work.pop()
    out[0] = work[0]
    return np.array([c.to_complex() for c in out])
