"""Exact Gaussian-rational numbers, exterior map data and the integer kernel.

An exterior conformal map of a compact continuum looks like

    g*z + g0 + g1/z + g2/z**2 + ...

near infinity, and Faber polynomials are the polynomial parts of its
integer powers.  Those polynomial parts have integer-like coefficients
of size comparable to 4**n, so double precision loses the low-order
information that the later evaluation steps need.  Every float is a
dyadic rational, lifting inputs to Gaussian rationals is therefore
lossless, and all arithmetic here is exact.

Every exact quantity is held in one format, a Gaussian-integer triple
(D, re, im): one denominator D and two sequences of Python-int
numerators, entry k being (re[k] + i im[k])/D.  Faber polynomials are
such triples, and so is the map data of a LaurentTail; a float point z
is (X + iY)/2^e.  The Faber constructions, Horner's rule (by shifts),
the powers of a map tail and the change to the Faber basis all run in
Python ints with no gcd per step; rationals of another kind appear only
where LaurentTail.build takes its input.  The single rounding at the
end is an int/int true division, which Python rounds correctly, so
each double is the exact value correctly rounded.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError

__all__ = ["LaurentTail"]


def _not_finite(x) -> DomainError:
    return DomainError(f"cannot represent {x!r} exactly; values must be finite")


def _fraction(x) -> Fraction:
    if isinstance(x, numbers.Integral):   # NumPy integers too
        return Fraction(int(x))
    if not isinstance(x, (float, Fraction)):
        raise TypeError(f"cannot represent {type(x).__name__} exactly")
    try:   # Fraction(float) is exact, not a decimal approximation
        return Fraction(x)
    except (OverflowError, ValueError):
        raise _not_finite(x) from None


def _triple(values) -> tuple:
    """(D, re, im) with values[k] == (re[k] + i im[k])/D for integer,
    float, Fraction or complex values; D is the least common denominator."""
    parts = [_fraction(x) for v in values
             for x in ((v.real, v.imag) if isinstance(v, complex) else (v, 0))]
    D = math.lcm(*(q.denominator for q in parts))
    ints = [q.numerator * (D // q.denominator) for q in parts]
    return D, ints[::2], ints[1::2]


# ---------------------------------------------------------------------------
# Gaussian-integer kernel

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
    """A finite Laurent map g = lead*z + c0 + t_1/z + ... + t_M/z**M, exact.

    ints is the Gaussian-int triple (D, re, im) of lead, c0, t_1, ...,
    t_M in that order: entry i, the coefficient of z^(1 - i), is
    (re[i] + i im[i])/D.  It is kept reduced, D > 0 sharing no factor
    with all the numerators, so equal maps have equal triples.  M, the
    stored depth, is the number of tail terms.  It holds the phi that
    defines a custom continuum, and the psi of a segment or a disc, in
    the variable w (ContinuumSpec.psi_map).
    """

    ints: tuple

    def __post_init__(self):
        D, re, im = self.ints
        if not (D > 0 and len(re) == len(im) >= 2):
            raise DomainError("map data needs D > 0 and lead and c0 at least")
        g = math.gcd(D, *re, *im)
        object.__setattr__(self, "ints", (D // g, tuple(x // g for x in re),
                                          tuple(y // g for y in im)))

    @classmethod
    def build(cls, lead, c0=0, tail=()) -> "LaurentTail":
        """The map from its coefficients, ints, floats, Fractions or
        complex values, each taken exactly."""
        return cls(_triple((lead, c0, *tail)))

    @property
    def M(self) -> int:
        return len(self.ints[1]) - 2

    def scaled(self, factor) -> "LaurentTail":
        """The map times factor, any value build takes, exactly."""
        q, (x,), (y,) = _triple([factor])
        D, re, im = self.ints
        return LaurentTail((D * q, [a * x - b * y for a, b in zip(re, im)],
                            [a * y + b * x for a, b in zip(re, im)]))


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
    d, gre, gim = t.ints
    terms = [(j, x, y) for j, (x, y) in enumerate(zip(gre, gim)) if x or y]
    yield 1, [1], [0]
    cre, cim, dn = list(gre), list(gim), d
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
