"""Reference values computed independently of the program under test.

Exact rational arithmetic on plain ``Fraction`` pairs; nothing here
imports ``faberbohr``.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb


def chebyshev_faber(N: int, alpha: Fraction, beta: Fraction) -> list:
    """Ascending coefficients of F_0..F_N of a segment, F_n = 2 T_n(alpha z + beta).

    F_0 is 1.  For [a, b], alpha = 2/(b - a) and beta = -(a + b)/(b - a);
    the canonical segment has alpha = 1, beta = 0.
    """
    prev, cur = [Fraction(1)], [beta, alpha]
    out = [[Fraction(1)], [2 * c for c in cur]]
    for _ in range(2, N + 1):
        nxt = [Fraction(0)] * (len(cur) + 1)
        for k, c in enumerate(cur):
            nxt[k] += 2 * beta * c
            nxt[k + 1] += 2 * alpha * c
        for k, c in enumerate(prev):
            nxt[k] -= c
        prev, cur = cur, nxt
        out.append([2 * c for c in cur])
    return out[: N + 1]


def segment_affine(a: float, b: float) -> tuple[Fraction, Fraction]:
    fa, fb = Fraction(a), Fraction(b)
    return Fraction(2) / (fb - fa), -(fa + fb) / (fb - fa)


def _cmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def disc_faber(N: int, centre: complex, radius: float) -> list:
    """F_n((z - c)/r) = sum_k C(n, k) (1/r)^k (-c/r)^(n-k) z^k, as (re, im) pairs."""
    alpha = 1 / Fraction(radius)
    beta = (-Fraction(centre.real) * alpha, -Fraction(centre.imag) * alpha)
    apow = [Fraction(1)]
    bpow = [(Fraction(1), Fraction(0))]
    for _ in range(N):
        apow.append(apow[-1] * alpha)
        bpow.append(_cmul(bpow[-1], beta))
    out = []
    for n in range(N + 1):
        row = []
        for k in range(n + 1):
            s = comb(n, k) * apow[k]
            row.append((s * bpow[n - k][0], s * bpow[n - k][1]))
        out.append(row)
    return out


def to_complex(c) -> complex:
    if isinstance(c, tuple):
        return complex(float(c[0]), float(c[1]))
    return complex(float(c), 0.0)


def ctext(z: complex) -> str:
    """The CLI's six-digit text rendering of one coefficient."""
    if abs(z.imag) < 1e-14 * max(1.0, abs(z.real)):
        return "%.6g" % z.real
    return "%.6g%+.6gj" % (z.real, z.imag)
