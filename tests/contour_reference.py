"""References for the high-precision contour route of the tests.

faber.contour_values(..., dps=...) builds its nodes from the exact map
in Python ints and forms the Gaussian-int sums
S_k(z) = sum_j omega^(jk) B_j(z) for every k and z in one exact float64
GEMM on limbs.  This module keeps two independent references:

* mp_nodes, the nodes and weights evaluated in mpc arithmetic from
  psi_map, each coefficient rounded once; run at more bits than the
  route uses, it is what the fixed-point nodes are held to;
* contour_mp, the route with every S_k(z) summed by three Python-int dot
  products per k and z.  It reads the same fixed-point nodes
  (faber._fixed_nodes) and roots of unity, forms z - b_0 exactly in
  Fractions and floors it once, and rounds each S_k(z) r^n/m once as a
  Fraction, so both must round the same integers, and the tests compare
  them with np.array_equal; where the stated error bound of a value
  passes double max, which the route refuses, it gives inf.
"""

from __future__ import annotations

import functools
import math
import sys
from fractions import Fraction
from operator import add, mul, sub

import numpy as np

from faberbohr import faber as fbf


def mp_nodes(K, ws):
    """(c, psi - c, psi') at the mpmath nodes ws, in the current
    precision, with c = b_0, the kind's centre.  Each coefficient of
    psi_map is read exactly and rounded once to that precision."""
    from mpmath import mp
    from mpmath.libmp import from_rational

    D, re, im = K.psi_map.ints
    prec, rnd = mp._prec_rounding
    lead, c, *tail = [mp.make_mpc((from_rational(x, D, prec, rnd),
                                   from_rational(y, D, prec, rnd)))
                      for x, y in zip(re, im)]
    ts, dpsi = [], []
    for w in ws:
        t, dt = lead * w, lead
        if tail:
            u = 1 / w
            t += sum(b * u ** k for k, b in enumerate(tail, 1))
            dt -= sum(k * b * u ** (k + 1) for k, b in enumerate(tail, 1))
        ts.append(t)
        dpsi.append(dt)
    return c, ts, dpsi


@functools.lru_cache(maxsize=16)
def _unitroots(m, prec):
    from mpmath import mp

    with mp.workprec(prec):
        return tuple(mp.unitroots(m))


def reference_nodes(K, r, m):
    """The nodes psi(w_j) - b_0 and the weights psi'(w_j) w_j at
    w_j = r omega^j, r the double, as mpc in the current precision."""
    from mpmath import mp

    ws = [mp.mpf(float(r)) * o for o in _unitroots(m, mp.prec)]
    _, ts, dpsi = mp_nodes(K, ws)
    return ts, [d * w for d, w in zip(dpsi, ws)]


def _double(x: Fraction) -> float:
    """x correctly rounded to a double, or inf of its sign beyond range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _swamped(ns, dens, r, P, e, prec) -> list:
    """Whether the stated bound 3 u kappa r^n of the route passes double
    max at each degree, for a point whose nodes lie at the integer
    squared distances dens at 2**(2 (P - e)): u = 2^-prec, A = 2^e,
    g the least distance, kappa = 1 + (A/g)(1 + A/g).  The bound is
    claimed only where 8 u A <= g, and False is returned elsewhere."""
    from mpmath import mp

    with mp.workprec(64):
        u, A = mp.ldexp(1, -prec), mp.ldexp(1, e)
        g = mp.ldexp(mp.sqrt(min(dens)), e - P)
        kappa = 1 + A / g * (1 + A / g)
        top = mp.mpf(sys.float_info.max)
        return [8 * u * A <= g and 3 * u * kappa * mp.mpf(float(r)) ** n > top
                for n in ns]


def contour_mp(K, ns, zs, r, m, dps) -> np.ndarray:
    """contour_values(K, ns, zs, r, m, dps) by integer dot products, with
    inf in each part that leaves double range, and in both parts where
    the stated bound does, where the route raises."""
    from mpmath.libmp import dps_to_prec

    zs = np.asarray(zs, dtype=complex).ravel()
    out = np.zeros((len(ns), len(zs)), dtype=complex)
    P, _, e, (tr, ti), (dr, di) = fbf._fixed_nodes(K, r, m, dps)
    prec = dps_to_prec(dps)
    (wr, wi), _ = fbf._unit_roots(m, prec)
    D, re, im = K.psi_map.ints
    at = Fraction(2) ** (P - e)
    rows = {}
    for k in {n % m for n in ns}:
        x = [wr[j * k % m] for j in range(m)]
        y = [wi[j * k % m] for j in range(m)]
        rows[k] = (x, y, list(map(add, x, y)))
    scales = [Fraction(float(r)) ** n / (m << 2 * P) for n in ns]
    for jz, z in enumerate(zs):
        # z - b_0 in Fractions, floored once at 2**(P - e)
        zr = math.floor((Fraction(z.real) - Fraction(re[1], D)) * at)
        zi = math.floor((Fraction(z.imag) - Fraction(im[1], D)) * at)
        u, v, dens = [], [], []   # B_j = dw_j/(t_j - z) = u_j + i v_j at 2**P
        for a, b, t_re, t_im in zip(dr, di, tr, ti):
            er, ei = t_re - zr, t_im - zi
            den = er * er + ei * ei
            u.append(((a * er + b * ei) << P) // den)
            v.append(((b * er - a * ei) << P) // den)
            dens.append(den)
        # sum of (x + iy)(u + iv) in three products: k1 = (x + y)u,
        # re = k1 - y(u + v), im = k1 + x(v - u)
        upv, vmu = list(map(add, u, v)), list(map(sub, v, u))
        sums = {}
        for k, (x, y, xpy) in rows.items():
            k1 = sum(map(mul, xpy, u))
            sums[k] = (k1 - sum(map(mul, y, upv)), k1 + sum(map(mul, x, vmu)))
        for i, (n, swamped) in enumerate(zip(ns, _swamped(ns, dens, r, P, e,
                                                          prec))):
            sr, si = sums[n % m]
            out[i, jz] = (complex(math.inf, math.inf) if swamped else
                          complex(_double(sr * scales[i]),
                                  _double(si * scales[i])))
    return out
