"""The pure-int high-precision contour route: the reference for the tests.

faber.contour_values(..., dps=...) forms the Gaussian-int sums
S_k(z) = sum_j omega^(jk) B_j(z) for every k and z in one exact float64
GEMM on limbs.  This module keeps the route it replaced, unchanged: the
same fixed-point nodes, weights and B_j(z), with every S_k(z) summed by
three Python-int dot products per k and z.  Both must round the same
integers, so the tests compare them with np.array_equal.
"""

from __future__ import annotations

from operator import add, mul, sub

import numpy as np

from faberbohr.faber import _GUARD_BITS, _fixed


def fixed_nodes(K, r, m):
    """P, the roots of unity at 2**P and the node data, as Python ints;
    the fixed-point conversion of faber._fixed_nodes, without the memo."""
    from mpmath import mp

    P = mp.prec + int(m).bit_length() + _GUARD_BITS
    omega = mp.unitroots(m)
    ws = [mp.mpf(repr(float(r))) * o for o in omega]
    c, ts, dpsi = K.mp_nodes(ws)
    e = max(mp.mag(t) for t in ts)
    return (P, _fixed(omega, P), c, e, _fixed(ts, P - e),
            _fixed([d * w for d, w in zip(dpsi, ws)], P - e))


def contour_mp(K, ns, zs, r, m, dps) -> np.ndarray:
    """contour_values(K, ns, zs, r, m, dps) by integer dot products."""
    from mpmath import mp, mpc

    zs = np.asarray(zs, dtype=complex).ravel()
    out = np.zeros((len(ns), len(zs)), dtype=complex)
    with mp.workdps(dps):
        P, (wr, wi), c, e, (tr, ti), (dr, di) = fixed_nodes(K, r, m)
        rows = {}
        for k in {n % m for n in ns}:
            x = [wr[j * k % m] for j in range(m)]
            y = [wi[j * k % m] for j in range(m)]
            rows[k] = (x, y, list(map(add, x, y)))
        rr = mp.mpf(repr(float(r)))
        scales = [mp.ldexp(rr ** n / m, -2 * P) for n in ns]
        for jz, z in enumerate(zs):
            (zr,), (zi,) = _fixed([mpc(z) - c], P - e)
            u, v = [], []   # B_j = dw_j/(t_j - z) = u_j + i v_j at 2**P
            for a, b, t_re, t_im in zip(dr, di, tr, ti):
                er, ei = t_re - zr, t_im - zi
                den = er * er + ei * ei
                u.append(((a * er + b * ei) << P) // den)
                v.append(((b * er - a * ei) << P) // den)
            # sum of (x + iy)(u + iv) in three products: k1 = (x + y)u,
            # re = k1 - y(u + v), im = k1 + x(v - u)
            upv, vmu = list(map(add, u, v)), list(map(sub, v, u))
            sums = {}
            for k, (x, y, xpy) in rows.items():
                k1 = sum(map(mul, xpy, u))
                sums[k] = (k1 - sum(map(mul, y, upv)),
                           k1 + sum(map(mul, x, vmu)))
            for i, n in enumerate(ns):
                out[i, jz] = complex(mpc(*sums[n % m]) * scales[i])
    return out
