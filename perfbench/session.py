"""One long-lived library session, the ``session`` workload's child.

Usage: python3 perfbench/session.py SEED CHILD DEADLINE TRACE SPAN_FILE

The continua and degrees are fixed by SEED, so polynomial and node
caches fill on the first pass and hit afterwards; every pass draws a
fresh set of points, so point-dependent work misses.  Pass 0 is the
set-up pass.  Further passes run until DEADLINE (``time.perf_counter``)
has passed, at least one of them.  With TRACE=1 the set-up pass and
every second pass after it are traced and the spans go to SPAN_FILE at
exit.

One JSON line is printed per pass, with the pass's start and end and
each op's name and failure (null when its answer checked out).
"""

import cmath
import json
import sys
import time
import warnings

import numpy as np

import faberbohr as fb
import inputs

MATCH_GATE = 1e-7      # series against float contour
SPREAD_GATE = 1e-8     # mp contour across the three levels
NS = list(range(25))
IDENTITY_NS = (28, 34, 40)
BOUND_NS = (3, 9, 17)
NORM_ROOT_N = 40


class Session:
    def __init__(self, seed):
        self.seed = seed
        self.seg = fb.segment(*inputs.segment_ends(seed))
        self.disc = fb.disc(*inputs.disc_params(seed))

    def ops(self, r):
        """(name, callable) pairs of one pass; r draws the pass's points."""
        return [
            ("two_routes:segment", lambda: self.two_routes(self.seg, r)),
            ("two_routes:disc", lambda: self.two_routes(self.disc, r)),
            *[(f"identity:{n}", lambda n=n: self.identity(n, r))
              for n in IDENTITY_NS],
            ("faber_coeffs", lambda: self.coeffs(r)),
            ("bounds", lambda: self.bounds(r)),
            ("norm_root", lambda: self.norm_root(r)),
        ]

    def _seg_psi(self, w):
        K = self.seg
        return 0.5 * (K.a + K.b) + 0.25 * (K.b - K.a) * (w + 1 / w)

    def two_routes(self, K, r):
        band = fb.psi(K, inputs.band_points(r, 2, 1.02, 1.3))
        if K.kind == "segment":
            inside = K.a + (K.b - K.a) * r.random()
        else:
            inside = K.center + cmath.rect(0.95 * K.radius * r.random() ** 0.5,
                                           2 * cmath.pi * r.random())
        zs = np.append(band, inside)
        polys = fb.faber_polys(K, 24)
        ref = np.array([[polys[n].eval_exact(z) for z in zs] for n in NS])
        match = float(np.max(np.abs(fb.contour_values(K, NS, zs, 2.0, m=1024)
                                    - ref)))
        vals = [fb.contour_values(K, NS, zs, lvl, m=256, dps=30)
                for lvl in (1.5, 2.0, 3.0)]
        spread = max(float(np.max(np.abs(x - y)))
                     for x, y in ((vals[0], vals[1]), (vals[1], vals[2]),
                                  (vals[0], vals[2])))
        if not match < MATCH_GATE:
            return f"series against float contour {match:.3g}"
        if not spread < SPREAD_GATE:
            return f"mp level spread {spread:.3g}"
        return None

    def identity(self, n, r):
        for w in inputs.band_points(r, 2, 1.1, 1.5):
            if not fb.target_identity_check(self.seg, n, w):
                return f"target identity fails at n={n}, w={w}"
        return None

    def coeffs(self, r):
        """1/(z - p) has Faber coefficients -w0^-(n+1)/psi'(w0), p = psi(w0)."""
        K = self.seg
        w0 = complex(inputs.band_points(r, 1, 5.0, 5.0)[0])
        p = self._seg_psi(w0)
        m, rad, N = 256, 2.0, 24
        w = rad * np.exp(2j * np.pi * np.arange(m) / m)

        def f(z):
            return 1.0 / (z - p)

        got = fb.faber_coeffs(f(fb.psi(K, w)), K, rad, N, fn=f,
                              verify=True).coeffs
        dpsi = 0.25 * (K.b - K.a) * (1 - w0 ** -2)
        want = np.array([-w0 ** -(n + 1) / dpsi for n in range(N + 1)])
        err = float(np.max(np.abs(got - want)))
        if not err <= 1e-10 * float(np.max(np.abs(want))):
            return f"faber_coeffs off the closed form by {err:.3g}"
        return None

    def bounds(self, r):
        K = self.seg
        ctx = fb.make_context(K, 1.5, 4.0, n_max=24)
        outer = inputs.band_points(r, len(BOUND_NS), 1.6, 1.9)
        level = inputs.band_points(r, len(BOUND_NS), 4.0, 4.0)
        for n, wo, wl in zip(BOUND_NS, outer, level):
            on_k = K.a + (K.b - K.a) * r.random()
            checks = (("en_bound", fb.en_bound(ctx, n, fb.psi(K, wo))),
                      ("fn_bounds", fb.fn_bounds(ctx, n, fb.psi(K, wl))),
                      ("fk_bound", fb.fk_bound(ctx, n, on_k)))
            for name, got in checks:
                bound = (got.upper_normalized if name == "fn_bounds"
                         else got.normalized_bound)
                if not got.actual <= bound:
                    return f"{name} n={n}: actual {got.actual} > {bound}"
        return None

    def norm_root(self, r):
        ws = inputs.band_points(r, 3, 1.5, 2.5)
        got = fb.norm_root(self.seg, [self._seg_psi(w) for w in ws],
                                NORM_ROOT_N)
        n = NORM_ROOT_N
        want = max(abs(w ** n + w ** -n) for w in ws) ** (1.0 / n)
        if not abs(got - want) <= 1e-9 * want:
            return f"norm_root {got!r}, closed form {want!r}"
        return None

    def run_pass(self, child, index, tracer=None):
        r = inputs.stream(self.seed, f"session:{child}:{index}")
        results = []
        for name, op in self.ops(r):
            if tracer is not None:
                tracer.op = f"{index}/{name}"
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    err = op()
                except Exception as exc:  # a failed op is counted, not fatal
                    err = f"{type(exc).__name__}: {exc}"
            if err is None and caught:
                err = f"warning: {caught[0].message}"
            results.append([name, err])
        return results


def main():
    seed, child, deadline, trace, span_file = sys.argv[1:6]
    seed, child, deadline = int(seed), int(child), float(deadline)
    session = Session(seed)
    tracer = None
    if trace == "1":
        from spans import Tracer
        tracer = Tracer()
    index = 0
    while index < (3 if tracer else 2) or time.perf_counter() < deadline:
        traced = tracer is not None and index % 2 == 0
        if traced:
            tracer.install()
        start = time.perf_counter()
        results = session.run_pass(child, index, tracer if traced else None)
        end = time.perf_counter()
        if traced:
            tracer.uninstall()
        print(json.dumps({"pass": index, "traced": traced, "start": start,
                          "end": end, "ops": results}), flush=True)
        index += 1
    if tracer is not None:
        tracer.write(span_file)


if __name__ == "__main__":
    main()
