"""Seeded inputs for the benchmark workloads.

Everything the program under test receives is made here from the run
seed: segment endpoints, disc centres and radii, custom exterior maps,
interior and exterior points and the ``--seed`` of each bounded family.
``random.Random`` is used rather than numpy so that a seed gives the
same inputs on every numpy version.

Floats are drawn with full 53-bit mantissas, so the exact series
arithmetic works on integers of the same size whatever the seed; the
cost of an op then depends on the seed only through sampling effects.
"""

from __future__ import annotations

import cmath
import math
import random

import numpy as np

# cli-campaign compares verdicts and sums with values recorded at the
# seed commit, so its inputs come from a fixed pool of this many seeds.
CAMPAIGN_POOL = 32

# A custom map is admitted only when every critical value of its
# exterior map lies in |w| <= this (univalence is not yet checked by the
# library itself).
CRITICAL_LIMIT = 0.9


def stream(seed: int, name: str) -> random.Random:
    """An independent, reproducible random stream per purpose."""
    return random.Random(f"{seed}:{name}")


def segment_ends(seed: int) -> tuple[float, float]:
    r = stream(seed, "segment")
    a = -0.5 - 2.0 * r.random()
    return a, a + 1.0 + 3.0 * r.random()


def disc_params(seed: int) -> tuple[complex, float]:
    r = stream(seed, "disc")
    centre = complex(2.0 * r.random() - 1.0, 2.0 * r.random() - 1.0)
    return centre, 0.5 + 1.5 * r.random()


def critical_values(gamma: complex, gamma0: complex, tail) -> np.ndarray:
    """phi at the roots of z^(M+1) phi'(z), phi = gamma z + gamma0 + sum t_k z^-k."""
    M = len(tail)
    # z^(M+1) phi'(z) = gamma z^(M+1) - sum_k k t_k z^(M-k), highest power first
    poly = [gamma, 0.0] + [-(k + 1) * tail[k] for k in range(M)]
    roots = np.roots(np.asarray(poly, dtype=complex))
    vals = gamma * roots + gamma0
    for k, t in enumerate(tail, start=1):
        vals = vals + t * roots ** (-k)
    return vals


def custom_map(seed: int) -> dict:
    """A three-term exterior map whose critical values satisfy |phi| <= 0.9.

    Only the phases are random: fixed coefficient sizes keep the Newton
    work of inverting the map nearly the same for every seed.
    """
    r = stream(seed, "custom")
    while True:
        gamma = 1.0 + 0.01 * r.random()
        gamma0 = cmath.rect(0.1, 2.0 * math.pi * r.random())
        tail = [cmath.rect(size, 2.0 * math.pi * r.random())
                for size in (0.12, 0.05, 0.025)]
        crit = critical_values(gamma, gamma0, tail)
        if np.all(np.abs(crit) <= CRITICAL_LIMIT):
            return {"gamma": gamma,
                    "gamma0": [gamma0.real, gamma0.imag],
                    "tail": [[t.real, t.imag] for t in tail]}


def family_seed(seed: int, name: str) -> int:
    return stream(seed, "family:" + name).randrange(2 ** 31)


def segment_arg(a: float, b: float) -> str:
    return f"segment:{a!r},{b!r}"


def disc_arg(centre: complex, radius: float) -> str:
    return f"disc:{centre.real!r},{centre.imag!r},{radius!r}"


def band_points(r: random.Random, count: int, lo: float, hi: float) -> np.ndarray:
    """Points w with lo <= |w| <= hi at uniform random angles."""
    return np.array([cmath.rect(lo + (hi - lo) * r.random(),
                                2.0 * math.pi * r.random())
                     for _ in range(count)])
