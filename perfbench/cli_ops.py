"""Op lists and output checks for the two cold-CLI workloads.

An op is one ``faberbohr`` command line.  Its check gets the exit code
and the raw stdout and returns None when the answer is right, or a
one-line reason.  An exit code alone never passes a check.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import closed_forms as cf
import inputs

CONTOUR_GATE = 1e-7
BOHR_RADIUS = 5.1282      # the sufficient segment level, four digits
CAMPAIGN_R = 5.2          # just above it, so segment campaigns hold
SUM_RTOL = 1e-9


@dataclass
class Op:
    name: str
    argv: list
    check: Callable[[int, bytes], str | None]
    # fields kept as the seed reference, for ops checked against one
    record: Callable[[int, bytes], object] | None = None


def _exit(code: int, want: int) -> str | None:
    return None if code == want else f"exit code {code}, expected {want}"


def _coeff_mismatch(got_rows, want_rows) -> str | None:
    if len(got_rows) != len(want_rows):
        return f"{len(got_rows)} polynomials, expected {len(want_rows)}"
    for n, (got, want) in enumerate(zip(got_rows, want_rows)):
        if got != want:
            return f"F_{n} coefficients differ from the closed form"
    return None


# ---------------------------------------------------------------------------
# cli-exact

def _check_csv(want):
    def check(code, out):
        bad = _exit(code, 0)
        if bad:
            return bad
        lines = out.decode().splitlines()
        if lines[0] != "n,k,re,im":
            return "missing CSV header"
        rows = [[] for _ in want]
        for line in lines[1:]:
            n, _k, re_, im = line.split(",")
            rows[int(n)].append(complex(float(re_), float(im)))
        return _coeff_mismatch(rows, want)
    return check


def _check_json_polys(want, gammas, contour=False):
    def check(code, out):
        bad = _exit(code, 0)
        if bad:
            return bad
        doc = json.loads(out)
        polys = doc["polynomials"]
        if want is not None:
            bad = _coeff_mismatch(
                [[complex(*c) for c in p["coeffs"]] for p in polys], want)
            if bad:
                return bad
        for p, g in zip(polys, gammas):
            if complex(*p["gamma"]) != g or complex(*p["coeffs"][-1]) != g:
                return f"F_{p['n']} leading coefficient is not gamma^n"
        if len(polys) != len(gammas):
            return f"{len(polys)} polynomials, expected {len(gammas)}"
        if contour:
            mism = doc["contour_check"]["max_mismatch"]
            if not mism < CONTOUR_GATE:
                return f"contour max_mismatch {mism}"
        return None
    return check


def _check_text_polys(want, contour=False):
    want_text = [", ".join(cf.ctext(c) for c in row) for row in want]

    def check(code, out):
        bad = _exit(code, 0)
        if bad:
            return bad
        lines = out.decode().splitlines()
        got = [line.split(": ", 1)[1] for line in lines
               if line.startswith("F_")]
        if got != want_text:
            return "text coefficients differ from the closed form"
        if contour:
            last = lines[-1]
            dev = float(last.split("max deviation ")[1].split()[0])
            if not (dev < CONTOUR_GATE and last.endswith("[OK]")):
                return f"contour check line {last!r}"
        return None
    return check


def cli_exact_ops(seed: int, workdir) -> list:
    a, b = inputs.segment_ends(seed)
    centre, radius = inputs.disc_params(seed)
    spec = inputs.custom_map(seed)
    map_path = workdir / "exact_map.json"
    map_path.write_text(json.dumps(spec))

    canon = [[complex(c) for c in row]
             for row in cf.chebyshev_faber(64, 1, 0)]
    alpha, beta = cf.segment_affine(a, b)
    seg = [[cf.to_complex(c) for c in row]
           for row in cf.chebyshev_faber(40, alpha, beta)]
    seg_gamma = [cf.to_complex((2 * alpha) ** n) for n in range(41)]
    disc = [[cf.to_complex(c) for c in row]
            for row in cf.disc_faber(48, centre, radius)]
    gamma = spec["gamma"]
    cust_gamma = [cf.to_complex(Fraction(gamma) ** n) for n in range(25)]

    def check_custom(code, out):
        bad = _check_json_polys(None, cust_gamma, contour=True)(code, out)
        if bad:
            return bad
        f1 = [complex(*c) for c in json.loads(out)["polynomials"][1]["coeffs"]]
        if f1 != [complex(*spec["gamma0"]), complex(gamma)]:
            return "F_1 is not gamma z + gamma0"
        return None

    return [
        Op("faber64-canonical",
           ["faber", "--n-max", "64", "--continuum", "segment:-1,1",
            "--output", "csv"],
           _check_csv(canon)),
        Op("faber40-segment-json",
           ["--output", "json", "faber", "--n-max", "40",
            "--continuum", inputs.segment_arg(a, b)],
           _check_json_polys(seg, seg_gamma)),
        Op("faber48-disc",
           ["faber", "--n-max", "48", "--continuum",
            inputs.disc_arg(centre, radius)],
           _check_text_polys(disc)),
        Op("faber24-custom-contour",
           ["faber", "--n-max", "24", "--check-contour", "--continuum",
            f"custom:@{map_path}", "--output", "json"],
           check_custom),
        Op("faber16-canonical-contour",
           ["faber", "--n-max", "16", "--check-contour"],
           _check_text_polys(canon[:17], contour=True)),
    ]


# ---------------------------------------------------------------------------
# cli-campaign

def _campaign_record(code, out) -> dict:
    doc = json.loads(out)
    return {"exit": code, "verdict": doc["verdict"], "count": doc["count"],
            "violations": len(doc["violations"]), "max_sum": doc["max_sum"]}


def _estimates_record(code, out) -> dict:
    doc = json.loads(out)
    return {"exit": code, "all_hold": doc["all_hold"], "r_star": doc["r_star"]}


def _match_reference(record, ref) -> Callable:
    def check(code, out):
        if ref is None:
            return "no seed reference for this input"
        got = record(code, out)
        for key, want in ref.items():
            have = got[key]
            if key == "max_sum":
                if not abs(have - want) <= SUM_RTOL * abs(want):
                    return f"max_sum {have!r}, seed reference {want!r}"
            elif have != want:
                return f"{key} {have!r}, seed reference {want!r}"
        return None
    return check


def _check_bohr_radius(reference):
    def check(code, out):
        bad = _exit(code, 0)
        if bad:
            return bad
        doc = json.loads(out)
        got = doc["radius"]
        if (reference is None or round(got, 4) != BOHR_RADIUS
                or abs(got - reference) > doc["tol"]):
            return f"radius {got!r}, expected {BOHR_RADIUS} (seed {reference!r})"
        return None
    return check


def _check_coeffs(k):
    def check(code, out):
        bad = _exit(code, 0)
        if bad:
            return bad
        coeffs = [complex(*c) for c in json.loads(out)["coeffs"]]
        for n, c in enumerate(coeffs):
            if abs(c - (1.0 if n == k else 0.0)) > 1e-9:
                return f"a_{n} = {c}, expected the indicator of F_{k}"
        return None
    return check


def _check_levelset(a, b, R, m):
    import mpmath

    mid, quarter = 0.5 * (a + b), 0.25 * (b - a)
    major, minor = quarter * (R + 1 / R), quarter * (R - 1 / R)
    ecc2 = 1 - (minor / major) ** 2
    perimeter = float(4 * major * mpmath.ellipe(ecc2))

    def check(code, out):
        bad = _exit(code, 0)
        if bad:
            return bad
        doc = json.loads(out)
        pts = [complex(*p) for p in doc["points"]]
        if len(pts) != m:
            return f"{len(pts)} points, expected {m}"
        for j, p in enumerate(pts):
            w = cmath.rect(R, 2 * math.pi * j / m)
            if abs(p - (mid + quarter * (w + 1 / w))) > 1e-12 * major:
                return f"level point {j} off the ellipse"
        if abs(doc["arc_length"] - perimeter) > 1e-8 * perimeter:
            return f"arc length {doc['arc_length']!r}, ellipse {perimeter!r}"
        if abs(doc["eccentricity"] - 2 * R / (1 + R * R)) > 1e-15:
            return "eccentricity differs from 2R/(1+R^2)"
        return None
    return check


def cli_campaign_ops(seed: int, workdir, reference: dict) -> list:
    """Ops for pool entry seed % CAMPAIGN_POOL, checked against reference.

    The reference holds what the seed commit answered for every pool
    entry; record_reference.py writes it from each op's ``record``.
    """
    pool = seed % inputs.CAMPAIGN_POOL
    a, b = inputs.segment_ends(pool)
    centre, radius = inputs.disc_params(pool)
    map_path = workdir / "campaign_map.json"
    map_path.write_text(json.dumps(inputs.custom_map(pool)))
    seg, dsc = inputs.segment_arg(a, b), inputs.disc_arg(centre, radius)
    r = inputs.stream(pool, "campaign")
    level_R = 1.5 + 2.5 * r.random()
    k = r.randrange(1, 12)
    refs = reference.get("entries", {}).get(str(pool), {})

    def recorded(name, argv, record):
        return Op(name, argv, _match_reference(record, refs.get(name)), record)

    def verify(name, cont, R, extra=()):
        return recorded(name, ["verify", "--continuum", cont, "--R", repr(R),
                               *extra, "--output", "json"], _campaign_record)

    def fam(kind):
        return ["--family", kind, "--seed", str(inputs.family_seed(pool, kind))]

    def estimates(name, cont):
        return recorded(name, ["estimates", "--R", "8", "--continuum", cont,
                               "--output", "json"], _estimates_record)

    return [
        verify("verify-segment-moebius", seg, CAMPAIGN_R,
               fam("moebius") + ["--sweep", "none"]),
        verify("verify-segment-scaled_poly", seg, CAMPAIGN_R, fam("scaled_poly")),
        verify("verify-segment-faber_series", seg, CAMPAIGN_R,
               fam("faber_series")),
        verify("verify-disc-2.5", "disc:0,0,1", 2.5),
        verify("verify-disc-3.5", "disc:0,0,1", 3.5),
        verify("verify-custom", f"custom:@{map_path}", 3.0,
               ["--seed", str(inputs.family_seed(pool, "custom"))]),
        estimates("estimates-segment", seg),
        estimates("estimates-disc", dsc),
        Op("bohr-radius", ["bohr-radius", "--tol", "1e-8", "--output", "json"],
           _check_bohr_radius(reference.get("bohr_radius")),
           lambda code, out: json.loads(out)["radius"]),
        Op("coeffs", ["coeffs", "--continuum", seg, "--function", f"faber:{k}",
                      "--r", "2", "--n-coeffs", "16", "--output", "json"],
           _check_coeffs(k)),
        Op("levelset", ["levelset", "--continuum", seg, "--R", repr(level_R),
                        "--m", "256", "--output", "json"],
           _check_levelset(a, b, level_R, 256)),
    ]
