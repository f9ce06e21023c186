"""Command line front end.

Subcommands
-----------
faber        Faber polynomial coefficients, optionally cross-checked
             against the contour route (exit 3 on mismatch beyond 1e-7)
levelset     sample points of a Green level curve
bohr-radius  bisect for the sufficient Bohr level of a segment
verify       run a bounded-family campaign on a level-set domain
             (exit 4 when a counterexample to the classical sum
             threshold is found)
estimates    margins for the separation conditions plus a level sweep
coeffs       exact Faber coefficients of faber:n, const:c or poly:...

A continuum is named as ``segment:a,b``, ``disc:re,im,radius`` or
``custom:@mapfile.json``; the JSON file holds the exterior map as
``{"gamma": g, "gamma0": g0, "tail": [[re, im], ...]}`` where entries
may be plain numbers or ``[re, im]`` pairs.

Exit codes: 0 success, 2 bad arguments or input, 3 contour mismatch,
4 campaign found a violation, 141 stdout was closed early (as by
``| head``).

All output for a fixed command line (including ``--seed``) is
byte-identical between runs.  This module is the only writer of JSON
and CSV, and the only one that names an output key: library results
are plain data (tuples, dataclasses) that each command turns into
records, _jprint adds the schema field and _csv prints every table.

A command imports only what it runs: ``bohr`` and ``estimates`` are
imported inside their commands, and numpy is loaded on first use (see
``_lazy``), so ``faber`` without ``--check-contour``, ``bohr-radius``
and ``coeffs`` of ``faber:n`` or ``const:c`` run on Python ints and
floats alone.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys

from ._lazy import np
from .continua import (
    ContinuumSpec,
    _angles,
    _circle,
    custom,
    disc,
    eccentricity,
    level_boundary,
    psi,
    segment,
)
from .errors import DomainError, FaberBohrError
from .faber import _check_extraction, contour_values, faber_polys
from .series import LaurentTail

SCHEMA = "faberbohr/1"
_CONTOUR_GATE = 1e-7
_ROW_KEYS = ("n", "condition", "lhs", "rhs", "margin")   # estimates rows


# ---------------------------------------------------------------------------
# parsing helpers

def _cnum(v, name: str) -> complex:
    """Map file field `name`, a number or an [re, im] pair, as a finite complex."""
    if isinstance(v, (int, float)):
        z = complex(v)
    elif isinstance(v, (list, tuple)) and len(v) == 2:
        z = complex(float(v[0]), float(v[1]))
    else:
        raise DomainError(f"expected a number or an [re, im] pair, got {v!r}")
    if not cmath.isfinite(z):
        raise DomainError(f"custom map field {name!r} must be finite; got {v!r}")
    return z


def parse_continuum(text: str) -> ContinuumSpec:
    kind, _, rest = text.partition(":")
    if kind == "segment":
        parts = rest.split(",") if rest else []
        if len(parts) != 2:
            raise DomainError(
                f"continuum 'segment' needs two fields 'a,b' (the real "
                f"endpoints), e.g. segment:-1,1; got {rest!r}")
        try:
            a, b = float(parts[0]), float(parts[1])
        except ValueError:
            raise DomainError(
                f"segment fields 'a,b' must be real numbers; got {rest!r}")
        return segment(a, b)
    if kind == "disc":
        parts = rest.split(",") if rest else []
        if len(parts) != 3:
            raise DomainError(
                f"continuum 'disc' needs three fields 're,im,radius' "
                f"(centre and radius), e.g. disc:0,0,1; got {rest!r}")
        try:
            re_, im_, rad = (float(p) for p in parts)
        except ValueError:
            raise DomainError(
                f"disc fields 're,im,radius' must be numbers; got {rest!r}")
        return disc(complex(re_, im_), rad)
    if kind == "custom":
        if not rest.startswith("@"):
            raise DomainError(
                "continuum 'custom' expects '@file.json', a JSON object "
                "with fields 'gamma', 'gamma0' and 'tail'")
        path = rest[1:]
        with open(path) as fh:
            data = json.load(fh)
        for name in ("gamma", "tail"):
            if name not in data:
                raise DomainError(
                    f"custom map file {path} is missing field {name!r} "
                    "(expected 'gamma', optional 'gamma0', and 'tail' as a "
                    "list of [re, im] pairs)")
        tail = LaurentTail.build(
            _cnum(data["gamma"], "gamma"),
            _cnum(data.get("gamma0", 0), "gamma0"),
            [_cnum(t, "tail") for t in data["tail"]],
        )
        return custom(tail)
    raise DomainError(
        f"unknown continuum kind {kind!r}; use 'segment:a,b', "
        "'disc:re,im,radius' or 'custom:@file.json'")


def _parse_sweep(text):
    if text is None or text == "none":
        return None
    parts = text.split(",")
    if len(parts) != 2:
        raise DomainError(
            f"--sweep needs two fields 'lo,hi' in (0, 1), or 'none'; "
            f"got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise DomainError(f"--sweep fields 'lo,hi' must be numbers; got {text!r}")
    return (lo, hi)


# ---------------------------------------------------------------------------
# formatting helpers

def _pair(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _ctext(z) -> str:
    z = complex(z)
    if abs(z.imag) < 1e-14 * max(1.0, abs(z.real)):
        return "%.6g" % z.real
    return "%.6g%+.6gj" % (z.real, z.imag)


def _jprint(payload: dict) -> None:
    print(json.dumps({"schema": SCHEMA, **payload}, indent=2, sort_keys=True))


def _csv(header: str, fmt: str, rows) -> None:
    """The header line, then fmt % row for each row, one line each."""
    print("\n".join([header, *(fmt % row for row in rows)]))


# ---------------------------------------------------------------------------
# subcommands

def _cmd_faber(args, K: ContinuumSpec) -> int:
    polys = faber_polys(K, args.n_max)
    check = None
    status = 0
    if args.check_contour:
        n_chk = min(args.n_max, 16)
        ns = list(range(n_chk + 1))
        zs = np.asarray(psi(K, _circle(1.2, 8)))
        mat = contour_values(K, ns, zs, 1.5, m=args.samples)
        exact = np.array([[polys[n].eval_exact(z) for z in zs] for n in ns])
        mism = float(np.max(np.abs(mat - exact)))
        check = {"max_mismatch": mism, "r": 1.5, "points": len(zs),
                 "n_checked": n_chk}
        if not mism <= _CONTOUR_GATE:
            status = 3

    if args.output == "json":
        payload = {"continuum": K.describe(), "n_max": args.n_max,
                   "polynomials": [
                       {"n": p.n, "gamma": _pair(p.doubles[-1]),
                        "coeffs": [_pair(c) for c in p.doubles]}
                       for p in polys]}
        if check is not None:
            payload["contour_check"] = check
        _jprint(payload)
    elif args.output == "csv":
        _csv("n,k,re,im", "%d,%d,%.17g,%.17g",
             ((p.n, k, c.real, c.imag)
              for p in polys for k, c in enumerate(p.doubles)))
    else:
        print(f"Faber polynomials of {K.describe()}, ascending coefficients")
        for p in polys:
            body = ", ".join(_ctext(c) for c in p.doubles)
            print(f"F_{p.n}: {body}")
        if check is not None:
            tag = "OK" if status == 0 else "MISMATCH"
            print("contour check (%d points, r=%.6g, n<=%d): max deviation "
                  "%.6g [%s]" % (check["points"], check["r"],
                                 check["n_checked"], check["max_mismatch"], tag))
    return status


def _cmd_levelset(args, K: ContinuumSpec) -> int:
    ls = level_boundary(K, args.R, args.m)
    if args.output == "json":
        payload = {"continuum": K.describe(), "R": ls.R,
                   "m": ls.m, "arc_length": float(ls.arc_length),
                   "points": [_pair(z) for z in ls.points]}
        if K.kind == "segment":
            payload["eccentricity"] = eccentricity(args.R)
        _jprint(payload)
    elif args.output == "csv":
        _csv("theta,re,im", "%.17g,%.17g,%.17g",
             ((t, z.real, z.imag) for t, z in zip(_angles(ls.m), ls.points)))
    else:
        print("level curve of %s at R=%.6g: %d points, arc length %.6g"
              % (K.describe(), ls.R, ls.m, ls.arc_length))
        if K.kind == "segment":
            print("ellipse eccentricity %.6g" % eccentricity(args.R))
    return 0


def _cmd_bohr_radius(args) -> int:
    from .bohr import (
        KAPTANOGLU_SADIK_ECCENTRICITY,
        KAPTANOGLU_SADIK_RADIUS,
        segment_bohr_radius,
    )

    res = segment_bohr_radius(args.tol)
    if args.output == "json":
        _jprint({
            "radius": res.radius,
            "eccentricity": res.eccentricity,
            "iterations": res.iterations,
            "bracket": [res.bracket[0], res.bracket[1]],
            "tol": res.tol,
            "reference": {
                "kaptanoglu_sadik_radius": KAPTANOGLU_SADIK_RADIUS,
                "kaptanoglu_sadik_eccentricity": KAPTANOGLU_SADIK_ECCENTRICITY,
            },
        })
    elif args.output == "csv":
        _csv("radius,eccentricity,iterations,tol", "%.17g,%.17g,%d,%.17g",
             [(res.radius, res.eccentricity, res.iterations, res.tol)])
    else:
        print("sufficient Bohr level for a segment: R0 = %.6g "
              "(ellipse eccentricity %.6g)" % (res.radius, res.eccentricity))
        print("bisection: %d iterations on [%.6g, %.6g], tol %.6g"
              % (res.iterations, res.bracket[0], res.bracket[1], res.tol))
        print("reported elliptic-region values for comparison: radius %.6g, "
              "eccentricity %.6g" % (KAPTANOGLU_SADIK_RADIUS,
                                     KAPTANOGLU_SADIK_ECCENTRICITY))
    return 0


def _cmd_verify(args, K: ContinuumSpec) -> int:
    from .bohr import BoundedFamily, bohr_verify

    sweep = _parse_sweep(args.sweep)
    if sweep is None and args.sweep is None and args.family == "moebius":
        sweep = (0.8, 0.99)
    family = BoundedFamily(kind=args.family, seed=args.seed, count=args.count,
                           margin=args.margin, sweep=sweep)
    report = bohr_verify(K, args.R, family)
    if args.output == "json":
        _jprint({
            "continuum": K.describe(),
            "R": report.R,
            "family": {key: getattr(family, key) for key in (
                "kind", "seed", "count", "margin", "sweep", "degree", "rho",
                "n_coeffs", "samples")},
            "count": report.count,
            "min_slack": report.min_slack,
            "max_sum": max(report.sums) if report.sums else None,
            "verdict": report.verdict,
            "evidence_only": report.evidence_only,
            "violations": [
                {"index": i, "sum": report.sums[i], "label": f.label,
                 "coeffs": [_pair(c) for c in f.coeffs]}
                for i, f in report.violations],
        })
    elif args.output == "csv":
        _csv("index,sum", "%d,%.17g", enumerate(report.sums))
    else:
        print("campaign on %s at R=%.6g: family=%s count=%d margin=%.6g"
              % (K.describe(), args.R, args.family, args.count, args.margin))
        if report.sums:
            print("max coefficient sum %.6g, min slack %.6g"
                  % (max(report.sums), report.min_slack))
        print("verdict: %s (%d violation(s); members bounded by "
              "construction, sums are evidence about the campaign only)"
              % (report.verdict, len(report.violations)))
        for i, f in report.violations:
            print("  member %d (%s): sum %.6g" % (i, f.label, report.sums[i]))
    return 4 if report.violations else 0


def _cmd_estimates(args, K: ContinuumSpec) -> int:
    from .estimates import thm31_conditions

    rep = thm31_conditions(K, args.R, eps0=args.eps0, n_max=args.n_max,
                           m=args.samples)
    if args.output == "json":
        _jprint({
            "continuum": K.describe(),
            "R": rep.R,
            "eps0": rep.eps0,
            "C": rep.C,
            "n_max": rep.n_max,
            "anchor": _pair(rep.a),
            "all_hold": rep.all_hold,
            "r_star": rep.r_star,
            "tail_ratio": rep.tail_ratio,
            "tail_dominance_ok": rep.tail_dominance_ok,
            "theta_residual_max": rep.theta_residual_max,
            "anchor_margin_tail": list(rep.anchor_margin_tail),
            "note": rep.note,
            "rows": [dict(zip(_ROW_KEYS, row)) for row in rep.rows],
        })
    elif args.output == "csv":
        _csv(",".join(_ROW_KEYS), "%d,%s,%.17g,%.17g,%.17g", rep.rows)
    else:
        print("separation conditions for %s at R=%.6g (eps0=%.6g, C=%.6g, "
              "n<=%d): %s" % (K.describe(), rep.R, rep.eps0, rep.C, rep.n_max,
                              "all hold" if rep.all_hold else "NOT all hold"))
        worst = {}
        for _, name, _, _, margin in rep.rows:
            if name not in worst or margin < worst[name]:
                worst[name] = margin
        for name in sorted(worst):
            print("  min margin %s: %.6g" % (name, worst[name]))
        print("first grid level with every margin positive: R* = %.6g"
              % rep.r_star)
        print("turned-point residual max %.6g; collar/worst-level ratio "
              "%.6g" % (rep.theta_residual_max, rep.tail_ratio))
        print("note: %s" % rep.note)
    return 0


def _cmd_coeffs(args, K: ContinuumSpec) -> int:
    """Exact Faber coefficients: e_n for faber:n, (c, 0, ...) for const:c
    and to_faber_basis for poly:..., cut or padded to n_coeffs + 1."""
    r, N = args.r, args.n_coeffs
    kind, _, rest = args.function.partition(":")
    monomial = None
    if kind == "faber":
        try:
            n = int(rest)
        except ValueError:
            n = -1
        if n < 0:
            raise DomainError(f"function 'faber:n' needs an integer index "
                              f"n >= 0; got {rest!r}")
        faber = {n: 1.0}
    elif kind == "poly":
        try:
            monomial = [complex(tok) for tok in rest.split(",")]
        except ValueError:
            raise DomainError(
                f"function 'poly:c0,c1,...' needs complex-literal fields "
                f"like 1, 0.5, 1j, 2+3j (no spaces); got {rest!r}")
    elif kind == "const":
        try:
            faber = {0: complex(rest)}
        except ValueError:
            raise DomainError(f"function 'const:c' needs a complex literal; "
                              f"got {rest!r}")
    else:
        raise DomainError(
            f"unknown function kind {kind!r}; use 'faber:n', "
            "'poly:c0,c1,...' or 'const:c'")
    # the extraction radius and the m/4 rule still bound what is asked for
    _check_extraction(r, N, args.samples)
    if monomial is not None:
        from .bohr import to_faber_basis

        try:
            faber = dict(enumerate(to_faber_basis(K, monomial)))
        except DomainError as exc:
            if not isinstance(exc.__cause__, OverflowError):
                raise
            raise DomainError(f"a Faber coefficient of {args.function!r} "
                              "leaves double range") from None
    coeffs = [complex(faber.get(k, 0.0)) for k in range(N + 1)]
    if not all(map(cmath.isfinite, coeffs)):
        raise DomainError(f"function {args.function!r} is not finite")
    if args.output == "json":
        _jprint({"continuum": K.describe(), "r": r,
                 "n_coeffs": args.n_coeffs,
                 "coeffs": [_pair(c) for c in coeffs]})
    elif args.output == "csv":
        _csv("n,re,im", "%d,%.17g,%.17g",
             ((n, c.real, c.imag) for n, c in enumerate(coeffs)))
    else:
        print("Faber coefficients of %s on %s (extraction radius %.6g)"
              % (args.function, K.describe(), r))
        for n, c in enumerate(coeffs):
            print("a_%d = %s" % (n, _ctext(c)))
    return 0


_COMMANDS = {"faber": _cmd_faber, "levelset": _cmd_levelset,
             "verify": _cmd_verify, "estimates": _cmd_estimates,
             "coeffs": _cmd_coeffs}


# ---------------------------------------------------------------------------
# driver

def _add_common(p, top: bool) -> None:
    """Shared flags, valid before or after the subcommand.

    On subparsers the defaults are suppressed so a flag given before the
    subcommand is not clobbered by the subparser's second pass.
    """
    def dflt(v):
        return v if top else argparse.SUPPRESS

    p.add_argument("--continuum", default=dflt("segment:-1,1"),
                   help="segment:a,b | disc:re,im,radius | custom:@file.json "
                        "(default: segment:-1,1)")
    p.add_argument("--output", choices=("text", "json", "csv"),
                   default=dflt("text"), help="output format (default: text)")
    p.add_argument("--seed", type=int, default=dflt(0),
                   help="seed for generated families (default: 0)")
    p.add_argument("--samples", type=int, default=dflt(1024),
                   help="sample count for contours and boundary sups "
                        "(default: 1024)")


def _faber_args(f) -> None:
    f.add_argument("--n-max", dest="n_max", type=int, default=8)
    f.add_argument("--check-contour", action="store_true",
                   help="cross-check the coefficients against the contour "
                        "route; exit 3 on mismatch beyond 1e-7")


def _levelset_args(ls) -> None:
    ls.add_argument("--R", type=float, default=2.0)
    ls.add_argument("--m", type=int, default=256)


def _bohr_radius_args(br) -> None:
    br.add_argument("--tol", type=float, default=1e-6)


def _verify_args(v) -> None:
    v.add_argument("--R", type=float, default=3.0)
    v.add_argument("--family",
                   choices=("moebius", "scaled_poly", "faber_series"),
                   default="moebius")
    v.add_argument("--count", type=int, default=100)
    v.add_argument("--margin", type=float, default=0.01)
    v.add_argument("--sweep", default=None,
                   help="lo,hi grid for the moebius parameter, or 'none' "
                        "for random parameters (moebius default: 0.8,0.99)")


def _estimates_args(e) -> None:
    e.add_argument("--R", type=float, default=8.0)
    e.add_argument("--eps0", type=float, default=0.25)
    e.add_argument("--n-max", dest="n_max", type=int, default=32)


def _coeffs_args(c) -> None:
    c.add_argument("--function", default="faber:1",
                   help="faber:n | poly:c0,c1,... | const:c")
    c.add_argument("--r", type=float, default=2.0,
                   help="extraction radius in the exterior coordinate")
    c.add_argument("--n-coeffs", dest="n_coeffs", type=int, default=16)


# name, help line, and the function that adds the command's own flags
_SUBCOMMANDS = (
    ("faber", "Faber polynomial coefficients", _faber_args),
    ("levelset", "sample a Green level curve", _levelset_args),
    ("bohr-radius", "sufficient Bohr level of the segment", _bohr_radius_args),
    ("verify", "bounded-family campaign", _verify_args),
    ("estimates", "separation-condition margins", _estimates_args),
    ("coeffs", "Faber coefficients of a function", _coeffs_args),
)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="faberbohr",
        description="Faber polynomials, Green level sets and Bohr-type "
                    "coefficient sums for planar continua.")
    _add_common(p, top=True)
    sub = p.add_subparsers(dest="cmd", required=True)
    for name, text, add in _SUBCOMMANDS:
        s = sub.add_parser(name, help=text)
        _add_common(s, top=False)
        add(s)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.samples < 1:
            raise DomainError(
                f"--samples must be a positive integer; got {args.samples}")
        for flag in ("R", "r"):
            value = getattr(args, flag, 0.0)
            if not math.isfinite(value):
                raise DomainError(f"--{flag} must be finite; got {value}")
        if args.cmd == "bohr-radius":
            status = _cmd_bohr_radius(args)
        else:
            K = parse_continuum(args.continuum)
            status = _COMMANDS[args.cmd](args, K)
        sys.stdout.flush()   # a closed pipe shows here, not at exit
        return status
    except FaberBohrError as exc:
        param = getattr(exc, "param", None)
        flag = f"--{param.replace('_', '-')}: " if param else ""
        print(f"error: {flag}{exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader went away: the interpreter's last flush goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
