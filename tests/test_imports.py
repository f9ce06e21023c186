"""What a command imports: numpy on first use, layer modules when needed.

Each check that depends on what is already imported runs in a fresh
interpreter, since the test process itself has numpy and every layer
module loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import faberbohr as fb

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parents[1] / "src"
README = Path(__file__).resolve().parents[1] / "README.md"

# a module counts as loaded once its body has run: until then a lazy
# module is an instance of a ModuleType subclass
_PRELUDE = """
import json, sys, types

def loaded(name):
    return type(sys.modules.get(name)) is types.ModuleType

def numpy_submodules():
    return sorted(n for n in sys.modules if n.startswith("numpy."))
"""

_GOLDEN_FABER = [
    ("segment_canonical", "segment:-1,1"),
    ("segment_dyadic", "segment:-0.5,2"),
    ("disc_dyadic", "disc:0.5,-0.25,1.5"),
    ("custom_readme", f"custom:@{DATA / 'readme_map.json'}"),
    ("segment_full_mantissa", "segment:-1.2345678901234567,2.718281828459045"),
]
_GOLDEN_CONTOUR = [
    ("segment_canonical", "segment:-1,1"),
    ("custom_readme", f"custom:@{DATA / 'readme_map.json'}"),
]


def _fresh(code: str) -> dict:
    """Run _PRELUDE + code in a new interpreter; it prints one JSON line."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", _PRELUDE + code],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _run_cli(runs: dict) -> str:
    """Code that runs main() on each {key: argv} and reports rc and stdout."""
    return f"""
import contextlib, io
from faberbohr.cli import main

out = {{}}
for key, argv in {runs!r}.items():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    out[key] = [rc, buf.getvalue()]
"""


def test_cli_import_leaves_bohr_estimates_and_numpy_unloaded():
    got = _fresh("""
import faberbohr.cli
print(json.dumps({"loaded": [n for n in ("faberbohr.bohr",
                                         "faberbohr.estimates", "numpy")
                             if loaded(n)],
                  "numpy": numpy_submodules()}))
""")
    assert got == {"loaded": [], "numpy": []}


def test_exact_faber_runs_without_numpy():
    """The golden faber commands, and degree 64 on a segment, a disc and
    a custom map in every format, load no numpy and print the same."""
    runs = {f"{name}.{output}": ["--continuum", continuum, "--output", output,
                                 "faber", "--n-max", "12"]
            for name, continuum in _GOLDEN_FABER
            for output in ("text", "json", "csv")}
    continua = dict(_GOLDEN_FABER)
    for name in ("segment_canonical", "disc_dyadic", "custom_readme"):
        for output in ("text", "json", "csv"):
            runs[f"{name}.{output}.64"] = [
                "--continuum", continua[name], "--output", output, "faber",
                "--n-max", "64"]
    got = _fresh(_run_cli(runs) + """
print(json.dumps({"out": out, "numpy": loaded("numpy"),
                  "submodules": numpy_submodules()}))
""")
    assert not got["numpy"] and got["submodules"] == []
    for key, (rc, text) in got["out"].items():
        assert rc == 0, key
        if not key.endswith(".64"):
            assert text.encode() == (DATA / f"faber_{key}").read_bytes(), key
    assert all(len(got["out"][k][1]) > 10_000 for k in got["out"]
               if k.endswith(".64"))


def test_contour_check_loads_numpy_and_matches():
    runs = {name: ["--continuum", continuum, "--output", "json", "faber",
                   "--n-max", "16", "--check-contour"]
            for name, continuum in _GOLDEN_CONTOUR}
    got = _fresh(_run_cli(runs) + """
print(json.dumps({"out": out, "numpy": loaded("numpy")}))
""")
    assert got["numpy"]
    for name, (rc, text) in got["out"].items():
        assert rc == 0
        assert text.encode() == (DATA / f"faber_contour_{name}.json").read_bytes()


def test_bohr_radius_and_exact_coeffs_run_without_numpy():
    """bohr-radius in every format, and coeffs of faber:k and const:c,
    load no numpy; bohr-radius prints its golden stdout."""
    runs = {f"bohr_radius_{name}.{output}": ["--output", output, "bohr-radius",
                                             *extra]
            for name, extra in (("default", []), ("tol_1e-8", ["--tol", "1e-8"]))
            for output in ("text", "json", "csv")}
    for function in ("faber:0", "faber:7", "faber:40", "const:2+1j", "const:0"):
        for output in ("text", "json", "csv"):
            runs[f"coeffs.{function}.{output}"] = [
                "--continuum", f"custom:@{DATA / 'readme_map.json'}",
                "--output", output, "coeffs", "--function", function]
    got = _fresh(_run_cli(runs) + """
print(json.dumps({"out": out, "numpy": loaded("numpy"),
                  "submodules": numpy_submodules()}))
""")
    assert not got["numpy"] and got["submodules"] == []
    for key, (rc, text) in got["out"].items():
        assert rc == 0, key
        if key.startswith("bohr_radius"):
            assert text.encode() == (DATA / key).read_bytes(), key



@pytest.mark.parametrize("extra, draws", [([], False),
                                          (["--sweep", "none"], True),
                                          (["--family", "faber_series"], True)])
def test_verify_loads_numpy_random_only_to_draw(extra, draws):
    """The default Moebius sweep takes its parameters from a fixed grid
    and draws nothing, so it loads no numpy.random; the random families
    do."""
    argv = ["verify", "--R", "5.2", "--count", "2", *extra]
    got = _fresh(_run_cli({"run": argv}) + """
print(json.dumps({"rc": out["run"][0], "random": "numpy.random" in sys.modules}))
""")
    assert got == {"rc": 0, "random": draws}


_NEVER_LOADED = ("mpmath", "numpy.random", "numpy.polynomial")


def test_session_calls_leave_mpmath_random_and_polynomial_unloaded():
    """One pass of the library calls of a long-lived session: both
    contour routes, the dps route at 30 digits, faber_coeffs with
    verify, FaberPoly.__call__, make_context with the three bounds and
    norm_root.  None loads mpmath, numpy.random or numpy.polynomial."""
    got = _fresh(f"""
import cmath
import numpy as np
import faberbohr as fb

seg, dsc = fb.segment(-0.7, 1.9), fb.disc(0.3 - 0.2j, 1.2)
ns = list(range(25))
checks = []
for K in (seg, dsc):
    zs = fb.psi(K, 1.2 * np.exp(1j * np.array([0.4, 2.5, 4.0])))
    exact = np.array([[fb.faber_poly(K, n).eval_exact(z) for z in zs]
                      for n in ns])
    flt = fb.contour_values(K, ns, zs, 2.0, m=1024)
    mp = [fb.contour_values(K, ns, zs, r, m=256, dps=30) for r in (1.5, 3.0)]
    checks += [float(np.max(np.abs(flt - exact))) < 1e-7,
               float(np.max(np.abs(mp[0] - mp[1]))) < 1e-8,
               bool(np.allclose(fb.faber_poly(K, 7)(zs), exact[7]))]
w0 = 5.0 * cmath.exp(0.7j)
p = complex(fb.psi(seg, w0))
w = 2.0 * np.exp(2j * np.pi * np.arange(256) / 256)
fb.faber_coeffs(1.0 / (fb.psi(seg, w) - p), seg, 2.0, 24,
                fn=lambda z: 1.0 / (z - p), verify=True)
ctx = fb.make_context(seg, 1.5, 4.0, n_max=24)
for n in (3, 9, 17):
    fb.en_bound(ctx, n, fb.psi(seg, 1.7 * cmath.exp(1j * n)))
    fb.fn_bounds(ctx, n, fb.psi(seg, 4.0 * cmath.exp(2j * n)))
    fb.fk_bound(ctx, n, 0.1)
fb.norm_root(seg, list(fb.psi(seg, np.array([1.5, 2.0j, -2.5]))), 40)
print(json.dumps({{"checks": checks,
                  "loaded": [n for n in {_NEVER_LOADED!r} if n in sys.modules]}}))
""")
    assert got == {"checks": [True] * 6, "loaded": []}


def test_no_command_loads_mpmath_or_numpy_polynomial():
    """Every command, the contour check, each campaign family and a
    custom map's estimates run without mpmath and numpy.polynomial;
    numpy.random comes in only with a family that draws."""
    readme = f"custom:@{DATA / 'readme_map.json'}"
    runs = {f"{command}.{i}": argv for command, argvs in _TABLE_RUNS.items()
            for i, argv in enumerate(argvs)}
    runs["custom-estimates"] = ["--continuum", readme, "estimates", "--R", "8",
                                "--n-max", "4"]
    runs["custom-verify"] = ["--continuum", readme, "verify", "--R", "3",
                             "--count", "3"]
    draws = {family: ["verify", "--R", "5.2", "--count", "3", "--family",
                      family] for family in ("scaled_poly", "faber_series")}
    report = f"""
print(json.dumps({{"rc": {{k: v[0] for k, v in out.items()}},
                  "loaded": [n for n in {_NEVER_LOADED!r} if n in sys.modules]}}))
"""
    assert _fresh(_run_cli(runs) + report) == {"rc": dict.fromkeys(runs, 0),
                                               "loaded": []}
    assert _fresh(_run_cli(draws) + report) == {
        "rc": dict.fromkeys(draws, 0), "loaded": ["numpy.random"]}


# command lines for each command of the README table "What a command
# loads"; a cell "with `X` only" holds for exactly the runs whose
# command line contains X
_TABLE_RUNS = {
    "faber": [["faber"], ["--output", "json", "faber", "--n-max", "12"],
              ["faber", "--n-max", "4", "--check-contour"]],
    "coeffs": [["coeffs"], ["--output", "csv", "coeffs", "--function", "faber:3"],
               ["coeffs", "--function", "const:2+1j"],
               ["--output", "json", "coeffs", "--function", "poly:0.5,0,0.25"]],
    "bohr-radius": [["bohr-radius"],
                    ["--output", "json", "bohr-radius", "--tol", "1e-8"],
                    ["--output", "csv", "bohr-radius"]],
    "levelset": [["levelset", "--m", "16"]],
    "verify": [["verify", "--R", "5.2", "--count", "2"]],
    "estimates": [["estimates", "--n-max", "2"]],
}


def _readme_table() -> dict:
    """{command: {module: cell}} from the README table."""
    section = README.read_text().split("### What a command loads\n", 1)[1]
    table = next(p for p in section.split("\n\n") if p.startswith("|"))
    header, _, *rows = table.splitlines()
    modules = {"numpy": "numpy", "`bohr`": "faberbohr.bohr",
               "`estimates`": "faberbohr.estimates"}
    names = [modules.get(c.strip(), c.strip())
             for c in header.strip("|").split("|")][1:]
    out = {}
    for row in rows:
        first, *cells = (c.strip() for c in row.strip("|").split("|"))
        for command in first.split(", "):
            out[command.strip("`")] = dict(zip(names, cells))
    return out


def _expected(cell: str, argv: list) -> bool:
    if cell in ("yes", "no"):
        return cell == "yes"
    flag = cell.removeprefix("with `").removesuffix("` only")
    assert cell == f"with `{flag}` only", cell
    return any(flag in arg for arg in argv)


def test_readme_table_names_every_command():
    assert set(_readme_table()) == set(_TABLE_RUNS)


@pytest.mark.parametrize("command", sorted(_TABLE_RUNS))
def test_readme_table_row(command):
    """Each command line loads what its README row says, in a fresh
    interpreter; a stale row fails here."""
    row = _readme_table()[command]
    for argv in _TABLE_RUNS[command]:
        got = _fresh(_run_cli({"run": argv}) + f"""
print(json.dumps({{"rc": out["run"][0],
                  "loaded": {{n: loaded(n) for n in {sorted(row)!r}}}}}))
""")
        assert got["rc"] == 0, argv
        assert got["loaded"] == {n: _expected(cell, argv)
                                 for n, cell in row.items()}, argv


def test_numpy_imported_after_the_package_works():
    got = _fresh("""
import faberbohr
import numpy
print(json.dumps({"norm": float(numpy.linalg.norm([3, 4])),
                  "same": numpy is faberbohr._lazy.np}))
""")
    assert got == {"norm": 5.0, "same": True}


def test_numpy_imported_first_is_the_packages_np():
    got = _fresh("""
import numpy
import faberbohr.cli
from faberbohr import _lazy
print(json.dumps({"same": _lazy.np is numpy, "loaded": loaded("numpy")}))
""")
    assert got == {"same": True, "loaded": True}


def test_star_import_binds_every_export():
    ns = {}
    exec("from faberbohr import *", ns)
    assert set(fb.__all__) <= set(ns)
    for name in fb.__all__:
        home = sys.modules[f"faberbohr.{fb._HOME[name]}"]
        assert ns[name] is getattr(home, name), name
    assert set(fb.__all__) <= set(dir(fb))


def test_unknown_attribute_is_an_attribute_error():
    assert not hasattr(fb, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        fb.no_such_name
