"""Command line behaviour: payload shapes, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from faberbohr.cli import main

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    rc = main(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


class TestFaberCommand:
    def test_segment_coefficients(self, capsys):
        rc, out, _ = run(capsys, "--output", "json", "faber", "--n-max", "2")
        assert rc == 0
        data = json.loads(out)
        assert data["schema"] == "faberbohr/1"
        assert len(data["polynomials"]) == 3
        assert data["polynomials"][2]["coeffs"] == [
            [-2.0, 0.0], [0.0, 0.0], [4.0, 0.0]]

    def test_degree_zero_only(self, capsys):
        rc, out, _ = run(capsys, "--output", "json", "faber", "--n-max", "0")
        assert rc == 0
        data = json.loads(out)
        assert len(data["polynomials"]) == 1
        assert data["polynomials"][0]["coeffs"] == [[1.0, 0.0]]

    def test_contour_check_disc(self, capsys):
        rc, out, _ = run(capsys, "--continuum", "disc:0,0,1",
                         "--output", "json", "faber", "--n-max", "6",
                         "--check-contour")
        assert rc == 0
        data = json.loads(out)
        assert data["contour_check"]["max_mismatch"] < 1e-10

    def test_csv_layout(self, capsys):
        rc, out, _ = run(capsys, "--output", "csv", "faber", "--n-max", "1")
        lines = out.strip().split("\n")
        assert rc == 0
        assert lines[0] == "n,k,re,im"
        assert len(lines) == 1 + 1 + 2

    @pytest.mark.parametrize("output", ["text", "json", "csv"])
    @pytest.mark.parametrize("name, continuum", [
        ("segment_canonical", "segment:-1,1"),
        ("segment_dyadic", "segment:-0.5,2"),
        ("disc_dyadic", "disc:0.5,-0.25,1.5"),
        ("custom_readme", f"custom:@{DATA / 'readme_map.json'}"),
        ("segment_full_mantissa",
         "segment:-1.2345678901234567,2.718281828459045"),
    ])
    def test_golden_stdout(self, capsys, name, continuum, output):
        # recorded with the same command line; any change in a
        # coefficient bit or in the layout shows up here
        rc, out, _ = run(capsys, "--continuum", continuum, "--output", output,
                         "faber", "--n-max", "12")
        assert rc == 0
        assert out.encode() == (DATA / f"faber_{name}.{output}").read_bytes()

    @pytest.mark.parametrize("name, continuum", [
        ("segment_canonical", "segment:-1,1"),
        ("custom_readme", f"custom:@{DATA / 'readme_map.json'}"),
    ])
    def test_golden_contour_check(self, capsys, name, continuum):
        # max_mismatch compares the float contour route with eval_exact,
        # so this pins both to the byte
        rc, out, _ = run(capsys, "--continuum", continuum, "--output", "json",
                         "faber", "--n-max", "16", "--check-contour")
        assert rc == 0
        assert out.encode() == (DATA / f"faber_contour_{name}.json").read_bytes()


class TestLevelsetCommand:
    def test_csv_rows(self, capsys):
        rc, out, _ = run(capsys, "--output", "csv", "levelset",
                         "--R", "2", "--m", "16")
        lines = out.strip().split("\n")
        assert rc == 0
        assert lines[0] == "theta,re,im"
        assert len(lines) == 17
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == pytest.approx(1.25, abs=1e-12)

    def test_json_points_on_ellipse(self, capsys):
        rc, out, _ = run(capsys, "--output", "json", "levelset",
                         "--R", "2", "--m", "32")
        assert rc == 0
        data = json.loads(out)
        assert data["eccentricity"] == pytest.approx(0.8)
        pts = np.array([complex(p, q) for p, q in data["points"]])
        th = 2.0 * np.pi * np.arange(32) / 32
        want = (2.0 * np.exp(1j * th) + np.exp(-1j * th) / 2.0) / 2.0
        assert np.max(np.abs(pts - want)) < 1e-9


class TestBohrRadiusCommand:
    def test_json_payload(self, capsys):
        rc, out, _ = run(capsys, "--output", "json", "bohr-radius",
                         "--tol", "1e-6")
        assert rc == 0
        data = json.loads(out)
        assert 5.1279 < data["radius"] < 5.1289
        assert data["reference"]["kaptanoglu_sadik_radius"] == 5.1573

    def test_tolerance_consistency(self, capsys):
        _, coarse, _ = run(capsys, "--output", "json", "bohr-radius",
                           "--tol", "1e-3")
        _, fine, _ = run(capsys, "--output", "json", "bohr-radius",
                         "--tol", "1e-8")
        a = json.loads(coarse)["radius"]
        b = json.loads(fine)["radius"]
        assert abs(a - b) < 1.1e-3


class TestVerifyCommand:
    def test_no_violation_exit(self, capsys):
        rc, out, _ = run(capsys, "--continuum", "disc:0,0,1",
                         "--output", "json", "verify", "--R", "3",
                         "--count", "16")
        assert rc == 0
        assert json.loads(out)["verdict"] == "no-violation-found"

    def test_violation_exit(self, capsys):
        rc, out, _ = run(capsys, "--continuum", "disc:0,0,1",
                         "--output", "json", "verify", "--R", "2.5",
                         "--count", "16")
        assert rc == 4
        data = json.loads(out)
        assert data["verdict"] == "violation-found"
        assert data["violations"][0]["sum"] > 1.0

    def test_empty_campaign(self, capsys):
        rc, out, _ = run(capsys, "--output", "json", "verify",
                         "--count", "0")
        assert rc == 0
        data = json.loads(out)
        assert data["count"] == 0
        assert data["min_slack"] is None

    def test_deterministic_output(self, capsys):
        argv = ("--seed", "7", "--output", "json", "verify", "--count", "12")
        rc1, out1, _ = run(capsys, *argv)
        rc2, out2, _ = run(capsys, *argv)
        assert rc1 == rc2
        assert out1 == out2

    @pytest.mark.parametrize("name, rc, argv", [
        ("segment_moebius", 4,
         ("--continuum", "segment:-0.5,2", "verify", "--family", "moebius",
          "--count", "10")),
        ("segment_moebius_random", 0,
         ("--continuum", "segment:-0.5,2", "verify", "--family", "moebius",
          "--sweep", "none")),
        ("segment_scaled_poly", 0,
         ("--continuum", "segment:-0.5,2", "verify", "--family",
          "scaled_poly")),
        ("segment_faber_series", 0,
         ("--continuum", "segment:-0.5,2", "verify", "--family",
          "faber_series")),
        ("disc_default", 0, ("--continuum", "disc:0.5,-0.25,1.5", "verify")),
    ])
    def test_golden_stdout(self, capsys, name, rc, argv):
        # recorded with the same command line; every member's sup, sum
        # and violating coefficient is pinned to the bit
        got, out, _ = run(capsys, "--output", "json", *argv)
        assert got == rc
        assert out.encode() == (DATA / f"verify_{name}.json").read_bytes()


class TestEstimatesCommand:
    def test_json_payload(self, capsys):
        rc, out, _ = run(capsys, "--output", "json", "estimates",
                         "--R", "8", "--n-max", "8")
        assert rc == 0
        data = json.loads(out)
        assert data["all_hold"] is True
        assert data["r_star"] > 1.0
        assert data["theta_residual_max"] <= 1e-9

    def test_csv_header(self, capsys):
        rc, out, _ = run(capsys, "--output", "csv", "estimates",
                         "--R", "8", "--n-max", "4")
        assert rc == 0
        assert out.split("\n")[0] == "n,condition,lhs,rhs,margin"


class TestCoeffsCommand:
    def test_faber_basis_vector(self, capsys):
        rc, out, _ = run(capsys, "--output", "json", "coeffs",
                         "--function", "faber:3", "--n-coeffs", "6")
        assert rc == 0
        coeffs = np.array([complex(p, q)
                           for p, q in json.loads(out)["coeffs"]])
        assert abs(coeffs[3] - 1.0) < 1e-9
        others = np.delete(coeffs, 3)
        assert np.max(np.abs(others)) < 1e-9

    def test_poly_function(self, capsys):
        rc, out, _ = run(capsys, "--output", "json", "coeffs",
                         "--function", "poly:0.5,0,0.25", "--n-coeffs", "4")
        assert rc == 0
        coeffs = np.array([complex(p, q)
                           for p, q in json.loads(out)["coeffs"]])
        # z^2/4 + 1/2 = F_2/16 + 5/8 on [-1, 1]
        assert coeffs[0] == pytest.approx(0.625, abs=1e-9)
        assert coeffs[2] == pytest.approx(0.0625, abs=1e-9)


class TestFailureModes:
    @pytest.mark.parametrize("argv, needle", [
        (("--continuum", "segment:1", "faber"), "a,b"),
        (("--continuum", "disc:0,0", "faber"), "re,im,radius"),
        (("--continuum", "banana:1,2", "faber"), "unknown continuum"),
        (("--continuum", "custom:nofile.json", "faber"), "custom"),
        (("verify", "--sweep", "oops"), "--sweep"),
        (("coeffs", "--function", "nope:3"), "unknown function"),
        (("--samples", "0", "faber", "--check-contour"), "--samples"),
        (("estimates", "--n-max", "0"), "n_max"),
        (("bohr-radius", "--tol", "nan"), "tol"),
        (("--continuum", "disc:0,0,1e-300", "faber"), "overflow"),
        (("coeffs", "--function", "faber:-3"), "faber:n"),
        (("--continuum", "segment:-inf,1", "faber"), "'a' must be finite"),
        (("--continuum", "segment:0,inf", "faber"), "'b' must be finite"),
        (("--continuum", "disc:0,0,inf", "faber"), "'radius' must be finite"),
        (("--continuum", "disc:inf,0,1", "faber"), "'center' must be finite"),
        (("--continuum", "disc:nan,0,1", "faber"), "'center' must be finite"),
        (("--continuum", "segment:-inf,1", "coeffs"), "'a' must be finite"),
        (("--continuum", f"custom:@{DATA / 'map_inf_gamma.json'}", "faber"),
         "'gamma' must be finite"),
        (("--continuum", f"custom:@{DATA / 'map_inf_tail.json'}", "faber"),
         "'tail' must be finite"),
        (("verify", "--sweep", "2,3"), "sweep"),
        (("levelset", "--R", "inf"), "--R"),
        (("verify", "--R", "inf"), "--R"),
        (("estimates", "--R", "inf"), "--R"),
        (("coeffs", "--r", "nan"), "--r"),
        (("coeffs", "--n-coeffs", "-1"), "N must be nonnegative"),
    ])
    def test_exit_two_with_diagnostic(self, capsys, argv, needle):
        rc, _, err = run(capsys, *argv)
        assert rc == 2
        assert needle in err

    @pytest.mark.parametrize("argv", [("estimates", "--R", "1e20"),
                                      ("estimates", "--n-max", "130")])
    def test_estimates_overflow_is_refused(self, capsys, argv):
        """R^n_max past the double range: one error line, no traceback."""
        rc, out, err = run(capsys, *argv)
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "double range" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [
        ("--continuum", "segment:1e308,1.7e308", "verify", "--R", "4",
         "--count", "3"),
        ("verify", "--R", "1e20", "--family", "faber_series", "--count", "3"),
        ("--continuum", "segment:1e308,1.7e308", "levelset", "--R", "4"),
        ("--continuum", "segment:1e308,1.7e308", "estimates", "--R", "8"),
    ], ids=["verify-psi", "verify-pullback", "levelset", "estimates"])
    def test_values_beyond_double_range_are_refused(self, capsys, argv):
        """The level curve of segment(1e308, 1.7e308) at R = 4 leaves
        double range, and so does F_24 at |w| = 1e20: the first campaign
        reported NaN sums as violations (exit 4), the second NaN
        certificates as no violation (exit 0), each after RuntimeWarnings.
        Each command exits 2 with one error line and no warning."""
        rc, out, err = run(capsys, *argv)
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "double range" in err

    def test_missing_custom_file(self, capsys):
        rc, _, err = run(capsys, "--continuum", "custom:@/nonexistent.json",
                         "faber")
        assert rc == 2
        assert "nonexistent" in err

    def test_closed_pipe_ends_quietly(self):
        """A reader that stops early (`| head -1`) is not bad input: the
        command exits 141 (128 + SIGPIPE) with nothing on stderr."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        # ~93 KB of output, more than the pipe holds, so the writer is
        # still writing when the pipe closes
        proc = subprocess.Popen(
            [sys.executable, "-m", "faberbohr", "faber", "--n-max", "100",
             "--output", "csv"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
            bufsize=0)
        assert proc.stdout.readline() == b"n,k,re,im\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
        assert err == b""
