"""Command line behaviour: payload shapes, exit codes, determinism."""

import dataclasses
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import faberbohr as fb
from faberbohr.cli import main, parse_continuum
from test_faber import _bits

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

    def test_depth_zero_custom_map(self, capsys, tmp_path):
        """A custom map with an empty tail, phi(z) = gamma z + gamma0, is
        the disc of radius 1/gamma: its Faber polynomials are the powers
        of phi, and the contour route agrees with them."""
        path = tmp_path / "linear.json"
        path.write_text('{"gamma": 2.0, "gamma0": [0.5, -0.25], "tail": []}')
        rc, out, _ = run(capsys, "--continuum", f"custom:@{path}", "--output",
                         "json", "faber", "--n-max", "3", "--check-contour")
        assert rc == 0
        data = json.loads(out)
        assert data["polynomials"][2]["coeffs"] == [
            [0.1875, -0.25], [2.0, -1.0], [4.0, 0.0]]
        assert data["contour_check"]["max_mismatch"] < 1e-12
        K = parse_continuum(f"custom:@{path}")
        z = np.array([1.0 + 1.0j, -3.0, 2.0j])
        assert np.array_equal(fb.phi(K, z), 2.0 * z + (0.5 - 0.25j))
        w = fb.phi(K, z)
        assert np.array_equal(fb.psi(K, w), z)
        assert np.array_equal(fb.psi_prime(K, w), np.full(3, 0.5 + 0j))
        assert fb.contains(K, 0.0) and not fb.contains(K, 0.5)
        # psi(gamma0) is 0, where the Newton step divides by phi'(0) = gamma
        K = fb.custom(fb.LaurentTail.build(2.0, 3.0, []))
        assert fb.psi(K, 3.0) == 0

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

    @pytest.mark.parametrize("output", ["text", "json", "csv"])
    def test_golden_stdout(self, capsys, output):
        # angles, points, arc length and eccentricity, to the bit
        rc, out, _ = run(capsys, "--continuum", "segment:-0.5,2", "--output",
                         output, "levelset", "--R", "2.5", "--m", "16")
        assert rc == 0
        assert out.encode() == (
            DATA / f"levelset_segment_dyadic.{output}").read_bytes()


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

    @pytest.mark.parametrize("output", ["text", "json", "csv"])
    @pytest.mark.parametrize("name, tol", [("default", None),
                                           ("tol_1e-8", "1e-8")])
    def test_golden_stdout(self, capsys, name, tol, output):
        # the root, its eccentricity and the iteration count, to the bit
        argv = ("--output", output, "bohr-radius") + (("--tol", tol) if tol
                                                      else ())
        rc, out, _ = run(capsys, *argv)
        assert rc == 0
        assert out.encode() == (DATA / f"bohr_radius_{name}.{output}").read_bytes()


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
        ("custom_readme", 4,
         ("--continuum", f"custom:@{DATA / 'readme_map.json'}", "verify",
          "--R", "2.5")),
    ])
    def test_golden_stdout(self, capsys, name, rc, argv):
        # recorded with the same command line; every member's sup, sum
        # and violating coefficient is pinned to the bit
        got, out, _ = run(capsys, "--output", "json", *argv)
        assert got == rc
        assert out.encode() == (DATA / f"verify_{name}.json").read_bytes()

    @pytest.mark.parametrize("output", ["text", "csv"])
    def test_golden_text_and_csv(self, capsys, output):
        # the sums of every member and the violation lines
        rc, out, _ = run(capsys, "--continuum", "disc:0,0,1", "--output",
                         output, "verify", "--R", "2.5", "--count", "6")
        assert rc == 4
        assert out.encode() == (DATA / f"verify_disc_unit.{output}").read_bytes()

    @pytest.mark.parametrize("continuum, R", [
        ("segment:-1,1", "1.5"), ("disc:0,0,1", "1.3"),
        (f"custom:@{DATA / 'readme_map.json'}", "1.3")])
    def test_low_level_writes_nothing_to_stderr(self, capsys, continuum, R):
        """Near K the moebius members are cut at n_coeffs Faber terms by
        design (their sums under-estimate), so no AliasingRisk warning,
        whose advice no flag can follow, reaches stderr."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc, _, err = run(capsys, "--continuum", continuum, "verify",
                             "--R", R, "--count", "12")
        assert rc == 4
        assert [str(w.message) for w in caught] == []
        assert err == ""

    @pytest.mark.parametrize("output", ["json", "csv"])
    def test_golden_empty(self, capsys, output):
        # a campaign with no members: null max_sum and min_slack, a bare header
        rc, out, _ = run(capsys, "--output", output, "verify", "--count", "0")
        assert rc == 0
        assert out.encode() == (DATA / f"verify_empty.{output}").read_bytes()


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

    def test_eps0_below_double_spacing(self, capsys):
        # 1 + 1e-20 rounds to 1: the refusal names eps0, not a level r
        rc, out, err = run(capsys, "estimates", "--eps0", "1e-20")
        assert (rc, out) == (2, "")
        assert err == ("error: collar parameter eps0=1e-20 is too small: "
                       "the collar level 1 + eps0 rounds to 1\n")

    @pytest.mark.parametrize("name, continuum", [
        ("segment_canonical", "segment:-1,1"),
        ("disc_unit", "disc:0,0,1"),
    ])
    def test_golden_stdout(self, capsys, name, continuum):
        # the margin rows at R = 8, R* and the anchor margins of the sweep
        rc, out, _ = run(capsys, "--output", "json", "--continuum", continuum,
                         "estimates")
        assert rc == 0
        assert out.encode() == (DATA / f"estimates_{name}.json").read_bytes()

    def test_golden_custom_readme(self, capsys):
        # the sampled level disc and basis norms of a custom map, to the bit
        rc, out, _ = run(capsys, "--output", "json", "--continuum",
                         f"custom:@{DATA / 'readme_map.json'}", "estimates",
                         "--R", "8")
        assert rc == 0
        assert out.encode() == (DATA / "estimates_custom_readme.json").read_bytes()

    @pytest.mark.parametrize("output", ["text", "csv"])
    def test_golden_text_and_csv(self, capsys, output):
        # every margin row and the text summary of the sweep
        rc, out, _ = run(capsys, "--continuum", "segment:-1,1", "--output",
                         output, "estimates", "--R", "8", "--n-max", "6")
        assert rc == 0
        assert out.encode() == (
            DATA / f"estimates_segment_short.{output}").read_bytes()


class TestCoeffsCommand:
    @staticmethod
    def coeffs(capsys, *argv):
        rc, out, err = run(capsys, "--output", "json", "coeffs", *argv)
        assert (rc, err) == (0, "")
        return [complex(p, q) for p, q in json.loads(out)["coeffs"]]

    def test_faber_basis_vector(self, capsys):
        coeffs = self.coeffs(capsys, "--function", "faber:3", "--n-coeffs", "6")
        assert abs(coeffs[3] - 1.0) < 1e-9
        others = np.delete(coeffs, 3)
        assert np.max(np.abs(others)) < 1e-9

    def test_poly_function(self, capsys):
        coeffs = self.coeffs(capsys, "--function", "poly:0.5,0,0.25",
                             "--n-coeffs", "4")
        # z^2/4 + 1/2 = F_2/16 + 5/8 on [-1, 1]
        assert coeffs[0] == pytest.approx(0.625, abs=1e-9)
        assert coeffs[2] == pytest.approx(0.0625, abs=1e-9)

    @pytest.mark.parametrize("continuum", [
        "segment:-1,1", "disc:0.5,-0.25,1.5",
        f"custom:@{DATA / 'readme_map.json'}"])
    def test_exact_values(self, capsys, continuum):
        """faber:n is e_n and const:c is (c, 0, ...) exactly, and poly:...
        is to_faber_basis to the bit, cut or padded to n_coeffs + 1; the
        sampled route printed a_0..a_2 of faber:3 as ~1e-16."""
        K = parse_continuum(continuum)
        at = ("--continuum", continuum, "--function")
        assert self.coeffs(capsys, *at, "faber:3") == [
            1.0 if n == 3 else 0.0 for n in range(17)]
        assert self.coeffs(capsys, *at, "faber:20") == [0.0] * 17
        assert self.coeffs(capsys, *at, "const:2+1j", "--n-coeffs", "3") == [
            2 + 1j, 0, 0, 0]
        for c, N in (("0.5,0,0.25", 6), ("1j,2,3+4j,0.125,-7", 2)):
            want = fb.to_faber_basis(K, [complex(t) for t in c.split(",")])
            want = list(want[: N + 1]) + [0j] * (N + 1 - len(want))
            got = self.coeffs(capsys, *at, f"poly:{c}", "--n-coeffs", str(N))
            assert [_bits(z) for z in got] == [_bits(z) for z in want]

    @pytest.mark.parametrize("output", ["text", "json", "csv"])
    def test_golden_stdout(self, capsys, output):
        # to_faber_basis of a complex quadratic on [-0.5, 2], to the bit
        rc, out, _ = run(capsys, "--continuum", "segment:-0.5,2", "--output",
                         output, "coeffs", "--function", "poly:1,2j,0.5")
        assert rc == 0
        assert out.encode() == (
            DATA / f"coeffs_poly_segment_dyadic.{output}").read_bytes()

    def test_no_overflow_at_large_radius(self, capsys):
        # F_40 at |w| = 1e10 leaves double range: the sampled route
        # exited 2 here; its Faber coefficients are e_40
        assert self.coeffs(capsys, "--function", "faber:40", "--r", "1e10",
                           "--n-coeffs", "64") == [
            1.0 if n == 40 else 0.0 for n in range(65)]

    @pytest.mark.parametrize("argv, message", [
        (("--r", "0.5"), "extraction radius must exceed 1"),
        (("--r", "1"), "extraction radius must exceed 1"),
        (("--r", "nan"), "--r must be finite; got nan"),
        (("--r", "inf"), "--r must be finite; got inf"),
        (("--n-coeffs", "-1"), "N must be nonnegative"),
        (("--samples", "8", "--n-coeffs", "3"),
         "N=3 exceeds the anti-aliasing limit m/4=2"),
        (("--function", "faber:x"),
         "function 'faber:n' needs an integer index n >= 0; got 'x'"),
        (("--function", "faber:-3"),
         "function 'faber:n' needs an integer index n >= 0; got '-3'"),
        (("--function", "poly:1,x"),
         "function 'poly:c0,c1,...' needs complex-literal fields like 1, "
         "0.5, 1j, 2+3j (no spaces); got '1,x'"),
        (("--function", "const:x"),
         "function 'const:c' needs a complex literal; got 'x'"),
        (("--function", "nope:3"),
         "unknown function kind 'nope'; use 'faber:n', 'poly:c0,c1,...' "
         "or 'const:c'"),
    ])
    def test_refusals(self, capsys, argv, message):
        rc, out, err = run(capsys, "coeffs", *argv)
        assert (rc, out, err) == (2, "", f"error: {message}\n")

    def test_coefficient_beyond_double_range(self, capsys):
        """z^112 on the disc of radius 1000 has a_112 = 1000^112."""
        poly = "poly:" + ",".join(["0"] * 112 + ["1"])
        rc, out, err = run(capsys, "--continuum", "disc:0,0,1000", "coeffs",
                           "--function", poly)
        assert (rc, out, err) == (2, "", f"error: a Faber coefficient of "
                                         f"{poly!r} leaves double range\n")


class TestHelpAndUsage:
    """Every --help text and a set of usage errors, recorded at 80 columns.

    Each entry of cli_help.json holds an argv and the exit code, stdout
    and stderr it gave.
    """

    GOLDEN = json.loads((DATA / "cli_help.json").read_text())

    @pytest.mark.parametrize("key", sorted(GOLDEN))
    def test_golden(self, capsys, monkeypatch, key):
        monkeypatch.setenv("COLUMNS", "80")
        want = self.GOLDEN[key]
        with pytest.raises(SystemExit) as exc:
            main(want["argv"])
        out, err = capsys.readouterr()
        assert (exc.value.code, out, err) == (want["exit"], want["stdout"],
                                             want["stderr"])


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
        ("--continuum", "segment:1e308,1.7e308", "levelset", "--R", "1.25"),
        ("--continuum", "segment:1e308,1.7e308", "estimates", "--R", "8"),
    ], ids=["verify-psi", "verify-pullback", "levelset", "arc-length",
            "estimates"])
    def test_values_beyond_double_range_are_refused(self, capsys, argv):
        """The level curve of segment(1e308, 1.7e308) at R = 4 leaves
        double range, and so does F_24 at |w| = 1e20: the first campaign
        reported NaN sums as violations (exit 4), the second NaN
        certificates as no violation (exit 0), each after RuntimeWarnings.
        At R = 1.25 the curve is in range but its length is not: the
        trapezoid sum overflowed and the doubling loop ended in
        NonConvergent.  Each command exits 2 with one error line and no
        warning."""
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

    @pytest.mark.parametrize("argv, flag", [
        (("--continuum", f"custom:@{DATA / 'readme_map.json'}", "verify",
          "--R", "1e300", "--count", "64", "--family", "scaled_poly"), "--R"),
        (("--continuum", "segment:1e-300,2e-300", "estimates", "--R", "1e300",
          "--eps0", "2", "--n-max", "1"), "--R"),
        *[(("--continuum", "segment:-1,1", "estimates", "--eps0", eps0,
            "--n-max", "4"), "--eps0")
          for eps0 in ("1e-15", "1e-12", "1e-10", "1e-8")],
    ], ids=["verify-scaled-poly-R", "estimates-anchor-R", "eps0-1e-15",
            "eps0-1e-12", "eps0-1e-10", "eps0-1e-8"])
    def test_refusal_names_the_flag(self, capsys, argv, flag):
        """The first two printed numpy RuntimeWarnings (from polyval and
        from the division by NaN sups, and from u * u in phi) before an
        error line that named no flag; the verify run ended in "cannot
        represent nan exactly".  An eps0 from 1e-15 to 1e-8 put the first
        sweep level onto the segment and was refused as "point (1+0j)
        lies on segment", a point the caller never gave.  Each exits 2
        with one error line that names the flag, and no warning."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc, out, err = run(capsys, *argv)
        assert [str(w.message) for w in caught] == []
        assert (rc, out) == (2, "")
        assert err.startswith(f"error: {flag}: ") and err.count("\n") == 1

    def test_eps0_one_in_a_million_still_runs(self, capsys):
        rc, out, _ = run(capsys, "--continuum", "segment:-1,1", "estimates",
                         "--eps0", "1e-6", "--n-max", "4")
        assert rc == 0 and "all hold" in out

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


def test_one_output_writer_in_src():
    """cli is the one module that writes JSON and CSV: no other module
    imports json or names the schema, and no module defines a
    to_json_dict or to_csv method, so library results are plain data."""
    bad = []
    for path in sorted(Path(fb.__file__).parent.glob("*.py")):
        for i, line in enumerate(path.read_text().splitlines(), 1):
            if (re.search(r"\bdef (to_json_dict|to_csv)\b", line)
                    or path.name != "cli.py" and re.search(
                        r"^\s*(import|from) json\b|faberbohr/1", line)):
                bad.append(f"{path.name}:{i}: {line.strip()}")
    assert bad == []


def _dicts_in(value, path="result"):
    """Paths of the dicts held in value, through dataclass fields,
    tuples and lists."""
    if isinstance(value, dict):
        return [path]
    if dataclasses.is_dataclass(value):
        items = [(f".{f.name}", getattr(value, f.name))
                 for f in dataclasses.fields(value)]
    elif isinstance(value, (tuple, list)):
        items = [(f"[{i}]", v) for i, v in enumerate(value)]
    else:
        return []
    return [p for key, v in items for p in _dicts_in(v, path + key)]


def test_library_results_hold_no_dict():
    """Library results are plain data: cli alone names an output key,
    so no verify campaign (with violations), separation table or
    coefficient-bound row holds a dict."""
    seg, udisc = fb.segment(-1.0, 1.0), fb.disc(0j, 1.0)
    fam = fb.BoundedFamily(kind="moebius", count=6, sweep=(0.8, 0.99))
    campaign = fb.bohr_verify(udisc, 2.5, fam)
    assert campaign.violations
    f = fb.gen_bounded(seg, 3.0, fam)[0]
    results = {"bohr_verify": campaign,
               "thm31_conditions": fb.thm31_conditions(seg, 8.0, n_max=4),
               "coeff_bound_check": fb.coeff_bound_check(f)}
    assert {name: _dicts_in(r) for name, r in results.items()} == {
        name: [] for name in results}
