"""faberbohr benchmark: cold CLI commands and a warm library session.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cli-exact --seed 1 --seconds 25 --trace 0

``--workload all`` runs the three workloads in turn and ends with one
line holding every workload's metrics.

Workloads (one closed loop, one client, at most one child process
alive at a time):

  cli-exact     cold ``faberbohr faber`` runs that build high-degree
                polynomials in exact series arithmetic
  cli-campaign  cold ``verify``/``estimates``/``bohr-radius``/``coeffs``/
                ``levelset`` runs, dominated by sampling and refinement
  session       long-lived library processes (two per run, each one
                set-up sample) making the two contour routes, the target
                identity, coefficient extraction, the estimate bounds
                and the norm root on fresh points every pass

Passes over the workload's fixed op list repeat until --seconds have
been spent (the pass that crosses the limit completes).  Every op's
answer is checked; a wrong answer, an unexpected exit code, a traceback
on stderr or a timeout makes the op fail.

With --trace 0 the last line of stdout is the end-to-end result
(``wall_s``, ``setup_s``, ``peak_rss_mb``); with --trace 1 passes
alternate between untraced and traced and the last line holds the
per-layer metrics of the traced passes (see spans.py).  Earlier lines
and ``.perfbench_out/<workload>/result.json`` give quartiles, sample
counts, ``fail_frac`` and the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import cli_ops  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("cli-exact", "cli-campaign", "session")
HARD_LIMIT_S = 150.0      # no op may run past this point of a run
SESSION_CHILDREN = 2      # set-up samples per session run
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Child:
    """Outcome of one child process."""

    code: int
    wall: float
    rss_mb: float
    stdout: bytes
    stderr: bytes
    timed_out: bool


class Bench:
    def __init__(self, root: Path, workload: str, seed: int, seconds: float,
                 trace: bool, limit_s: float = HARD_LIMIT_S):
        self.root, self.workload, self.seed = root, workload, seed
        self.seconds, self.trace, self.limit_s = seconds, trace, limit_s
        self.out = root / ".perfbench_out" / workload
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"),
                        PYTHONHASHSEED="0")
        self.env.update({v: "1" for v in THREAD_VARS})
        self.start = time.perf_counter()
        self.attempted = 0
        self.failures = []

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def spawn(self, argv, tag) -> tuple[Child, float]:
        """Run one child to completion; returns it and its spawn time."""
        out_path, err_path = self.out / f"{tag}.out", self.out / f"{tag}.err"
        timeout = max(1.0, self.limit_s - self.elapsed())
        with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], stdout=fo,
                                    stderr=fe, env=self.env, cwd=self.root)
            killed = []
            timer = threading.Timer(timeout,
                                    lambda: (killed.append(1), proc.kill()))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        child = Child(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                      out_path.read_bytes(), err_path.read_bytes(),
                      bool(killed))
        return child, t0

    def record(self, op_name, failure):
        self.attempted += 1
        if failure is not None:
            self.failures.append(f"{op_name}: {failure}")

    # -- cold CLI ----------------------------------------------------------

    def run_cli(self, ops) -> dict:
        passes = []
        traced_groups = []
        while (not passes or self.elapsed() < self.seconds
               or (self.trace and len(passes) < 2)):
            traced = self.trace and len(passes) % 2 == 1
            p = {"traced": traced, "wall": 0.0, "setup": [], "rss": 0.0,
                 "stdout_bytes": 0, "groups": [], "ops": {}}
            for i, op in enumerate(ops):
                tag = f"p{len(passes)}-{i}"
                ready = self.out / f"{tag}.ready"
                span_file = self.out / f"{tag}.spans" if traced else None
                child, t0 = self.spawn(
                    [str(HERE / "child.py"), str(ready),
                     str(span_file or "-"), f"{len(passes)}/{op.name}", "--",
                     *op.argv], tag)
                p["wall"] += child.wall
                p["ops"][op.name] = child.wall
                p["rss"] = max(p["rss"], child.rss_mb)
                p["stdout_bytes"] += len(child.stdout)
                self.record(op.name, self._check(op, child))
                if ready.exists():
                    p["setup"].append(float(ready.read_text()) - t0)
                if span_file is not None and span_file.exists():
                    p["groups"].append(spans.read_spans(span_file))
            passes.append(p)
            if traced:
                traced_groups.append(p)
        plain = [p for p in passes if not p["traced"]]
        walls = [p["wall"] for p in plain]
        result = {
            "wall_s": walls,
            "setup_s": [s for p in passes for s in p["setup"]],
            "peak_rss_mb": max(p["rss"] for p in passes),
            "op_walls": {op.name: [p["ops"][op.name] for p in plain]
                         for op in ops},
        }
        if self.trace:
            result["layers"] = [
                layer_row(p["groups"], p["wall"] - statistics.median(walls),
                          p["stdout_bytes"])
                for p in traced_groups]
            result["by_op"] = spans.self_by_op(traced_groups[-1]["groups"])
        return result

    @staticmethod
    def _check(op, child) -> str | None:
        if child.timed_out:
            return "timed out"
        if b"Traceback" in child.stderr:
            return "traceback on stderr: " + child.stderr.decode(
                errors="replace").strip().splitlines()[-1]
        try:
            return op.check(child.code, child.stdout)
        except Exception as exc:  # malformed output is a wrong answer
            return f"unreadable output ({type(exc).__name__}: {exc})"

    # -- warm session ------------------------------------------------------

    def run_session(self) -> dict:
        walls, setups, rss = [], [], 0.0
        layers, by_op, setup_layers = [], {}, {}
        child_index = 0
        while not setups or self.elapsed() < self.seconds:
            tag = f"session{child_index}"
            span_file = self.out / f"{tag}.spans"
            deadline = time.perf_counter() + self.seconds / SESSION_CHILDREN
            child, t0 = self.spawn(
                [str(HERE / "session.py"), str(self.seed), str(child_index),
                 repr(deadline), "1" if self.trace else "0", str(span_file)],
                tag)
            rss = max(rss, child.rss_mb)
            passes = [json.loads(x) for x in child.stdout.decode().splitlines()
                      if x.startswith("{")]
            for p in passes:
                for name, failure in p["ops"]:
                    self.record(name, failure)
            problem = None
            if child.timed_out:
                problem = "timed out"
            elif child.code != 0 or b"Traceback" in child.stderr:
                problem = f"session exited {child.code}: " + child.stderr.decode(
                    errors="replace")[-300:]
            if problem is not None or not passes:
                self.record(tag, problem or "no pass completed")
                break
            setups.append(passes[0]["end"] - t0)
            plain = [p["end"] - p["start"] for p in passes[1:]
                     if not p["traced"]]
            walls += plain
            if self.trace and span_file.exists():
                group = [spans.read_spans(span_file)]
                by_op = spans.self_by_op(group)
                setup_layers = median_layers([spans.summarise(
                    group, lambda op: op.startswith("0/"))])
                for p in passes[1:]:
                    if p["traced"]:
                        prefix = f"{p['pass']}/"
                        layers.append(layer_row(
                            group, p["end"] - p["start"] - statistics.median(plain),
                            0, lambda op, prefix=prefix: op.startswith(prefix)))
            child_index += 1
        result = {"wall_s": walls, "setup_s": setups, "peak_rss_mb": rss}
        if self.trace:
            result["layers"] = layers
            result["by_op"] = by_op
            # the set-up pass builds the polynomials (laurent_pow, faber_poly)
            result["setup_layers"] = setup_layers
        return result



def layer_row(groups, overhead, stdout_bytes, select=lambda op: True) -> dict:
    """Per-layer metrics of one traced pass."""
    return spans.summarise(groups, select) | {
        "trace.overhead_s": ("s", overhead),
        "cli.stdout_bytes": ("bytes", stdout_bytes)}


# ---------------------------------------------------------------------------
# environment and reporting

def environment(root: Path) -> dict:
    import mpmath
    import numpy

    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "threads": {v: "1" for v in THREAD_VARS},
    }


def summary(values) -> dict:
    values = sorted(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def median_layers(rows) -> dict:
    return {name: {"value": statistics.median(r[name][1] for r in rows),
                   "unit": rows[0][name][0]} for name in rows[0]}


def run_workload(root: Path, env: dict, workload: str, seed: int,
                 seconds: float, trace: int) -> dict | None:
    """One run; prints its report and returns the result line, or None
    when no pass completed."""
    bench = Bench(root, workload, seed, seconds, bool(trace))
    if workload == "cli-exact":
        raw = bench.run_cli(cli_ops.cli_exact_ops(seed, bench.out))
    elif workload == "cli-campaign":
        reference = json.loads((HERE / "campaign_reference.json").read_text())
        raw = bench.run_cli(cli_ops.cli_campaign_ops(seed, bench.out,
                                                     reference))
    else:
        raw = bench.run_session()

    failed, attempted = len(bench.failures), bench.attempted
    if not raw["wall_s"] or not raw["setup_s"]:
        print(f"perfbench {workload}: no pass completed\n"
              + "\n".join(bench.failures[:20]), file=sys.stderr)
        return None
    report = {
        "workload": workload, "seed": seed, "trace": trace,
        "seconds": seconds, "run_s": bench.elapsed(), "env": env,
        "wall_s": summary(raw["wall_s"]), "setup_s": summary(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "fail_frac": failed / attempted, "attempted": attempted,
        "failed": failed, "failures": bench.failures[:20],
        "op_walls": raw.get("op_walls"),
    }
    if trace:
        report["layers"] = median_layers(raw["layers"])
        report["by_op"] = raw["by_op"]
        if "setup_layers" in raw:
            report["setup_layers"] = raw["setup_layers"]
        metrics = report["layers"]
    else:
        metrics = {
            "wall_s": {"value": report["wall_s"]["median"], "unit": "s"},
            "setup_s": {"value": report["setup_s"]["median"], "unit": "s"},
            "peak_rss_mb": {"value": raw["peak_rss_mb"], "unit": "MB"},
        }
    (bench.out / "result.json").write_text(json.dumps(report, indent=2))

    print(f"perfbench {workload} seed={seed} seconds={seconds:g} "
          f"trace={trace} run {report['run_s']:.1f} s")
    for key in ("wall_s", "setup_s"):
        s = report[key]
        print(f"{key}: median {s['median']:.4f} s, quartiles "
              f"{s['q1']:.4f}..{s['q3']:.4f} s, n={s['n']}")
    print(f"peak_rss_mb: {raw['peak_rss_mb']:.1f} MB")
    print(f"fail_frac: {failed}/{attempted} = {report['fail_frac']:.4g}")
    for line in bench.failures[:20]:
        print("  FAILED " + line)
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True,
                    help="one workload, or 'all' to run each in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "faberbohr" / "__init__.py").is_file():
        print("perfbench: run from the root of a faberbohr checkout "
              "(src/faberbohr not found)", file=sys.stderr)
        return 2
    env = environment(root)
    print("env " + json.dumps(env, sort_keys=True))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        line = run_workload(root, env, name, args.seed, args.seconds,
                            args.trace)
        if line is None:
            return 1
        results[name] = line
        print(json.dumps(line))
    if len(names) > 1:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value
                        for name, r in results.items()
                        for metric, value in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
