"""Record the cli-campaign seed reference.

Usage, from the root of a checkout at the commit whose answers are the
reference:

    python3 perfbench/record_reference.py

Runs every recorded cli-campaign op for each pool entry and writes
perfbench/campaign_reference.json.  Answers that contradict the
mathematics (a disc campaign at R=2.5 without a violation, a segment
campaign above the sufficient level with one) stop the recording.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import cli_ops  # noqa: E402
import inputs  # noqa: E402
from run import Bench, environment  # noqa: E402


def main() -> int:
    root = Path.cwd()
    bench = Bench(root, "record-reference", 0, 0.0, False, limit_s=3600.0)
    entries = {}
    radius = None
    for pool in range(inputs.CAMPAIGN_POOL):
        entry = {}
        for op in cli_ops.cli_campaign_ops(pool, bench.out, {}):
            if op.record is None or (op.name == "bohr-radius" and radius):
                continue
            child, _ = bench.spawn([str(HERE / "child.py"), "-", "-", op.name,
                                    "--", *op.argv], f"{pool}-{op.name}")
            if child.stderr or child.timed_out:
                raise SystemExit(f"{pool} {op.name}: {child.stderr[-500:]!r}")
            value = op.record(child.code, child.stdout)
            if op.name == "bohr-radius":
                radius = value
                continue
            want_exit = 4 if op.name == "verify-disc-2.5" else 0
            if value["exit"] != want_exit:
                raise SystemExit(f"{pool} {op.name}: unexpected {value}")
            entry[op.name] = value
        entries[str(pool)] = entry
        print(pool, json.dumps(entry), flush=True)
    env = environment(root)
    doc = {"recorded_at": {k: env[k] for k in ("commit", "src_sha256")},
           "pool": inputs.CAMPAIGN_POOL, "bohr_radius": radius,
           "entries": entries}
    (HERE / "campaign_reference.json").write_text(
        json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
