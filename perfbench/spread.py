"""Run each workload with several seeds and report the spread of every end-to-end metric.

    python3 perfbench/spread.py [--runs 10] [--first-seed 100] [--out FILE] [workload ...]

Each run uses ``run_seconds`` from BENCHMARK.json and its own seed.  The spread
of a metric is (Q3 - Q1) / median over the runs, with the quartiles of
``statistics.quantiles(values, n=4)``; it is set beside the metric's bound.
The table goes to standard error, the values and spreads to ``--out``
(default ``.bench_out/spread.json``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import OUT_DIR, ROOT, SPEC


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=100)
    p.add_argument("--out", type=Path, default=OUT_DIR / "spread.json")
    p.add_argument("workload", nargs="*")
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}

    summary = {}
    for workload in args.workload or [w["name"] for w in SPEC["workloads"]]:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [
                sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                "--seconds", str(SPEC["run_seconds"]), "--trace", "0",
            ]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed} failed {result['failed']} operations")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        summary[workload] = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / statistics.median(vals)
            summary[workload][name] = {
                "median": statistics.median(vals),
                "spread": spread,
                "bound": bounds[name],
                "values": vals,
            }
            print(
                f"{workload:12s} {name:12s} median {statistics.median(vals):10.4f}"
                f"  spread {spread:.4f}  bound {bounds[name]}",
                file=sys.stderr,
            )
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
