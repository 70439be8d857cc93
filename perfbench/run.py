"""bugshare benchmark: one workload as a single-process closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload mc_grid --seed 0 --seconds 30 --trace 0

One caller on one thread calls the library back to back.  A pass runs every
operation of the workload once (see ``workloads.py``); the run repeats passes
until ``--seconds`` have gone by, and always completes at least one pass.  Each
operation's output is checked.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it is the run's provenance.  Details, per-operation times and (traced
runs) every span go to ``.bench_out/``.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: wall time of one pass, as the sum over operations of each
  operation's median time.  An untimed warm-up pass at tiny sizes first
  finishes lazy set-up.
* ``setup_s``: median over several fresh interpreters of the time from start
  to ready (``import bugshare`` plus building the workload's inputs).
* ``peak_rss_mb``: peak resident memory of this process.

``--trace 1`` runs the same untraced loop, then one traced pass, and reports
the per-layer metrics of that pass (``tracing.py``) and ``trace.overhead_s``,
the traced pass's wall time minus the untraced ``wall_s``.

The library is imported from ``src/`` of the checkout and nowhere else, and
the references are read from ``perfbench/refs/<size>/``; a checkout without
either, or whose references lack seed 0 of an operation, ends with an error and
no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def import_program():
    """Import bugshare from the checkout's ``src/``, refusing any other copy."""
    package = ROOT / "src" / "bugshare"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no bugshare sources at {package}")
    sys.path.insert(0, str(package.parent))
    import bugshare

    if Path(bugshare.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported bugshare from {bugshare.__file__}, not {package}")
    return bugshare


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("mc_grid", "lp_bounds", "audit_probe"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: smoke test")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def metric_units() -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def measure_setup(args, probes: int) -> float:
    """Median start-to-ready time of fresh interpreters that import and build inputs."""
    cmd = [
        sys.executable, str(Path(__file__)), "--setup-probe", "--workload", args.workload,
        "--seed", str(args.seed), "--size", args.size,
    ]
    times = []
    for _ in range(probes):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
        # A blocking wait returns when the child ends; wait(timeout=...) polls
        # every 50 ms and would round the time up to that step.
        watchdog = threading.Timer(120.0, proc.kill)
        watchdog.start()
        try:
            returncode = proc.wait()
        finally:
            watchdog.cancel()
        times.append(time.perf_counter() - start)
        if returncode != 0:
            raise subprocess.CalledProcessError(returncode, cmd)
    return statistics.median(times)


class Runner:
    """Runs operations, times their calls and checks their records."""

    def __init__(self, same_seed: dict, base: dict, tracer=None):
        self.same = dict(same_seed)
        self.base = base
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _fail(self, key: str, problems: list[str]) -> None:
        self.failed += 1
        self.problems += [f"{key}: {p}" for p in problems]

    def run(self, op) -> float | None:
        """Seconds the call took, or None when the operation failed."""
        self.attempted += 1
        try:
            if self.tracer is not None:
                self.tracer.active = True
            start = time.perf_counter()
            try:
                result = op.call()
            finally:
                elapsed = time.perf_counter() - start
                if self.tracer is not None:
                    self.tracer.active = False
            record = op.record(result)
            problems = op.check(record, self.same.get(op.key), self.base.get(op.key))
        except Exception:  # a failed operation is counted and the run goes on
            self._fail(op.key, [traceback.format_exc(limit=3)])
            return None
        if problems:
            self._fail(op.key, problems)
            return None
        # Later passes of this run must reproduce the first one.
        self.same.setdefault(op.key, record)
        return elapsed

    def loop(self, ops, seconds: float) -> dict[str, list[float]]:
        """Repeat passes until ``seconds`` are up, finishing at least one pass."""
        times = {op.key: [] for op in ops}
        end = time.perf_counter() + seconds
        i = 0
        while i < len(ops) or time.perf_counter() < end:
            op = ops[i % len(ops)]
            elapsed = self.run(op)
            if elapsed is not None:
                times[op.key].append(elapsed)
            i += 1
        return times


def pass_wall(times: dict[str, list[float]]) -> float:
    return sum(statistics.median(t) for t in times.values() if t)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    size = workloads.SIZES[args.size]
    ops = workloads.build(args.workload, args.seed, size)
    if args.setup_probe:
        return 0
    refs_dir = BENCH_DIR / "refs" / args.size
    try:
        same_seed, base = workloads.load_refs(refs_dir, args.workload, args.seed)
    except ValueError as exc:
        sys.exit(f"perfbench: {exc}")
    unreferenced = [op.key for op in ops if op.key not in base]
    if unreferenced:
        sys.exit(f"perfbench: no seed-0 reference in {refs_dir} for {unreferenced[0]}")

    import numpy
    import scipy

    units = metric_units()
    setup_s = None if args.trace else measure_setup(args, size["setup_probes"])

    for op in workloads.build(args.workload, args.seed, workloads.SIZES["tiny"]):
        try:  # warm-up only; a failing operation is counted in the timed passes
            op.call()
        except Exception:
            pass

    runner = Runner(same_seed, base)
    times = runner.loop(ops, args.seconds)
    wall_s = pass_wall(times)
    report = {"op_median_s": {k: statistics.median(t) for k, t in times.items() if t}}
    absent = []

    if args.trace:
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
        try:
            runner.tracer = tracer
            traced = runner.loop(ops, 0.0)
        finally:
            tracer.uninstall()
        values = layer_metrics(tracer.spans)
        values["trace.overhead_s"] = pass_wall(traced) - wall_s
        absent = tracer.absent
        report["spans"] = tracer.dump()
    else:
        values = {
            "wall_s": wall_s,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "sizes": size,
        "operations_per_pass": len(ops),
        "passes": runner.attempted / len(ops),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "BUGSHARE_THREADS": os.environ.get("BUGSHARE_THREADS"),
        "refs": os.path.relpath(refs_dir, ROOT),
        "absent": absent,
    }
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    details = {"provenance": provenance, "result": result, "problems": runner.problems}
    out.write_text(json.dumps({**details, **report}))
    for problem in runner.problems[:20]:
        print(problem, file=sys.stderr)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
