"""Smoke test of the benchmark itself, at tiny sizes (10^3 samples, H=10, 3 profiles).

    python3 perfbench/smoke.py

Checks that every run prints exactly the metric names of BENCHMARK.json, that
a corrupted reference and a zero-probe audit count as failed operations, that
the tracer reports a missing function as absent and restores every original,
and that a checkout without the library or without the references gives no
result.  The references are the committed ones in ``perfbench/refs/tiny``.
Exits 1 on the first failed check.  Temporary files go to ``.bench_out/smoke``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

from run import BENCH_DIR, OUT_DIR, ROOT, SPEC, Runner, import_program

SMOKE_DIR = OUT_DIR / "smoke"


def run_cli(workload: str, trace: int, cwd=ROOT) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
        "--seconds", "1", "--trace", str(trace), "--size", "tiny",
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"run failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def corrupt(record: dict) -> None:
    """Shift the first number (or flip the first flag) of a reference record."""
    key = next(k for k, v in record.items() if isinstance(v, (int, float)))
    value = record[key]
    record[key] = (not value) if isinstance(value, bool) else value + 1


def checkout_copy(name: str, with_src: bool) -> Path:
    """A copy of what a checkout of the benchmark holds, with or without the library."""
    root = SMOKE_DIR / name
    shutil.copytree(BENCH_DIR, root / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", root)
    if with_src:
        shutil.copytree(ROOT / "src", root / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return root


def gives_no_result(proc: subprocess.CompletedProcess) -> bool:
    return proc.returncode != 0 and '"metrics"' not in proc.stdout


def main() -> int:
    import_program()
    import workloads
    from tracing import TARGETS, Tracer

    names = {
        0: {m["name"] for m in SPEC["end_to_end"]},
        1: {m["name"] for m in SPEC["per_layer"]},
    }
    refs = BENCH_DIR / "refs" / "tiny"
    shutil.rmtree(SMOKE_DIR, ignore_errors=True)

    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            result = result_of(run_cli(workload, trace))
            metrics = result["metrics"]
            expect(set(metrics) == names[trace], f"{workload} trace {trace}: {sorted(metrics)}")
            expect(all(math.isfinite(m["value"]) for m in metrics.values()), "non-finite metric")
            expect(result["correct"] and result["failed"] == 0, f"{workload}: {result}")
            expect(result["attempted"] >= 1, f"{workload}: nothing attempted")
        ops = workloads.build(workload, 0, workloads.SIZES["tiny"])
        same_seed, base = workloads.load_refs(refs, workload, 0)
        corrupt(same_seed[ops[0].key])
        runner = Runner(same_seed, base)
        runner.loop(ops, 0.0)
        expect(runner.failed > 0, f"{workload}: a corrupted reference passed")
        print(f"ok {workload}", file=sys.stderr)

    seed1_only = SMOKE_DIR / "seed1_only"
    seed1_only.mkdir(parents=True)
    lines = (refs / "lp_bounds.jsonl").read_text().splitlines()
    kept = [line for line in lines if json.loads(line)["seed"] != 0]
    (seed1_only / "lp_bounds.jsonl").write_text("\n".join(kept) + "\n")
    try:
        workloads.load_refs(seed1_only, "lp_bounds", 1)
    except ValueError:
        pass
    else:
        raise AssertionError("references without seed 0 were accepted")

    grid = workloads.audit.misreport_grid(2)
    empty = workloads._audit_op("empty", "check_sp", "cs_allocate", [], grid, True)
    runner = Runner({}, {})
    runner.run(empty)
    expect(runner.failed == 1, "a zero-probe audit passed")

    import bugshare.simulate

    before = dict(vars(bugshare.simulate))
    tracer = Tracer(TARGETS + (("simulate.gone", "bugshare.simulate", "no_such_kernel", None),))
    tracer.install()
    expect(bugshare.simulate.draw is not before["draw"], "draw was not wrapped")
    tracer.uninstall()
    expect(tracer.absent == ["bugshare.simulate.no_such_kernel"], f"absent: {tracer.absent}")
    expect(all(vars(bugshare.simulate)[k] is v for k, v in before.items()), "not restored")

    bare = checkout_copy("bare", with_src=False)
    expect(gives_no_result(run_cli("mc_grid", 0, cwd=bare)), "bare directory gave a result")
    no_refs = checkout_copy("no_refs", with_src=True)
    (no_refs / "perfbench" / "refs" / "tiny" / "lp_bounds.jsonl").unlink()
    expect(gives_no_result(run_cli("lp_bounds", 0, cwd=no_refs)), "missing references gave a result")

    print("smoke: all checks passed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
