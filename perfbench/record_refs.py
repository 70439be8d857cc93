"""Record the correctness references of every workload from the current program.

    python3 perfbench/record_refs.py [--size full|tiny] [workload ...]

Runs one pass per recorded seed (0, the default, and 1, held out) and writes
``perfbench/refs/<size>/<workload>.jsonl``, one operation per line.  The
committed references were recorded from the commit that added the benchmark;
re-record only when a change is meant to alter the program's results, and say
so.
"""

from __future__ import annotations

import argparse
import sys

from run import BENCH_DIR, import_program


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("workload", nargs="*")
    args = p.parse_args(argv)
    import_program()
    import workloads

    out = BENCH_DIR / "refs" / args.size
    for name in args.workload or workloads.WORKLOADS:
        workloads.record_refs(out, name, workloads.SIZES[args.size])
        print(f"recorded {out / name}.jsonl", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
