"""Command-line front end: argparse, and the writer of every JSON and CSV output.

Subcommands: ``allocate`` (run one mechanism on one profile), ``audit``
(property checks with violation listings), ``alpha`` (the split-stretch
table and its bound verdict), ``lowerbound`` (one LP bound), ``simulate``
(expected delays under a prior) and ``table`` (the full benchmark grid).
Each command returns its payload and exit code; ``run`` writes the payload,
to stdout or ``--output``, and turns usage, domain, solver and file errors
into one ``error:`` line with exit 1.

Exit codes: 0 on success, 1 on usage errors, on an LP bound the solver
could not compute and on an ``--output`` that cannot be written, 2 when an
audit found violations (so CI can assert that the optimal-deadline rule is
gameable).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import asdict

import numpy as np

from . import audit as audit_mod
from .distributions import DistributionSpec, _count
from .lowerbound import SolverError, _max_delay_search, sum_delay_lower_bound
from .mechanisms import (
    Grouping,
    TypeProfile,
    cs_allocate,
    csd_allocate,
    csod_allocate,
    gcsod_allocate,
    gcsod_expected,
    gcsod_realizations,
    gcsod_sample,
    optimal_deadline,
)
from .simulate import MECHANISMS, MODES, SimulationConfig, TableRow, estimate, reproduce_table


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits 2 by default; we reserve 2 for audits
        raise _UsageError(message)


def _parse_profile(text: str) -> TypeProfile:
    try:
        return TypeProfile(tuple(float(tok) for tok in text.split(",")))
    except ValueError as exc:
        raise _UsageError(f"bad profile {text!r}: {exc}") from exc


def _emit(payload, output: str | None) -> None:
    """Write a ``str`` as it is and anything else as indented JSON, to ``output`` or stdout."""
    text = payload if isinstance(payload, str) else json.dumps(payload, indent=2)
    if not text.endswith("\n"):
        text += "\n"
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def table_to_csv(records: list[TableRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["distribution", "n", "mechanism", "objective", "value", "stderr"])
    for r in records:
        stderr = "" if r.stderr is None else f"{r.stderr:.6f}"
        writer.writerow([r.distribution, r.n, r.mechanism, r.objective, f"{r.value:.6f}", stderr])
    return buf.getvalue()


def _mechanism_rule(name: str, t_c: float | None):
    if t_c is not None and name != "csd":
        raise _UsageError(f"--t-c only applies to --mechanism csd, not {name}")
    if name == "csd":
        if t_c is None:
            raise _UsageError("--mechanism csd requires --t-c")
        return lambda p: csd_allocate(p, t_c)
    return {"cs": cs_allocate, "csod": csod_allocate, "gcsod": gcsod_expected}[name]


# ``bugshare --help``'s description; the module docstring is for readers of the code
_DESCRIPTION = (
    "Cost sharing of one security bug among n agents: run, audit and simulate the four "
    "allocation rules (cs, csd, csod, gcsod) and compute LP lower bounds on their delays. "
    "Exit codes: 0 on success, 1 on an error, 2 when an audit finds violations."
)


def _build_parser() -> _Parser:
    parser = _Parser(prog="bugshare", description=_DESCRIPTION)
    sub = parser.add_subparsers(dest="command", required=True)
    one_rule = argparse.ArgumentParser(add_help=False)  # shared by allocate, audit, simulate
    one_rule.add_argument("--mechanism", required=True, choices=MECHANISMS)
    one_rule.add_argument("--t-c", type=float, default=None, help="deadline for csd")

    alloc = sub.add_parser("allocate", parents=[one_rule], help="run one mechanism on one profile")
    alloc.add_argument("--profile", required=True, help="comma-separated valuations")
    alloc.add_argument("--grouping", default=None, help="explicit L/R labels for gcsod")
    alloc.add_argument("--seed", type=int, default=None, help="coin-flip seed for gcsod")
    alloc.set_defaults(run=_cmd_allocate)

    aud = sub.add_parser(
        "audit", parents=[one_rule], help="check a mechanism property on given profiles"
    )
    aud.add_argument("--property", required=True, choices=["sp", "ir", "bb", "mono"])
    aud.add_argument("--profile", action="append", required=True, help="repeatable")
    aud.add_argument("--points", type=int, default=50, help="misreport/sweep grid size")
    aud.add_argument("--epsilon", type=float, default=audit_mod.DEFAULT_EPSILON)
    aud.set_defaults(run=_cmd_audit)

    alp = sub.add_parser("alpha", help="split-stretch factors and bound verdict")
    alp.add_argument("--kmax", type=int, required=True)
    alp.set_defaults(run=_cmd_alpha)

    low = sub.add_parser("lowerbound", help="LP lower bound for one prior")
    low.add_argument("--dist", required=True, help='e.g. "U(0,1)" or "N(0.5,0.2)"')
    low.add_argument("--n", type=int, required=True)
    low.add_argument("--H", type=int, default=100)
    low.add_argument("--objective", required=True, choices=["max", "sum"])
    low.set_defaults(run=_cmd_lowerbound)

    sim = sub.add_parser("simulate", parents=[one_rule], help="expected delays of one mechanism")
    sim.add_argument("--dist", required=True)
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--samples", type=int, default=1_000_000)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--mode", choices=MODES, default="monte_carlo")
    sim.set_defaults(run=_cmd_simulate)

    tab = sub.add_parser("table", help="full benchmark grid (simulations + LP bounds)")
    tab.add_argument("--samples", type=int, default=1_000_000)
    tab.add_argument("--H", type=int, default=100)
    tab.add_argument("--seed", type=int, default=0)
    tab.add_argument("--format", choices=["csv", "json"], default="csv")
    tab.set_defaults(run=_cmd_table)

    for command in sub.choices.values():  # last, so it keeps its place in every --help
        command.add_argument("--output", default=None)
    return parser


def _cmd_allocate(args) -> tuple[object, int]:
    rule = _mechanism_rule(args.mechanism, args.t_c)  # refuses --t-c for gcsod too
    for flag, value in (("--grouping", args.grouping), ("--seed", args.seed)):
        if value is not None and args.mechanism != "gcsod":
            raise _UsageError(f"{flag} only applies to --mechanism gcsod")
    if args.grouping is not None and args.seed is not None:
        raise _UsageError("--seed does not apply with --grouping, which fixes the coin flips")
    profile = _parse_profile(args.profile)
    payload: dict = {"mechanism": args.mechanism, "profile": list(profile.values)}
    if args.mechanism == "gcsod":
        if args.grouping is not None:
            grouping = Grouping.from_string(args.grouping)
            outcome = gcsod_allocate(profile, grouping)
            payload["grouping"] = "".join(grouping.side)
        else:
            seed = 0 if args.seed is None else args.seed
            outcome = gcsod_sample(profile, seed)
            payload["seed"] = seed
    else:
        outcome = rule(profile)
        if args.mechanism == "csd":
            payload["t_c"] = args.t_c
        elif args.mechanism == "csod":
            deadline = optimal_deadline(profile)
            payload.update(deadline=deadline.t_star, k_star=deadline.k_star)
    payload.update(
        {"times": list(outcome.times), "payments": list(outcome.payments), "sold": outcome.sold}
    )
    return payload, 0


def _cmd_audit(args) -> tuple[object, int]:
    profiles = [_parse_profile(text) for text in args.profile]
    n = max(len(p) for p in profiles)
    rule = _mechanism_rule(args.mechanism, args.t_c)
    deadline = 1.0 if args.t_c is None else args.t_c
    if args.property == "sp":
        grid = audit_mod.misreport_grid(n, deadline=deadline, points=args.points)
        report = audit_mod.check_sp(rule, profiles, grid, epsilon=args.epsilon)
    elif args.property == "ir":
        report = audit_mod.check_ir(rule, profiles)
    elif args.property == "bb":
        realizations = gcsod_realizations if args.mechanism == "gcsod" else rule
        report = audit_mod.check_bb(realizations, profiles)
    else:
        grid = tuple(np.linspace(0.0, 1.0, _count(args.points, "points", 2)))
        report = audit_mod.check_monotonicity(rule, profiles, grid)
    return report.to_dict(), 0 if report.passed else 2


def _cmd_alpha(args) -> tuple[object, int]:
    values = {k: audit_mod.alpha(k) for k in range(1, _count(args.kmax, "--kmax") + 1)}
    holds = all(v < audit_mod.MAX_DELAY_BOUND for v in values.values())
    payload = {
        "alpha": {str(k): v for k, v in values.items()},
        "bound": audit_mod.MAX_DELAY_BOUND,
        "bound_holds": holds,
    }
    return payload, 0


def _cmd_lowerbound(args) -> tuple[object, int]:
    spec = DistributionSpec.parse(args.dist)
    payload = {
        "distribution": spec.label(),
        "n": args.n,
        "H": args.H,
        "objective": args.objective,
    }
    if args.objective == "max":
        # the attaining point and the solve count tell a pruned search from a full scan
        value, point, solves = _max_delay_search(spec, args.n, args.H)
        payload.update(bound=value, truncation_point=point, lp_solves=solves)
    else:
        payload["bound"] = sum_delay_lower_bound(spec, args.n, args.H)
    return payload, 0


def _cmd_simulate(args) -> tuple[object, int]:
    spec = DistributionSpec.parse(args.dist)
    config = SimulationConfig(
        mechanism=args.mechanism,
        spec=spec,
        n=args.n,
        samples=args.samples,
        seed=args.seed,
        mode=args.mode,
        t_c=args.t_c,
    )
    report = estimate(config)
    payload = {"distribution": spec.label(), "n": args.n, "mechanism": args.mechanism}
    payload.update(asdict(report))
    return payload, 0


def _cmd_table(args) -> tuple[object, int]:
    records = reproduce_table(H=args.H, samples=args.samples, seed=args.seed)
    payload = table_to_csv(records) if args.format == "csv" else [asdict(r) for r in records]
    return payload, 0


def run(argv: list[str]) -> int:
    """Parse, execute and write the payload; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        payload, code = args.run(args)
        _emit(payload, args.output)
        return code
    except (_UsageError, ValueError, OverflowError, SolverError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
