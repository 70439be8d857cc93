"""Command-line front end.

Subcommands: ``allocate`` (run one mechanism on one profile), ``audit``
(property checks with violation listings), ``alpha`` (the split-stretch
table and its bound verdict), ``lowerbound`` (one LP bound), ``simulate``
(expected delays under a prior) and ``table`` (the full benchmark grid).

Exit codes: 0 on success, 1 on usage errors and on an LP bound the solver
could not compute, 2 when an audit found violations (so CI can assert that
the optimal-deadline rule is gameable).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

import numpy as np

from . import audit as audit_mod
from .distributions import DistributionSpec
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
from .simulate import (
    SimulationConfig,
    estimate,
    reproduce_table,
    table_to_csv,
    table_to_json,
)


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


def _emit(text: str, output: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _mechanism_rule(name: str, t_c: float | None):
    if t_c is not None and name != "csd":
        raise _UsageError(f"--t-c only applies to --mechanism csd, not {name}")
    if name == "cs":
        return cs_allocate
    if name == "csd":
        if t_c is None:
            raise _UsageError("--mechanism csd requires --t-c")
        return lambda p: csd_allocate(p, t_c)
    if name == "csod":
        return csod_allocate
    if name == "gcsod":
        return gcsod_expected
    raise _UsageError(f"unknown mechanism {name!r}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="bugshare", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    alloc = sub.add_parser("allocate", help="run one mechanism on one profile")
    alloc.add_argument("--mechanism", required=True, choices=["cs", "csd", "csod", "gcsod"])
    alloc.add_argument("--profile", required=True, help="comma-separated valuations")
    alloc.add_argument("--t-c", type=float, default=None, help="deadline for csd")
    alloc.add_argument("--grouping", default=None, help="explicit L/R labels for gcsod")
    alloc.add_argument("--seed", type=int, default=None, help="coin-flip seed for gcsod")
    alloc.add_argument("--output", default=None)

    aud = sub.add_parser("audit", help="check a mechanism property on given profiles")
    aud.add_argument("--property", required=True, choices=["sp", "ir", "bb", "mono"])
    aud.add_argument("--mechanism", required=True, choices=["cs", "csd", "csod", "gcsod"])
    aud.add_argument("--profile", action="append", required=True, help="repeatable")
    aud.add_argument("--t-c", type=float, default=None)
    aud.add_argument("--points", type=int, default=50, help="misreport/sweep grid size")
    aud.add_argument("--epsilon", type=float, default=audit_mod.DEFAULT_EPSILON)
    aud.add_argument("--output", default=None)

    alp = sub.add_parser("alpha", help="split-stretch factors and bound verdict")
    alp.add_argument("--kmax", type=int, required=True)
    alp.add_argument("--output", default=None)

    low = sub.add_parser("lowerbound", help="LP lower bound for one prior")
    low.add_argument("--dist", required=True, help='e.g. "U(0,1)" or "N(0.5,0.2)"')
    low.add_argument("--n", type=int, required=True)
    low.add_argument("--H", type=int, default=100)
    low.add_argument("--objective", required=True, choices=["max", "sum"])
    low.add_argument("--output", default=None)

    sim = sub.add_parser("simulate", help="expected delays of one mechanism")
    sim.add_argument("--mechanism", required=True, choices=["cs", "csd", "csod", "gcsod"])
    sim.add_argument("--dist", required=True)
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--samples", type=int, default=1_000_000)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--mode", choices=["monte_carlo", "exact_grouping"], default="monte_carlo")
    sim.add_argument("--t-c", type=float, default=None)
    sim.add_argument("--output", default=None)

    tab = sub.add_parser("table", help="full benchmark grid (simulations + LP bounds)")
    tab.add_argument("--samples", type=int, default=1_000_000)
    tab.add_argument("--H", type=int, default=100)
    tab.add_argument("--seed", type=int, default=0)
    tab.add_argument("--format", choices=["csv", "json"], default="csv")
    tab.add_argument("--output", default=None)

    return parser


def _cmd_allocate(args) -> int:
    for flag, value, owner in (
        ("--t-c", args.t_c, "csd"),
        ("--grouping", args.grouping, "gcsod"),
        ("--seed", args.seed, "gcsod"),
    ):
        if value is not None and args.mechanism != owner:
            raise _UsageError(f"{flag} only applies to --mechanism {owner}")
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
        outcome = _mechanism_rule(args.mechanism, args.t_c)(profile)
        if args.mechanism == "csd":
            payload["t_c"] = args.t_c
        elif args.mechanism == "csod":
            deadline = optimal_deadline(profile)
            payload.update(deadline=deadline.t_star, k_star=deadline.k_star)
    payload.update(
        {"times": list(outcome.times), "payments": list(outcome.payments), "sold": outcome.sold}
    )
    _emit(json.dumps(payload, indent=2), args.output)
    return 0


def _cmd_audit(args) -> int:
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
        grid = tuple(np.linspace(0.0, 1.0, args.points))
        report = audit_mod.check_monotonicity(rule, profiles, grid)
    _emit(report.to_json(), args.output)
    return 0 if report.passed else 2


def _cmd_alpha(args) -> int:
    if args.kmax < 1:
        raise _UsageError("--kmax must be at least 1")
    values = {k: audit_mod.alpha(k) for k in range(1, args.kmax + 1)}
    holds = all(v < audit_mod.MAX_DELAY_BOUND for v in values.values())
    payload = {
        "alpha": {str(k): v for k, v in values.items()},
        "bound": audit_mod.MAX_DELAY_BOUND,
        "bound_holds": holds,
    }
    _emit(json.dumps(payload, indent=2), args.output)
    return 0


def _cmd_lowerbound(args) -> int:
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
    _emit(json.dumps(payload, indent=2), args.output)
    return 0


def _cmd_simulate(args) -> int:
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
    _emit(json.dumps(payload, indent=2), args.output)
    return 0


def _cmd_table(args) -> int:
    records = reproduce_table(H=args.H, samples=args.samples, seed=args.seed)
    text = table_to_csv(records) if args.format == "csv" else table_to_json(records)
    _emit(text, args.output)
    return 0


_COMMANDS = {
    "allocate": _cmd_allocate,
    "audit": _cmd_audit,
    "alpha": _cmd_alpha,
    "lowerbound": _cmd_lowerbound,
    "simulate": _cmd_simulate,
    "table": _cmd_table,
}


def run(argv: list[str]) -> int:
    """Parse and execute; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (_UsageError, ValueError, OverflowError, SolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
