"""The three benchmark workloads: inputs from a seed, the operations of one pass, their checks.

An operation is one estimate cell, one LP bound or one audit call.  Each
operation looks its bugshare function up by module attribute at call time, so
that the traced run sees the wrappers that ``tracing`` installs.

Why these three workloads:

* ``mc_grid`` spends its time in ``distributions.draw`` and the ``simulate``
  batch kernels on 10^6-row inputs (plus one exact-grouping cell that drives
  ``grouping_table`` with 1,024 rows per call).  It solves no LP and calls no
  scalar rule.
* ``lp_bounds`` spends its time in the ``lowerbound`` LP assembly and HiGHS
  solves: 12 max-delay bounds of 100 LPs each and 12 single sum-delay LPs.  It
  uses no sampler and no allocation rule.
* ``audit_probe`` spends its time in one-row scalar rule calls and small 2^n
  ``grouping_table`` calls driven by the ``audit`` loops: the opposite use of
  the ``mechanisms`` layer from ``mc_grid``.  It solves no LP and draws nothing
  from the sampler.

Correctness: every output is checked against references recorded from the
program (``refs/<size>/<workload>.jsonl``, seeds 0 and 1).  For a seed without a
recorded reference the checks fall back to what holds for every seed: Monte
Carlo means agree with the seed-0 reference within six standard errors, LP
bounds do not depend on the seed, the truthful rules pass their audits, every
reported violation is real, probe counts follow from the input sizes and
Myerson payments match the charged payments.  Repeated passes of one run must
reproduce their first pass.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from bugshare import audit, lowerbound, mechanisms, simulate
from bugshare.distributions import DistributionSpec
from bugshare.mechanisms import TypeProfile

WORKLOADS = ("mc_grid", "lp_bounds", "audit_probe")
RECORDED_SEEDS = (0, 1)

GRID_DISTRIBUTIONS = ("U(0,1)", "N(0.5,0.2)", "N(0.5,0.4)")
GRID_AGENT_COUNTS = (1, 2, 5, 10)

SIZES = {
    "full": {
        "samples": 1_000_000,
        "exact_profiles": 1_000,
        "H": 100,
        "sp_profiles": 100,
        "sp_gcsod_profiles": 30,
        "mono_profiles": 50,
        "mono_gcsod_profiles": 25,
        "mono_grid": 200,
        "myerson_profiles": 20,
        "myerson_grid": 2_000,
        "competitive_profiles": 1_000,
        "setup_probes": 3,
    },
    "tiny": {
        "samples": 1_000,
        "exact_profiles": 3,
        "H": 10,
        "sp_profiles": 3,
        "sp_gcsod_profiles": 3,
        "mono_profiles": 3,
        "mono_gcsod_profiles": 3,
        "mono_grid": 200,
        "myerson_profiles": 3,
        "myerson_grid": 2_000,
        "competitive_profiles": 3,
        "setup_probes": 1,
    },
}

MC_TOL = 1e-9  # same seed, same stream: means agree to rounding
MC_SIGMAS = 6.0  # other seeds: within six combined standard errors of seed 0
LP_TOL = 1e-7
AUDIT_TOL = 1e-9  # recorded Myerson payments and competitive ratios
SP_EPSILON = 1e-9
SP_GRID_POINTS = 50
MAX_AGENTS = 8  # audit profiles have 2..8 agents, competitive ones 2..10


@dataclass
class Op:
    """One operation of a pass.

    ``call`` runs the program and is the only timed part.  ``record`` turns its
    result into the numbers that are checked and stored as references (it may
    call the program again to cross-check).  ``check(record, same_seed, base)``
    lists what is wrong, given the reference for this seed and for seed 0.
    """

    key: str
    call: Callable[[], Any]
    record: Callable[[Any], dict]
    check: Callable[[dict, dict | None, dict | None], list[str]]


def _finite(record: dict) -> list[str]:
    bad = [k for k, v in record.items() if isinstance(v, float) and not math.isfinite(v)]
    return [f"non-finite {k}" for k in bad]


def _close(record: dict, ref: dict, keys, tol: float) -> list[str]:
    return [
        f"{k}={record[k]!r} differs from reference {ref[k]!r} by more than {tol:g}"
        for k in keys
        if not abs(record[k] - ref[k]) <= tol
    ]


def _exact(record: dict, ref: dict, keys) -> list[str]:
    return [f"{k}={record[k]!r}, reference {ref[k]!r}" for k in keys if record[k] != ref[k]]


# ------------------------------------------------------------------ mc_grid


def _estimate_op(mechanism: str, label: str, n: int, samples: int, seed: int, mode: str) -> Op:
    spec = DistributionSpec.parse(label)
    config = simulate.SimulationConfig(
        mechanism=mechanism, spec=spec, n=n, samples=samples, seed=seed, mode=mode
    )

    def call():
        return simulate.estimate(config)

    def record(r) -> dict:
        return {
            "max": r.expected_max_delay,
            "sum": r.expected_sum_delay,
            "se_max": r.standard_error_max,
            "se_sum": r.standard_error_sum,
            "samples": r.samples_used,
        }

    def check(record: dict, same_seed: dict | None, base: dict | None) -> list[str]:
        problems = _finite(record)
        if problems:
            return problems
        if record["samples"] != samples:
            problems.append(f"used {record['samples']} samples, asked for {samples}")
        if not (0.0 <= record["max"] <= 1.0 and 0.0 <= record["sum"] <= n):
            problems.append(f"delays out of range: max {record['max']}, sum {record['sum']}")
        if same_seed is not None:
            problems += _close(record, same_seed, ("max", "sum"), MC_TOL)
        elif base is not None:
            for k in ("max", "sum"):
                se = math.hypot(record["se_" + k], base["se_" + k])
                problems += _close(record, base, (k,), MC_SIGMAS * se + MC_TOL)
        return problems

    return Op(f"{mode}/{mechanism}/{label}/n={n}", call, record, check)


def _mc_grid(seed: int, size: dict) -> list[Op]:
    ops = [
        _estimate_op(mech, label, n, size["samples"], seed, "monte_carlo")
        for label in GRID_DISTRIBUTIONS
        for n in GRID_AGENT_COUNTS
        for mech in ("gcsod", "cs")
    ]
    ops.append(_estimate_op("gcsod", "U(0,1)", 10, size["exact_profiles"], seed, "exact_grouping"))
    return ops


# ---------------------------------------------------------------- lp_bounds


def _bound_op(kind: str, label: str, n: int, H: int) -> Op:
    spec = DistributionSpec.parse(label)

    def call():
        fn = lowerbound.max_delay_lower_bound if kind == "max" else lowerbound.sum_delay_lower_bound
        return fn(spec, n, H)

    def record(value) -> dict:
        return {"value": float(value)}

    def check(record: dict, same_seed: dict | None, base: dict | None) -> list[str]:
        ref = same_seed or base  # the LP inputs do not depend on the seed
        problems = _finite(record)
        if not problems and ref is not None:
            problems = _close(record, ref, ("value",), LP_TOL)
        return problems

    return Op(f"{kind}_bound/{label}/n={n}/H={H}", call, record, check)


def _lp_bounds(seed: int, size: dict) -> list[Op]:
    ops = [
        _bound_op(kind, label, n, size["H"])
        for label in GRID_DISTRIBUTIONS
        for n in GRID_AGENT_COUNTS
        for kind in ("max", "sum")
    ]
    # The bounds need no random input; the seed only fixes the order they run in.
    order = np.random.default_rng(seed).permutation(len(ops))
    return [ops[i] for i in order]


# -------------------------------------------------------------- audit_probe


class Counted:
    """A mechanism callable that counts the probes an audit makes through it."""

    def __init__(self, rule: Callable):
        self.rule = rule
        self.calls = 0

    def __call__(self, profile: TypeProfile):
        self.calls += 1
        return self.rule(profile)


def _profiles(rng: np.random.Generator, count: int, n_high: int, positive: bool = False):
    """Profiles whose agent counts cycle through 2..n_high and whose values come from ``rng``.

    The audits cost about 2^n per profile, so drawing n at random would make the
    work of a pass depend on the seed; cycling keeps it the same for every seed.
    """
    profiles = []
    for i in range(count):
        u = rng.random(2 + i % (n_high - 1))
        profiles.append(TypeProfile(tuple(1.0 - u if positive else u)))
    return profiles


def _sp_probes(profiles, grid) -> int:
    return sum(1 + sum(r != v for v in p.values for r in grid) for p in profiles)


def _real_sp_violations(rule: Callable, report) -> list[str]:
    """Re-derive each reported utility gain from the rule itself."""
    problems = []
    for v in report.violations:
        profile = TypeProfile(v.profile)
        value = profile.values[v.agent]
        truth = rule(profile)
        dev = rule(profile.replace(v.agent, v.detail))
        gain = audit.utility(value, dev.times, dev.payments, v.agent) - audit.utility(
            value, truth.times, truth.payments, v.agent
        )
        if not (gain > SP_EPSILON and abs(gain - v.amount) <= 1e-12):
            problems.append(f"reported violation {v} does not reproduce (gain {gain})")
    return problems


def _audit_op(key: str, checker: str, rule_name: str, profiles, grid, expect_pass: bool) -> Op:
    """One ``check_sp`` or ``check_monotonicity`` call over a list of profiles."""
    expected_probes = (
        _sp_probes(profiles, grid) if checker == "check_sp" else len(grid) * sum(map(len, profiles))
    )

    def call():
        rule = Counted(getattr(mechanisms, rule_name))
        args = (SP_EPSILON,) if checker == "check_sp" else ()
        return getattr(audit, checker)(rule, profiles, grid, *args), rule.calls

    def record(result) -> dict:
        report, probes = result
        out = {"passed": report.passed, "violations": len(report.violations), "probes": probes}
        if checker == "check_sp" and report.violations:
            out["unreal"] = _real_sp_violations(getattr(mechanisms, rule_name), report)
        return out

    def check(record: dict, same_seed: dict | None, base: dict | None) -> list[str]:
        problems = list(record.get("unreal", []))
        if record["probes"] == 0:
            problems.append("the audit made no probes")
        if record["probes"] != expected_probes:
            problems.append(f"{record['probes']} probes, expected {expected_probes}")
        if record["passed"] != (record["violations"] == 0):
            problems.append("verdict disagrees with the violation list")
        if expect_pass and not record["passed"]:
            problems.append(f"{record['violations']} violations of a property the rule has")
        if same_seed is not None:
            problems += _exact(record, same_seed, ("passed", "violations", "probes"))
        return problems

    return Op(key, call, record, check)


def _myerson_op(index: int, profile: TypeProfile, agent: int, grid_size: int) -> Op:
    # The agent's allocation curve under cs is one step from 1 to 0, and midpoint
    # integration of one step errs by at most half a cell: value / (2 * grid).
    tol = 0.5 * profile.values[agent] / grid_size + 1e-12
    expected_probes = 1 + (grid_size if profile.values[agent] > 0.0 else 0)

    def call():
        rule = Counted(mechanisms.cs_allocate)
        return audit.myerson_payment(rule, agent, profile, grid_size), rule.calls

    def record(result) -> dict:
        payment, probes = result
        charged = mechanisms.cs_allocate(profile).payments[agent]
        return {"payment": float(payment), "charged": charged, "probes": probes}

    def check(record: dict, same_seed: dict | None, base: dict | None) -> list[str]:
        problems = _finite(record)
        if record["probes"] != expected_probes:
            problems.append(f"{record['probes']} probes, expected {expected_probes}")
        if not abs(record["payment"] - record["charged"]) <= tol:
            problems.append(
                f"Myerson payment {record['payment']} vs charged {record['charged']} (tol {tol:g})"
            )
        if same_seed is not None:
            problems += _close(record, same_seed, ("payment", "charged"), AUDIT_TOL)
            problems += _exact(record, same_seed, ("probes",))
        return problems

    return Op(f"myerson/cs/{index}", call, record, check)


def _competitive_op(index: int, objective: str, profile: TypeProfile) -> Op:
    bound = audit.MAX_DELAY_BOUND if objective == "max" else audit.SUM_DELAY_BOUND

    def call():
        return getattr(audit, f"check_competitive_{objective}")(profile)

    def record(report) -> dict:
        return {
            "ratio_max": report.ratio_max,
            "ratio_sum": report.ratio_sum,
            "holds": report.assumptions_hold,
        }

    def check(record: dict, same_seed: dict | None, base: dict | None) -> list[str]:
        problems = []
        ratio = record[f"ratio_{objective}"]
        if record["holds"] and not (math.isfinite(ratio) and 0.0 <= ratio <= bound + 1e-9):
            problems.append(f"{objective} ratio {ratio} outside [0, {bound}]")
        if same_seed is not None:
            problems += _exact(record, same_seed, ("holds",))
            for k in ("ratio_max", "ratio_sum"):
                if record[k] != same_seed[k]:  # inf compares equal to inf
                    problems += _close(record, same_seed, (k,), AUDIT_TOL)
        return problems

    return Op(f"competitive_{objective}/{index}", call, record, check)


def _audit_probe(seed: int, size: dict) -> list[Op]:
    streams = [np.random.default_rng([seed, k]) for k in range(5)]
    sp = _profiles(streams[0], size["sp_profiles"], MAX_AGENTS)
    sp_g = _profiles(streams[1], size["sp_gcsod_profiles"], MAX_AGENTS)
    mono = _profiles(streams[2], size["mono_profiles"], MAX_AGENTS)
    mono_g = _profiles(streams[3], size["mono_gcsod_profiles"], MAX_AGENTS)
    sp_grid = audit.misreport_grid(MAX_AGENTS, 1.0, SP_GRID_POINTS)
    mono_grid = tuple(np.linspace(0.0, 1.0, size["mono_grid"]).tolist())
    ops = [
        _audit_op("check_sp/cs", "check_sp", "cs_allocate", sp, sp_grid, True),
        _audit_op("check_sp/csod", "check_sp", "csod_allocate", sp, sp_grid, False),
        _audit_op("check_sp/gcsod_expected", "check_sp", "gcsod_expected", sp_g, sp_grid, True),
        _audit_op("check_monotonicity/cs", "check_monotonicity", "cs_allocate", mono, mono_grid,
                  True),
        _audit_op("check_monotonicity/gcsod_expected", "check_monotonicity", "gcsod_expected",
                  mono_g, mono_grid, True),
    ]
    rng = streams[4]
    for i, profile in enumerate(_profiles(rng, size["myerson_profiles"], MAX_AGENTS)):
        agent = int(rng.integers(len(profile)))
        ops.append(_myerson_op(i, profile, agent, size["myerson_grid"]))
    competitive = _profiles(rng, size["competitive_profiles"], 10, positive=True)
    for i, profile in enumerate(competitive):
        ops.append(_competitive_op(i, "max", profile))
        ops.append(_competitive_op(i, "sum", profile))
    return ops


_PASSES = {"mc_grid": _mc_grid, "lp_bounds": _lp_bounds, "audit_probe": _audit_probe}


def build(workload: str, seed: int, size: dict) -> list[Op]:
    """The operations of one pass of ``workload``, with inputs made from ``seed``."""
    return _PASSES[workload](seed, size)


def load_refs(refs_dir: Path, workload: str, seed: int) -> tuple[dict, dict]:
    """Recorded records for ``seed`` (empty when not recorded) and for the base seed.

    Raises ValueError when the file is missing or has no base-seed records, as
    the checks would then be left with the invariants alone.
    """
    path = refs_dir / f"{workload}.jsonl"
    if not path.is_file():
        raise ValueError(f"no references at {path}")
    seeds: dict[int, dict] = {}
    for line in path.read_text().splitlines():
        entry = json.loads(line)
        seeds.setdefault(entry["seed"], {})[entry["op"]] = entry["record"]
    if RECORDED_SEEDS[0] not in seeds:
        raise ValueError(f"{path} has no records for seed {RECORDED_SEEDS[0]}")
    return seeds.get(seed, {}), seeds[RECORDED_SEEDS[0]]


def record_refs(refs_dir: Path, workload: str, size: dict, seeds=RECORDED_SEEDS) -> None:
    """Run one pass per seed and store every operation's record, one per line."""
    lines = [
        json.dumps({"seed": seed, "op": op.key, "record": op.record(op.call())})
        for seed in seeds
        for op in build(workload, seed, size)
    ]
    refs_dir.mkdir(parents=True, exist_ok=True)
    (refs_dir / f"{workload}.jsonl").write_text("\n".join(lines) + "\n")
