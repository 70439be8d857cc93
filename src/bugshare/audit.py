"""Empirical checkers for the mechanism guarantees.

Everything here treats a mechanism as a black-box callable from a profile to
an object carrying ``times`` and ``payments`` (an :class:`~bugshare.mechanisms.Outcome`
or the expectation record of the randomized group rule), except ``check_bb``,
which takes realized ``Outcome``s only.  Strategy-proofness is probed on
misreport grids, individual rationality on truthful outcomes, budget balance
on realized ones, and allocation-time monotonicity on report sweeps.  The
payment identity of monotone single-parameter mechanisms doubles as an
independent oracle for the charged payments.

``alpha`` is the expected factor by which a fair random split of the k cost
sharers can stretch the optimal deadline; ``check_competitive_max`` and
``check_competitive_sum`` verify the 4x / 8x delay guarantees of the group
rule against the optimal-deadline rule profile by profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from fractions import Fraction
from typing import Callable, Iterable, Protocol, Sequence

import numpy as np

from .distributions import _count
from .mechanisms import (
    BUDGET_TOL,
    QUALIFY_TOL,
    Outcome,
    TypeProfile,
    _check_agent,
    _check_deadline,
    csod_allocate,
    gcsod_expected,
)

DEFAULT_EPSILON = 1e-9
MONO_TOL = 1e-9
IR_TOL = 1e-9

MAX_DELAY_BOUND = 4.0
SUM_DELAY_BOUND = 8.0


class Allocation(Protocol):
    times: Sequence[float]
    payments: Sequence[float]


Mechanism = Callable[[TypeProfile], Allocation]


class BoundViolation(RuntimeError):
    """A proven competitive-ratio guarantee failed; indicates an implementation bug."""


@dataclass(frozen=True)
class Violation:
    """One counterexample found by a checker."""

    profile: tuple[float, ...]
    agent: int
    detail: float | None  # misreport, deadline or sweep point, None if n/a
    amount: float  # utility gain, deficit, early release or rise in time


@dataclass
class AuditReport:
    property: str  # "SP" | "IR" | "BB" | "MONO"
    violations: list[Violation]
    probes: int  # misreports, profiles, outcomes or sweep points checked; never 0

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "property": self.property,
            "passed": self.passed,
            "probes": self.probes,
            "violations": [asdict(v) for v in self.violations],
        }


@dataclass(frozen=True)
class CompetitiveReport:
    """Delay ratios of the group rule against the optimal-deadline rule."""

    profile: tuple[float, ...]
    ratio_max: float
    ratio_sum: float
    assumptions_hold: bool


def _report(prop: str, violations: list[Violation], probes: int) -> AuditReport:
    """The audit's verdict; an audit that probed nothing checked nothing and raises."""
    if probes == 0:
        raise ValueError(f"{prop} audit made no probe: no profiles, agents or grid points")
    return AuditReport(prop, violations, probes)


def max_delay(outcome: Allocation) -> float:
    return max(outcome.times)


def sum_delay(outcome: Allocation) -> float:
    return sum(outcome.times)


def utility(value: float, times: Sequence[float], payments: Sequence[float], agent: int) -> float:
    return (1.0 - times[agent]) * value - payments[agent]


def misreport_grid(n: int, deadline: float = 1.0, points: int = 50):
    """Uniform misreports on [0, 1] plus every 1/(k*deadline) entry threshold."""
    _check_deadline(deadline)
    n = _count(n, "n")
    # at least both ends of [0, 1], the floor of a monotonicity sweep
    grid = set(np.linspace(0.0, 1.0, _count(points, "points", 2)).tolist())
    if deadline > 0.0:
        grid.update(1.0 / (k * deadline) for k in range(1, n + 1))
    return tuple(sorted(grid))


def check_sp(
    mechanism: Mechanism,
    profiles: Iterable[TypeProfile],
    report_grid: Sequence[float],
    epsilon: float = DEFAULT_EPSILON,
) -> AuditReport:
    """Grid-probe truthfulness: no misreport may beat the truth by more than epsilon."""
    if not epsilon >= 0.0:  # so that NaN, which every probe would pass, fails
        raise ValueError("epsilon must be non-negative")
    if epsilon == math.inf:  # every probe would pass this one too
        raise ValueError("epsilon must be finite")
    violations = []
    probes = 0
    for profile in profiles:
        truth = mechanism(profile)
        for agent, value in enumerate(profile.values):
            u_truth = utility(value, truth.times, truth.payments, agent)
            for report in report_grid:
                if report == value:
                    continue
                probes += 1
                dev = mechanism(profile.replace(agent, report))
                u_dev = utility(value, dev.times, dev.payments, agent)
                if u_dev > u_truth + epsilon:
                    violations.append(
                        Violation(profile.values, agent, float(report), u_dev - u_truth)
                    )
    return _report("SP", violations, probes)


def check_ir(mechanism: Mechanism, profiles: Iterable[TypeProfile]) -> AuditReport:
    """Truthful utility must never be negative."""
    violations = []
    probes = 0
    for profile in profiles:
        probes += 1
        out = mechanism(profile)
        for agent, value in enumerate(profile.values):
            u = utility(value, out.times, out.payments, agent)
            if u < -IR_TOL:
                violations.append(Violation(profile.values, agent, None, u))
    return _report("IR", violations, probes)


def check_bb(
    mechanism: Callable[[TypeProfile], Outcome | Iterable[Outcome]],
    profiles: Iterable[TypeProfile],
) -> AuditReport:
    """Ex post budget balance on realized outcomes.

    The mechanism may return one outcome or an iterable of realizations (the
    group rule is checked per grouping).  An ``Outcome`` collects 1 or
    nothing, or it is not built, so what is left is that a run which does
    not sell releases nobody before time 1; csd at a deadline below 1 fails it.
    Any other realization, such as an expectation record, raises ``TypeError``.
    """
    violations = []
    probes = 0
    for profile in profiles:
        result = mechanism(profile)
        outcomes = [result] if isinstance(result, Outcome) else list(result)
        for out in outcomes:
            if not isinstance(out, Outcome):
                raise TypeError(
                    "budget balance is checked on realized outcomes (for the group rule, "
                    f"gcsod_realizations), not on {type(out).__name__} (the mechanism "
                    f"returned {type(result).__name__})"
                )
            probes += 1
            if not out.sold:
                for agent, t in enumerate(out.times):
                    if t < 1.0 - BUDGET_TOL:
                        violations.append(Violation(profile.values, agent, t, 1.0 - t))
    return _report("BB", violations, probes)


def check_monotonicity(
    mechanism: Mechanism,
    profiles: Iterable[TypeProfile],
    grid: Sequence[float],
) -> AuditReport:
    """Allocation time must be non-increasing along each agent's report sweep."""
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("report grid must be sorted ascending")
    if len(grid) == 1:  # it would probe, but never compare two sweep points
        raise ValueError("monotonicity needs at least two grid points")
    violations = []
    probes = 0
    for profile in profiles:
        for agent in range(len(profile)):
            previous = None
            for report in grid:
                probes += 1
                t = mechanism(profile.replace(agent, report)).times[agent]
                if previous is not None and t > previous + MONO_TOL:
                    violations.append(
                        Violation(profile.values, agent, float(report), t - previous)
                    )
                previous = t
    return _report("MONO", violations, probes)


def myerson_payment(
    mechanism: Mechanism,
    agent: int,
    profile: TypeProfile,
    integration_grid_size: int = 10_000,
) -> float:
    """Payment implied by the allocation curve of a monotone truthful mechanism.

    Midpoint-integrates the agent's allocation-time curve from 0 to her
    report; for a strategy-proof mechanism the result matches the charged
    payment up to the integration step, making this an independent oracle.
    """
    integration_grid_size = _count(integration_grid_size, "integration_grid_size")
    _check_agent(agent, len(profile))
    value = profile.values[agent]
    t_truth = mechanism(profile).times[agent]
    if value == 0.0:
        return 0.0
    step = value / integration_grid_size
    acc = 0.0
    for j in range(integration_grid_size):
        z = (j + 0.5) * step
        acc += 1.0 - mechanism(profile.replace(agent, z)).times[agent]
    return value * (1.0 - t_truth) - acc * step


def alpha(k: int) -> float:
    """Expected deadline stretch of a fair split of k cost sharers.

    Average over the binomial split sizes of k / max(1, min(left, right)),
    evaluated in exact rational arithmetic before the final conversion.
    """
    k = _count(k, "k")
    total = Fraction(0)
    for k_left in range(k + 1):
        weight = math.comb(k, k_left) * k
        total += Fraction(weight, max(1, min(k_left, k - k_left)))
    return float(total / 2**k)


def verify_alpha_bound(k_max: int) -> bool:
    """True iff the split stretch factor stays below 4 for every k up to k_max."""
    return all(alpha(k) < MAX_DELAY_BOUND for k in range(1, _count(k_max, "k_max") + 1))


def _check_competitive(profile: TypeProfile, objective: str) -> CompetitiveReport:
    """Both delay ratios of ``profile``; raises when ``objective``'s bound fails.

    ``objective`` is "max" or "sum".  The bound is asserted only when every
    value is at most 1 and enough agents sit out the cost sharing set: at
    least one for "max", at least half for "sum".
    """
    baseline = csod_allocate(profile)
    expected = gcsod_expected(profile)
    k_star = sum(1 for p in baseline.payments if p > 0.0)
    denom_max = max_delay(baseline)
    denom_sum = sum_delay(baseline)
    ratio_max = expected.max_delay / denom_max if denom_max > 0.0 else math.inf
    ratio_sum = expected.sum_delay / denom_sum if denom_sum > 0.0 else math.inf
    if objective == "max":
        ratio, bound, sits_out = ratio_max, MAX_DELAY_BOUND, k_star < len(profile)
    else:
        ratio, bound, sits_out = ratio_sum, SUM_DELAY_BOUND, 2 * k_star <= len(profile)
    holds = sits_out and all(v <= 1.0 + QUALIFY_TOL for v in profile.values)
    if holds and ratio > bound + DEFAULT_EPSILON:
        raise BoundViolation(
            f"{objective}-delay ratio {ratio} exceeds {bound} on {profile.values}"
        )
    return CompetitiveReport(profile.values, ratio_max, ratio_sum, holds)


def check_competitive_max(profile: TypeProfile) -> CompetitiveReport:
    """Expected max delay of the group rule within 4x of the optimal-deadline rule.

    Requires every value at most 1 and at least one agent outside the cost
    sharing set; otherwise the report is returned with
    ``assumptions_hold=False`` and nothing is asserted.
    """
    return _check_competitive(profile, "max")


def check_competitive_sum(profile: TypeProfile) -> CompetitiveReport:
    """Expected sum delay of the group rule within 8x of the optimal-deadline rule.

    Requires every value at most 1 and at least half the agents outside the
    cost sharing set.
    """
    return _check_competitive(profile, "sum")
