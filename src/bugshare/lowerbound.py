"""Linear programs bounding the delays of any truthful budget-balanced mechanism.

The relaxation works on the segment grid of the type prior.  Variables are a
non-increasing allocation-time curve t_0..t_H sampled at the segment edges,
the matching expected payments p_0..p_H, and the probability C that the bug
goes unsold.  Four families of constraints tie them together:

* the monotone chain 1 >= t_0 >= ... >= t_H >= 0,
* a two-sided payment sandwich derived from the payment identity of monotone
  truthful mechanisms, discretized segment by segment,
* the budget row pinning each agent's expected payment to (1 - C)/n, and
* the allocation row forcing the expected delay to at least C.

Minimizing the expected per-agent delay under these constraints yields the
sum-delay bound (scaled by n); minimizing a conditional-delay surrogate for
each truncation point i and keeping the largest optimum yields the max-delay
bound.  ``solve_lp`` is a thin contract over scipy's HiGHS solver; the test
suite cross-checks it against a brute-force grid search before trusting it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.optimize import linprog

from .distributions import DistributionSpec, SegmentedDistribution, discretize

FEASIBILITY_TOL = 1e-7


class LPStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class Constraint:
    name: str
    coeffs: dict[str, float]
    sense: str  # "<=" | ">=" | "=="
    rhs: float

    def __post_init__(self) -> None:
        if self.sense not in ("<=", ">=", "=="):
            raise ValueError(f"bad sense {self.sense!r}")


@dataclass
class LPModel:
    """A small dense LP in named-variable form, always minimizing."""

    variables: list[str]
    constraints: list[Constraint] = field(default_factory=list)
    objective: dict[str, float] = field(default_factory=dict)
    bounds: dict[str, tuple[float | None, float | None]] = field(default_factory=dict)

    def validate(self) -> None:
        known = set(self.variables)
        for con in self.constraints:
            unknown = set(con.coeffs) - known
            if unknown:
                raise ValueError(f"constraint {con.name} uses unknown variables {unknown}")
        unknown = set(self.objective) - known
        if unknown:
            raise ValueError(f"objective uses unknown variables {unknown}")

    def with_objective(self, objective: dict[str, float]) -> "LPModel":
        return LPModel(self.variables, self.constraints, dict(objective), self.bounds)

    def to_lp_text(self) -> str:
        """Serialize to the classic LP interchange text format."""

        def terms(coeffs: dict[str, float]) -> str:
            parts = []
            for name in self.variables:
                c = coeffs.get(name)
                if c is None or c == 0.0:
                    continue
                sign = "-" if c < 0 else ("+" if parts else "")
                parts.append(f"{sign} {abs(c):.17g} {name}".strip())
            return " ".join(parts) if parts else "0 " + self.variables[0]

        lines = ["Minimize", f" obj: {terms(self.objective)}", "Subject To"]
        for con in self.constraints:
            lines.append(f" {con.name}: {terms(con.coeffs)} {con.sense} {con.rhs:.17g}")
        lines.append("Bounds")
        for name in self.variables:
            lo, hi = self.bounds.get(name, (0.0, None))
            if lo is None and hi is None:
                lines.append(f" {name} free")
            elif hi is None:
                lines.append(f" {name} >= {lo:.17g}")
            else:
                lines.append(f" {lo:.17g} <= {name} <= {hi:.17g}")
        lines.append("End")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class LPSolution:
    objective_value: float | None
    variable_values: dict[str, float]
    status: LPStatus


def _t(i: int) -> str:
    return f"t_{i}"


def _p(i: int) -> str:
    return f"p_{i}"


def build_common_constraints(seg: SegmentedDistribution, n: int) -> LPModel:
    """Constraint system shared by both bound objectives.

    Emits, with delta the segment width and P(z) the segment masses: the
    monotone chain (H+1 rows), the two-sided payment sandwich (2(H+1) rows,
    the i=0 pair pinning p_0 = 0), the two budget rows, the allocation row,
    and explicit 0 <= C <= 1 rows; 3H+8 rows in total.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    H = seg.H
    delta = seg.delta
    P = seg.masses
    variables = [_t(i) for i in range(H + 1)] + [_p(i) for i in range(H + 1)] + ["C"]
    model = LPModel(variables=variables)
    model.bounds = {_t(i): (0.0, 1.0) for i in range(H + 1)}
    model.bounds.update({_p(i): (None, None) for i in range(H + 1)})
    model.bounds["C"] = (0.0, 1.0)
    add = model.constraints.append

    add(Constraint("chain_top", {_t(0): 1.0}, "<=", 1.0))
    for i in range(1, H + 1):
        add(Constraint(f"chain_{i}", {_t(i): 1.0, _t(i - 1): -1.0}, "<=", 0.0))

    for i in range(H + 1):
        # lower: i*delta*(1 - t_i) - sum_{z=1..i} (1 - t_z)*delta <= p_i
        lo: dict[str, float] = {_p(i): -1.0}
        for z in range(1, i + 1):
            lo[_t(z)] = lo.get(_t(z), 0.0) + delta
        lo[_t(i)] = lo.get(_t(i), 0.0) - i * delta
        add(Constraint(f"pay_lo_{i}", lo, "<=", 0.0))
        # upper: p_i <= i*delta*(1 - t_i) - sum_{z=0..i-1} (1 - t_z)*delta
        hi: dict[str, float] = {_p(i): 1.0}
        hi[_t(i)] = hi.get(_t(i), 0.0) + i * delta
        for z in range(i):
            hi[_t(z)] = hi.get(_t(z), 0.0) - delta
        add(Constraint(f"pay_hi_{i}", hi, "<=", 0.0))

    budget_lo = {_p(z - 1): P[z - 1] for z in range(1, H + 1)}
    budget_lo["C"] = budget_lo.get("C", 0.0) + 1.0 / n
    add(Constraint("budget_lo", budget_lo, "<=", 1.0 / n))
    budget_hi = {_p(z): -P[z - 1] for z in range(1, H + 1)}
    budget_hi["C"] = budget_hi.get("C", 0.0) - 1.0 / n
    add(Constraint("budget_hi", budget_hi, "<=", -1.0 / n))

    alloc = {_t(z - 1): -P[z - 1] for z in range(1, H + 1)}
    alloc["C"] = alloc.get("C", 0.0) + 1.0
    add(Constraint("alloc_time", alloc, "<=", 0.0))

    add(Constraint("c_hi", {"C": 1.0}, "<=", 1.0))
    add(Constraint("c_lo", {"C": -1.0}, "<=", 0.0))

    model.validate()
    return model


def _arrays(model: LPModel):
    index = {name: j for j, name in enumerate(model.variables)}
    nv = len(model.variables)
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for con in model.constraints:
        row = np.zeros(nv)
        for name, c in con.coeffs.items():
            row[index[name]] = c
        if con.sense == "<=":
            a_ub.append(row)
            b_ub.append(con.rhs)
        elif con.sense == ">=":
            a_ub.append(-row)
            b_ub.append(-con.rhs)
        else:
            a_eq.append(row)
            b_eq.append(con.rhs)
    bounds = [model.bounds.get(name, (0.0, None)) for name in model.variables]
    stack = lambda rows: np.vstack(rows) if rows else None
    return index, stack(a_ub), np.array(b_ub), stack(a_eq), np.array(b_eq), bounds


def _solve_arrays(c, a_ub, b_ub, a_eq, b_eq, bounds):
    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=b_ub if a_ub is not None else None,
        A_eq=a_eq,
        b_eq=b_eq if a_eq is not None else None,
        bounds=bounds,
        method="highs",
    )
    return res


def solve_lp(model: LPModel) -> LPSolution:
    """Minimize the model's objective; statuses map to optimal/infeasible/unbounded."""
    model.validate()
    index, a_ub, b_ub, a_eq, b_eq, bounds = _arrays(model)
    c = np.zeros(len(model.variables))
    for name, coeff in model.objective.items():
        c[index[name]] = coeff
    res = _solve_arrays(c, a_ub, b_ub, a_eq, b_eq, bounds)
    if res.status == 2:
        return LPSolution(None, {}, LPStatus.INFEASIBLE)
    if res.status == 3:
        return LPSolution(None, {}, LPStatus.UNBOUNDED)
    if res.status != 0:
        raise RuntimeError(f"LP solver failed: {res.message}")
    values = {name: float(res.x[j]) for name, j in index.items()}
    return LPSolution(float(res.fun), values, LPStatus.OPTIMAL)


def _segments(spec: DistributionSpec, H: int) -> SegmentedDistribution:
    """Segment masses for the LP, whose types at segment edge i are i*delta."""
    if spec.lo != 0.0:
        raise ValueError(
            f"LP bounds need a support starting at 0; {spec.label()} starts at {spec.lo:g}"
        )
    return discretize(spec, H)


def sum_delay_lower_bound(spec: DistributionSpec, n: int, H: int) -> float:
    """Lower bound on the expected total delay of any admissible mechanism.

    The LP minimizes the per-agent expected delay surrogate; the n-agent sum
    is n times that optimum.
    """
    seg = _segments(spec, H)
    model = build_common_constraints(seg, n)
    model.objective = {_t(z): seg.masses[z - 1] for z in range(1, H + 1)}
    solution = solve_lp(model)
    if solution.status is not LPStatus.OPTIMAL:
        raise RuntimeError(f"sum-delay LP ended {solution.status.value}")
    return n * solution.objective_value


def _max_delay_search(spec: DistributionSpec, n: int, H: int) -> tuple[float, int, int]:
    """The search of ``max_delay_lower_bound``: (bound, attaining point i, LPs solved).

    ``ub`` holds, per truncation point i, the least ``c_i . x_j`` over the
    optima x_j solved so far (+inf before any; -inf once i itself is solved).
    """
    seg = _segments(spec, H)
    model = build_common_constraints(seg, n)
    _, a_ub, b_ub, a_eq, b_eq, bounds = _arrays(model)
    P = np.array(seg.masses)
    head = np.cumsum(P)
    points = np.flatnonzero(head > 0.0) + 1
    mass_below = head[points - 1]
    hit_prob = 1.0 - (1.0 - mass_below) ** n
    # Row r is the objective of truncation point points[r]: the masses of the
    # segments below the point, scaled by P(some report below) / P(below).
    Cmat = np.zeros((len(points), len(model.variables)))
    below = np.arange(H) < points[:, None]
    Cmat[:, 1 : H + 1] = np.where(below, P * (hit_prob / mass_below)[:, None], 0.0)

    ub = np.full(len(points), np.inf)
    best, best_i, solves = -np.inf, 0, 0
    while ub.max() > best:
        r = len(ub) - 1 - int(np.argmax(ub[::-1]))
        res = _solve_arrays(Cmat[r], a_ub, b_ub, a_eq, b_eq, bounds)
        if res.status != 0:
            raise RuntimeError(f"max-delay LP at i={points[r]} ended with status {res.status}")
        solves += 1
        if res.fun > best:
            best, best_i = float(res.fun), int(points[r])
        ub = np.minimum(ub, Cmat @ res.x)
        ub[r] = -np.inf
    return best, best_i, solves


def max_delay_lower_bound(spec: DistributionSpec, n: int, H: int) -> float:
    """Lower bound on the expected maximum delay of any admissible mechanism.

    For every truncation point i, the expected max delay is at least the
    average delay of a report below the point times the probability that such
    a report exists; each of these H objectives is minimized under the common
    constraints and the largest optimum is the bound (every one is valid).

    The objectives share one constraint system, so the optimum of any solved
    LP is a feasible point of all the others, and its value under objective i
    certifies an upper bound on LP i's optimum.  A best-first search solves
    the LP with the largest certified bound and stops once none exceeds the
    largest optimum found; every LP it skips provably cannot raise the
    maximum, so the result equals that of solving all H LPs, typically after
    a handful of solves.
    """
    return _max_delay_search(spec, n, H)[0]
