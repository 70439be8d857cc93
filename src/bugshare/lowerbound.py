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
bound.

Every constraint is a ``<=`` row of one dense system ``A_ub @ x <= b_ub``
over x = (t_0..t_H, p_0..p_H, C), 2H+3 columns.  Its 3H+8 rows are, in
order: the chain (H+1), the sandwich as a lower/upper pair per i (2(H+1)),
the two budget rows, the allocation row, and C <= 1 and -C <= 0.  The chain
and sandwich depend only on the grid (``_arrays``); the last five rows carry
the prior's masses and n (``build_common_constraints``).  Both bounds hand
the system to scipy's HiGHS solver.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

from .distributions import DistributionSpec, SegmentedDistribution, discretize

FEASIBILITY_TOL = 1e-7


def _arrays(H: int, delta: float) -> np.ndarray:
    """The (3H+3, 2H+3) chain and sandwich rows of an H-segment grid of width delta.

    Chain row i is t_i - t_{i-1} <= 0, and t_0 <= 1 for i = 0; that 1 is the
    only nonzero right-hand side.  Sandwich pair i, with the type at segment
    edge i equal to i*delta, is

        lower:  i*delta*(1 - t_i) - sum_{z=1..i} (1 - t_z)*delta <= p_i
        upper:  p_i <= i*delta*(1 - t_i) - sum_{z=0..i-1} (1 - t_z)*delta

    with the constants cancelled; the i = 0 pair pins p_0 = 0.
    """
    i = np.arange(H + 1)
    chain = np.zeros((H + 1, 2 * H + 3))
    chain[i, i] = 1.0
    chain[i[1:], i[:-1]] = -1.0

    lower = np.tril(np.full((H + 1, H + 1), delta))
    lower[:, 0] = 0.0
    lower[i, i] -= i * delta
    upper = np.tril(np.full((H + 1, H + 1), -delta), -1)
    upper[i, i] = i * delta
    sandwich = np.zeros((H + 1, 2, 2 * H + 3))
    sandwich[:, 0, : H + 1] = lower
    sandwich[:, 1, : H + 1] = upper
    sandwich[i, 0, H + 1 + i] = -1.0
    sandwich[i, 1, H + 1 + i] = 1.0
    return np.vstack([chain, sandwich.reshape(2 * H + 2, 2 * H + 3)])


def build_common_constraints(
    seg: SegmentedDistribution, n: int
) -> tuple[np.ndarray, np.ndarray, list[tuple[float | None, float | None]]]:
    """``(A_ub, b_ub, bounds)`` of the constraint system shared by both bounds.

    Adds to the grid's chain and sandwich rows, with P(z) the segment masses,
    the budget rows sum_z P(z) p_{z-1} <= (1 - C)/n <= sum_z P(z) p_z, the
    allocation row C <= sum_z P(z) t_{z-1}, and the rows 0 <= C <= 1.  The
    variable bounds are [0, 1] for the t_i and C and free for the p_i.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    H = seg.H
    P = np.array(seg.masses)
    prior = np.zeros((5, 2 * H + 3))
    prior[0, H + 1 : 2 * H + 1] = P
    prior[1, H + 2 : 2 * H + 2] = -P
    prior[2, :H] = -P
    prior[:, -1] = (1.0 / n, -1.0 / n, 1.0, 1.0, -1.0)
    a_ub = np.vstack([_arrays(H, seg.delta), prior])
    b_ub = np.zeros(3 * H + 8)
    b_ub[0] = 1.0
    b_ub[-5:] = (1.0 / n, -1.0 / n, 0.0, 1.0, 0.0)
    bounds = [(0.0, 1.0)] * (H + 1) + [(None, None)] * (H + 1) + [(0.0, 1.0)]
    return a_ub, b_ub, bounds


def _solve(c, a_ub, b_ub, bounds):
    """HiGHS optimum of min c.x subject to ``a_ub @ x <= b_ub``; raises unless optimal."""
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"LP solver ended with status {res.status}: {res.message}")
    return res


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
    a_ub, b_ub, bounds = build_common_constraints(seg, n)
    c = np.zeros(a_ub.shape[1])
    c[1 : H + 1] = seg.masses
    return n * float(_solve(c, a_ub, b_ub, bounds).fun)


def _max_delay_search(spec: DistributionSpec, n: int, H: int) -> tuple[float, int, int]:
    """The search of ``max_delay_lower_bound``: (bound, attaining point i, LPs solved).

    ``ub`` holds, per truncation point i, the least ``c_i . x_j`` over the
    optima x_j solved so far (+inf before any; -inf once i itself is solved).
    """
    seg = _segments(spec, H)
    a_ub, b_ub, bounds = build_common_constraints(seg, n)
    P = np.array(seg.masses)
    head = np.cumsum(P)
    points = np.flatnonzero(head > 0.0) + 1
    mass_below = head[points - 1]
    hit_prob = 1.0 - (1.0 - mass_below) ** n
    # Row r is the objective of truncation point points[r]: the masses of the
    # segments below the point, scaled by P(some report below) / P(below).
    Cmat = np.zeros((len(points), a_ub.shape[1]))
    below = np.arange(H) < points[:, None]
    Cmat[:, 1 : H + 1] = np.where(below, P * (hit_prob / mass_below)[:, None], 0.0)

    ub = np.full(len(points), np.inf)
    best, best_i, solves = -np.inf, 0, 0
    while ub.max() > best:
        r = len(ub) - 1 - int(np.argmax(ub[::-1]))
        res = _solve(Cmat[r], a_ub, b_ub, bounds)
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
