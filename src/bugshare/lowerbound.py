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

The payments enter in slack form.  With the type at segment edge i equal to
i*delta, the sandwich of p_i is L_i(t) <= p_i <= U_i(t), where

    L_i(t) = delta * sum_{z=1..i} t_z - i*delta*t_i
    U_i(t) = delta * sum_{z=0..i-1} t_z - i*delta*t_i = L_i(t) + delta*(t_0 - t_i).

Substituting p_i = L_i(t) + w_i is an exact change of variables: the lower
side becomes the bound w_i >= 0 and the upper side the three-term row
w_i <= delta*(t_0 - t_i), so only the budget rows keep O(H) terms and the
system has O(H) nonzeros where the sandwich rows in p alone hold O(H^2).

Every constraint is a ``<=`` row of one sparse CSR system ``A_ub @ x <= b_ub``
over x = (t_0..t_H, w_0..w_H, C), 2H+3 columns.  Its 2H+7 rows are, in
order: the chain (H+1), the band w_i <= delta*(t_0 - t_i) per i (H+1; the
i = 0 row pins w_0 = 0), the two budget rows, the allocation row, and C <= 1
and -C <= 0.  The chain and band depend only on the grid (``_arrays``); the
last five rows carry the prior's masses and n (``build_common_constraints``).
Both bounds hand the system to scipy's HiGHS solver.  Their objectives weigh
the t_i alone, so the substitution leaves them unchanged.  HiGHS runs with its
presolve off: at H = 100 a system has 207 rows and about 1,000 nonzeros, and on
systems this small presolve costs more than it saves (the benchmark's LP pass
took about a sixth less time without it, with equal bounds).  A solve that
stops on numerical difficulties without presolve is retried with it (``_solve``).

scipy is imported on first use: ``scipy.sparse`` where the system is built
(``_arrays``, ``build_common_constraints``) and ``scipy.optimize`` in
``linprog``, this module's one entry to the solver, on its first call.
Together they take longer to import than numpy, and nothing else in the
package needs them, so ``import bugshare`` loads numpy alone.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .distributions import DistributionSpec, SegmentedDistribution, discretize

if TYPE_CHECKING:
    from scipy import sparse


class SolverError(RuntimeError):
    """The LP solver ended without an optimum; the message carries its status."""


def _arrays(H: int, delta: float) -> sparse.csr_array:
    """The (2H+2, 2H+3) chain and band rows of an H-segment grid of width delta.

    Chain row i is t_i - t_{i-1} <= 0, and t_0 <= 1 for i = 0; that 1 is the
    only nonzero right-hand side.  Band row i is w_i + delta*t_i - delta*t_0
    <= 0, the upper payment sandwich in slack form; for i = 0 its t terms
    cancel, leaving w_0 <= 0.
    """
    from scipy import sparse

    i = np.arange(H + 1)
    j = i[1:]
    rows = np.concatenate([i, j, H + 1 + i, H + 1 + j, H + 1 + j])
    cols = np.concatenate([i, j - 1, H + 1 + i, j, np.zeros(H, dtype=int)])
    vals = np.concatenate(
        [np.ones(H + 1), np.full(H, -1.0), np.ones(H + 1), np.full(H, delta), np.full(H, -delta)]
    )
    return sparse.csr_array((vals, (rows, cols)), shape=(2 * H + 2, 2 * H + 3))


def build_common_constraints(
    seg: SegmentedDistribution, n: int
) -> tuple[sparse.csr_array, np.ndarray, list[tuple[float | None, float | None]]]:
    """``(A_ub, b_ub, bounds)`` of the constraint system shared by both bounds.

    The columns are t_0..t_H, w_0..w_H and C, where w_i = p_i - L_i(t) is the
    slack of the expected payment p_i above its lower sandwich L_i(t) (module
    docstring).  Adds to the grid's chain and band rows, with P(z) the segment
    masses, the budget rows sum_z P(z) p_{z-1} <= (1 - C)/n <= sum_z P(z) p_z,
    the allocation row C <= sum_z P(z) t_{z-1}, and the rows 0 <= C <= 1.  A
    budget row that weighs p_y by a_y weighs w_y by a_y and, for y >= 1, t_y
    by delta * (sum_{z>=y} a_z - y*a_y).  The variable bounds are [0, 1] for
    the t_i and C and [0, inf) for the w_i.
    """
    from scipy import sparse

    if n < 1:
        raise ValueError("n must be at least 1")
    H, delta = seg.H, seg.delta
    P = np.array(seg.masses)
    pay = np.zeros((2, H + 1))
    pay[0, :H] = P
    pay[1, 1:] = -P
    tail = np.cumsum(pay[:, ::-1], axis=1)[:, ::-1]
    prior = np.zeros((5, 2 * H + 3))
    prior[:2, 1 : H + 1] = delta * (tail - np.arange(H + 1) * pay)[:, 1:]
    prior[:2, H + 1 : 2 * H + 2] = pay
    prior[2, :H] = -P
    prior[:, -1] = (1.0 / n, -1.0 / n, 1.0, 1.0, -1.0)
    a_ub = sparse.vstack([_arrays(H, delta), sparse.csr_array(prior)], format="csr")
    b_ub = np.zeros(2 * H + 7)
    b_ub[0] = 1.0
    b_ub[-5:] = (1.0 / n, -1.0 / n, 0.0, 1.0, 0.0)
    bounds = [(0.0, 1.0)] * (H + 1) + [(0.0, None)] * (H + 1) + [(0.0, 1.0)]
    return a_ub, b_ub, bounds


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first call; the one solver entry.

    Every argument passes through unchanged, so a wrapper of this name (the
    benchmark's tracer) sees each solve's ``A_ub`` and result.
    """
    from scipy.optimize import linprog

    return linprog(*args, **kwargs)


def _solve(c, a_ub, b_ub, bounds):
    """HiGHS optimum of min c.x subject to ``a_ub @ x <= b_ub``; raises unless optimal.

    Presolve is off.  The systems here are small (module docstring), and
    HiGHS solved them faster without it, for bounds equal within its 1e-7
    tolerances on every prior tried.  Without presolve, HiGHS can stop on
    numerical difficulties (status 4) where presolve finds the optimum: the
    sum bound of N(1.171875,0.05078125) at n = 1, H = 28 does.  Such a solve is
    run once more with presolve on.  A solve that still ends without an optimum
    (any status but 0) raises ``SolverError``.
    """
    res = linprog(
        c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs", options={"presolve": False}
    )
    if res.status == 4:
        res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if res.status != 0:
        raise SolverError(f"LP solver ended with status {res.status}: {res.message}")
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
    # The objective of truncation point points[r] weighs the t of the segments
    # below the point by their masses, scaled by P(some report below) / P(below).
    scale = (1.0 - (1.0 - mass_below) ** n) / mass_below

    ub = np.full(len(points), np.inf)
    best, best_i, solves = -np.inf, 0, 0
    while ub.max() > best:
        r = len(ub) - 1 - int(np.argmax(ub[::-1]))
        c = np.zeros(a_ub.shape[1])
        c[1 : points[r] + 1] = P[: points[r]] * scale[r]
        res = _solve(c, a_ub, b_ub, bounds)
        solves += 1
        if res.fun > best:
            best, best_i = float(res.fun), int(points[r])
        ub = np.minimum(ub, scale * np.cumsum(P * res.x[1 : H + 1])[points - 1])
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
