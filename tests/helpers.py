"""Shared reference data and independent oracles for the test suite."""

from __future__ import annotations

import csv
import io
import itertools

import numpy as np

from bugshare import lowerbound
from bugshare.distributions import discretize
from bugshare.mechanisms import (
    DeadlineResult,
    Grouping,
    Outcome,
    TypeProfile,
    csd_allocate,
    optimal_deadline,
)
from bugshare.simulate import TableRow

# Reference values for the benchmark grid, keyed by (distribution label, n).
# Columns: (gcsod_max, cs_max, lb_max, gcsod_sum, cs_sum, lb_sum), all
# rounded to two decimals.
REFERENCE_TABLE = {
    ("U(0,1)", 1): (1.00, 1.00, 0.89, 1.00, 1.00, 0.89),
    ("U(0,1)", 2): (0.87, 0.75, 0.67, 1.75, 1.50, 0.96),
    ("U(0,1)", 5): (0.85, 0.67, 0.46, 2.67, 1.41, 0.94),
    ("U(0,1)", 10): (0.68, 0.65, 0.29, 3.01, 1.13, 0.89),
    ("N(0.5,0.2)", 1): (1.00, 1.00, 0.97, 1.00, 1.00, 0.97),
    ("N(0.5,0.2)", 2): (0.87, 0.75, 0.63, 1.75, 1.50, 0.89),
    ("N(0.5,0.2)", 5): (0.79, 0.27, 0.20, 2.13, 0.40, 0.27),
    ("N(0.5,0.2)", 10): (0.54, 0.15, 0.11, 2.20, 0.17, 0.14),
    ("N(0.5,0.4)", 1): (0.95, 0.95, 0.92, 0.95, 0.95, 0.92),
    ("N(0.5,0.4)", 2): (0.88, 0.76, 0.66, 1.73, 1.48, 0.94),
    ("N(0.5,0.4)", 5): (0.84, 0.57, 0.40, 2.54, 1.09, 0.71),
    ("N(0.5,0.4)", 10): (0.65, 0.50, 0.26, 2.76, 0.74, 0.59),
}

# Simulated cells whose printed reference no sampler of the stated prior can
# reach, with the exact expected delay the simulation is held to instead.
# Keyed by row; the value applies to all four simulated cells of the row
# (gcsod/cs x max/sum), which coincide at n = 1.  REFERENCE_TABLE keeps the
# printed 0.95.
#
# Derivation for (N(0.5,0.4), n=1): with one agent, a sale means that agent
# pays the whole cost 1.  Individual rationality caps the payment at
# v * (1 - t) <= v, so a sale needs v >= 1 - QUALIFY_TOL = 1 - 1e-12.  Normal
# priors are conditioned on [0, 1] (``cdf(N(0.5,0.4), 1.0) == 1.0``), so
# P(sale) = 1 - cdf(spec, 1 - 1e-12), about 6e-13, and the expected delay is
# 1.00 for both rules and both objectives.  No other reading of the prior
# gives 0.95 either: clipping the normal at 1 gives 1 - P(X >= 1) = 0.894,
# and conditioning on [0, inf) gives 0.882.  Only the [0, 1]-conditioned
# segment masses reproduce the same row's 0.92 bound entry (0.9235 at
# H = 100).
DERIVED_SIM_EXPECTATIONS = {("N(0.5,0.4)", 1): 1.00}

EXAMPLE_PROFILE = TypeProfile((0.9, 0.8, 0.26, 0.26))

# Agreement of two LP optima (HiGHS', or the slack form's and the dense
# oracle's), within the solver's own 1e-7 feasibility and optimality tolerances.
FEASIBILITY_TOL = 1e-7

# Values whose 1/(k*t) prices and deadlines coincide, so that ties between
# agents, ties between the two sides' deadlines and values landing exactly on
# a price are common.  0.73 lands one ulp below its own price 1/(2t) at the
# deadline t = 1/(2 * 0.73), so only QUALIFY_TOL lets a pair of them pay.
TIE_GRID = (0.0, 0.1, 0.25, 1 / 3, 0.5, 0.73, 1.0, 1.2)


def brute_force_sharing_set(values, deadline=1.0, tol=1e-12):
    """K(deadline) straight from its definition, by scanning every k."""
    members = []
    for k in range(1, len(values) + 1):
        if deadline <= 0.0:
            continue
        price = 1.0 / (k * deadline)
        if sum(1 for v in values if v >= price - tol) >= k:
            members.append(k)
    return members


def gcsod_oracle(profile: TypeProfile, grouping: Grouping) -> Outcome:
    """The group rule under one grouping, built from the public scalar rules.

    Each side's deadline is ``optimal_deadline`` of its own members; an empty
    side has deadline 1 and nobody to fund it.  The side with the earlier
    deadline wins, exact ties going to the left when it can fund, and runs
    ``csd_allocate`` under the other side's deadline; the losers wait until
    the winner's own deadline.  When neither side funds, nobody buys.
    """
    n = len(profile)
    sides = [[i for i in range(n) if grouping.side[i] == s] for s in "LR"]
    d_left, d_right = (
        optimal_deadline(TypeProfile(tuple(profile.values[i] for i in side)))
        if side
        else DeadlineResult(1.0, 0)
        for side in sides
    )
    if d_left.t_star < d_right.t_star or (
        d_left.t_star == d_right.t_star and d_left.k_star >= 1
    ):
        winner, own, extended = sides[0], d_left.t_star, d_right.t_star
    elif d_right.t_star < d_left.t_star or d_right.k_star >= 1:
        winner, own, extended = sides[1], d_right.t_star, d_left.t_star
    else:
        return Outcome((1.0,) * n, (0.0,) * n)

    winning = csd_allocate(TypeProfile(tuple(profile.values[i] for i in winner)), extended)
    assert winning.sold, "a side that funds its own deadline funds any later one"
    times = [own] * n
    payments = [0.0] * n
    for i, t, p in zip(winner, winning.times, winning.payments):
        times[i] = t
        payments[i] = p
    return Outcome(tuple(times), tuple(payments))


def enumerate_gcsod(profile: TypeProfile):
    """Yield (grouping, outcome) for every left/right split via the scalar oracle."""
    for bits in itertools.product("LR", repeat=len(profile)):
        grouping = Grouping(bits)
        yield grouping, gcsod_oracle(profile, grouping)


def gcsod_expectation_oracle(profile: TypeProfile):
    """Brute-force coin-flip expectations of the group rule."""
    n = len(profile)
    times = np.zeros(n)
    payments = np.zeros(n)
    tot_max = tot_sum = 0.0
    count = 0
    for _, out in enumerate_gcsod(profile):
        times += out.times
        payments += out.payments
        tot_max += max(out.times)
        tot_sum += sum(out.times)
        count += 1
    return times / count, payments / count, tot_max / count, tot_sum / count


def random_profiles(rng, count, n_low=2, n_high=8, lo=0.0, hi=1.0):
    """Seeded random profiles with per-profile agent counts in [n_low, n_high]."""
    profiles = []
    for _ in range(count):
        n = int(rng.integers(n_low, n_high + 1))
        profiles.append(TypeProfile(tuple(lo + (hi - lo) * rng.random(n))))
    return profiles


def table_from_csv(text: str) -> list[TableRow]:
    """Parse ``simulate.table_to_csv`` output back into records."""
    return [
        TableRow(
            distribution=entry["distribution"],
            n=int(entry["n"]),
            mechanism=entry["mechanism"],
            objective=entry["objective"],
            value=float(entry["value"]),
            stderr=float(entry["stderr"]) if entry["stderr"] else None,
        )
        for entry in csv.DictReader(io.StringIO(text))
    ]


def lp_grid_slice(masses, n, t0, step=1e-3):
    """Brute-force optimum of the H=2 sum-delay model at one t_0, on a step grid.

    Scans a vectorized (t_1, t_2) grid; payments sit at their sandwich
    extremes (the loosest feasible choice) and the unsold weight C is
    checked against its own grid.  Returns inf when nothing in the slice is
    feasible.  Only H=2 is supported.
    """
    if len(masses) != 2:
        raise ValueError("oracle only handles H = 2")
    w1, w2 = masses
    m = int(round(1.0 / step))
    axis = np.arange(m + 1) / m
    delta = 0.5  # segment width of [0, 1] split in two
    t1 = axis[:, None]
    t2 = axis[None, :]
    objective = w1 * t1 + w2 * t2
    chain = (t1 <= t0) & (t2 <= t1)
    # sandwich extremes given the chain ordering (p_1 lower bound is 0)
    up1 = delta * (t0 - t1)
    up2 = delta * ((t0 - t2) + (t1 - t2))
    # budget interval that some C in [0, alloc_cap] can satisfy:
    #   w1*p_0 + w2*p_1 <= (1-C)/n <= w1*p_1 + w2*p_2  with p_0 = 0
    rhs_max = w1 * up1 + w2 * up2
    alloc_cap = np.minimum(w1 * t0 + w2 * t1, 1.0)
    c_lo = np.maximum(0.0, 1.0 - n * rhs_max)
    c_hi = alloc_cap
    # snap to the C grid: a grid point must fall inside [c_lo, c_hi]
    c_feasible = np.ceil(c_lo / step - 1e-9) * step <= c_hi + 1e-12
    feasible = chain & c_feasible
    return float(objective[feasible].min()) if feasible.any() else np.inf


def lp_grid_oracle(masses, n, step=1e-3):
    """Brute-force optimum of the H=2 sum-delay model on a step grid: the t_0 = 1 slice.

    No scan over t_0 is needed.  Every constraint of ``lp_grid_slice``
    loosens as t_0 grows: the chain bound t_1 <= t_0, both sandwich extremes
    (so c_lo falls) and the allocation cap c_hi all move one way, and the
    snapped test is monotone in c_lo and c_hi.  So each slice's feasible set
    holds every smaller t_0's, while the objective does not depend on t_0,
    and the largest grid value, t_0 = 1, gives the whole scan's minimum.
    """
    return lp_grid_slice(masses, n, 1.0, step)


def dense_arrays(H: int, delta: float) -> np.ndarray:
    """The (3H+3, 2H+3) chain and sandwich rows of an H-segment grid of width delta.

    The library's LP written in the payments themselves, as one dense array:
    columns t_0..t_H, p_0..p_H, C.  Chain row i is t_i - t_{i-1} <= 0, and t_0 <= 1 for i = 0; that 1 is
    the only nonzero right-hand side.  Sandwich pair i, with the type at
    segment edge i equal to i*delta, is

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


def dense_common_constraints(seg, n):
    """``(A_ub, b_ub, bounds)`` of the dense p-form system, the library LP's oracle.

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
    a_ub = np.vstack([dense_arrays(H, seg.delta), prior])
    b_ub = np.zeros(3 * H + 8)
    b_ub[0] = 1.0
    b_ub[-5:] = (1.0 / n, -1.0 / n, 0.0, 1.0, 0.0)
    bounds = [(0.0, 1.0)] * (H + 1) + [(None, None)] * (H + 1) + [(0.0, 1.0)]
    return a_ub, b_ub, bounds


def dense_sum_bound(spec, n, H):
    """``sum_delay_lower_bound`` solved on the dense p-form system."""
    seg = discretize(spec, H)
    a_ub, b_ub, bounds = dense_common_constraints(seg, n)
    c = np.zeros(a_ub.shape[1])
    c[1 : H + 1] = seg.masses
    return n * float(lowerbound._solve(c, a_ub, b_ub, bounds).fun)


def dense_truncation_optima(spec, n, H, points=None):
    """{i: optimum of truncation LP i} on the dense p-form system.

    One LP per truncation point i in ``points`` (default: every i with
    positive mass below it), each objective built on its own.
    """
    seg = discretize(spec, H)
    a_ub, b_ub, bounds = dense_common_constraints(seg, n)
    P = np.array(seg.masses)
    head = np.cumsum(P)
    if points is None:
        points = [i for i in range(1, H + 1) if head[i - 1] > 0.0]
    optima = {}
    for i in points:
        mass_below = head[i - 1]
        c = np.zeros(a_ub.shape[1])
        c[1 : i + 1] = P[:i] * ((1.0 - (1.0 - mass_below) ** n) / mass_below)
        optima[i] = float(lowerbound._solve(c, a_ub, b_ub, bounds).fun)
    return optima


def exhaustive_max_delay_bound(spec, n, H):
    """The max-delay bound by solving every truncation LP; (value, LPs solved).

    The reference for the library's pruned search and its sparse slack-form
    system: every truncation LP solved on the dense p-form system, and the
    largest optimum kept.
    """
    optima = dense_truncation_optima(spec, n, H)
    return max(optima.values()), len(optima)
