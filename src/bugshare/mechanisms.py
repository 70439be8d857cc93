"""Cost-sharing mechanisms for selling one unit-cost piece of information.

One bug (cost normalized to 1) is offered to n agents over a normalized life
cycle [0, 1].  An agent who receives the information at time t and values it
at v gets utility (1 - t) * v minus whatever she pays.  A mechanism maps the
reported valuations to per-agent allocation times and payments, collecting
exactly 1 in total when the sale happens.

Four allocation rules are implemented:

* ``cs_allocate``     -- plain cost sharing: the largest group of k agents
  each willing to pay 1/k gets the information at time 0; everyone else
  waits until time 1.
* ``csd_allocate``    -- cost sharing against a fixed deadline t_C: payers
  buy the premium window [0, t_C] and everybody else goes free at t_C.
* ``csod_allocate``   -- cost sharing with the profile's own optimal
  (earliest still-fundable) deadline.
* ``gcsod_allocate``  -- the randomized group variant: agents are split into
  two groups and each group runs the deadline mechanism using the *other*
  group's optimal deadline, which restores strategy-proofness.

All rules are pure functions; ``gcsod_sample`` is pure given its seed.
This module holds the one-profile forms of the rules, which every single
call and every audit runs.  cs, csd and csod sort a profile once, then call
``_deadline`` and ``_csd_outcome``.  The group rule's outcomes for one
profile, or a stack of them, under a set of groupings come from
``_sorted_table``, which reads them off the sorted values and the
groupings' ranks: ``gcsod_expected`` and the exact-grouping estimate
average it over all 2^n groupings, and every single-profile call of the
rule reads its outcomes off it through ``_agent_table``.  No form stores a
sold flag; ``Outcome.sold`` reads the sale off the payments.  The group rule
fails to sell only in a tie at deadline 1 with k* = 0, where every time is
already 1.  ``_deadlines``, ``_prices`` and ``_largest_k`` are the one array
form of the optimal deadline, the ``QUALIFY_TOL`` price and k*, shared by
``_sorted_table`` and the Monte Carlo kernels of :mod:`bugshare.simulate`.

The ranks of all 2^n groupings are built once per n by
``_sorted_groupings``, the one place that refuses more than
``ENUMERATION_CAP`` agents; a single grouping never goes through it.  The
test suite checks the table and the Monte Carlo kernel exactly against a
scalar oracle of the group rule built from the public rules.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .distributions import _count

# Slack for every "value is at least price = 1/(k * deadline)" test, so that
# boundary profiles such as (0.5, 0.5) behave identically across platforms.
# It is absolute for prices up to 1 and relative above, where 1e-12 would fall
# below one ulp of the price and a group could miss its own deadline's price.
QUALIFY_TOL = 1e-12

# Payments that are not all 0 must sum to 1 within this tolerance.
BUDGET_TOL = 1e-9

# Most agents whose 2^n groupings are enumerated exactly (``_sorted_groupings``).
ENUMERATION_CAP = 16


@dataclass(frozen=True)
class TypeProfile:
    """Reported valuations, one per agent, in units of the bug's cost."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = tuple(self.values)
        vals = tuple(_valuation(v, len(vals)) for v in vals)
        if not vals:
            raise ValueError("a type profile needs at least one agent")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)

    def replace(self, agent: int, value: float) -> "TypeProfile":
        """Profile with ``agent``'s report swapped out (used by the audits).

        Only the agent and the new value are checked; the rest passed already.
        """
        _check_agent(agent, len(self.values))
        vals = list(self.values)
        vals[agent] = _valuation(value, len(vals))
        profile = object.__new__(TypeProfile)
        object.__setattr__(profile, "values", tuple(vals))
        return profile


def _check_agent(agent: int, n: int) -> None:
    """``TypeError`` unless ``agent`` is an integer, ``IndexError`` unless in range(n).

    A bool is no agent, as in ``_count``, and neither is a negative index.
    """
    if isinstance(agent, bool) or not hasattr(type(agent), "__index__"):
        raise TypeError(f"agent must be an integer, got {agent!r}")
    if not 0 <= agent < n:
        raise IndexError(f"agent {agent} is out of range for {n} agents")


def _check_deadline(t_c: float) -> None:
    """``ValueError`` unless ``t_c`` lies in [0, 1]: the library's one check of a deadline."""
    if not 0.0 <= t_c <= 1.0:  # written so that NaN fails it
        raise ValueError(f"deadline must lie in [0, 1], got {t_c}")


def _valuation(value: float, n: int) -> float:
    """``value`` as a float, or ``ValueError`` unless it is >= 0 and max(n, 2) * value finite.

    So no k * v (k <= n) overflows and puts t* at 0, nor does 1/t* of a lone agent.
    """
    v = float(value)
    if not math.isfinite(max(n, 2) * v) or v < 0.0:
        raise ValueError(f"valuations must be finite and non-negative, max(n, 2) * v too, got {v}")
    return v


@dataclass(frozen=True)
class Outcome:
    """Allocation times and payments of one mechanism run, collecting 1 or nothing."""

    times: tuple[float, ...]
    payments: tuple[float, ...]

    def __post_init__(self) -> None:
        times = tuple(float(t) for t in self.times)
        payments = tuple(float(p) for p in self.payments)
        if len(times) != len(payments):
            raise ValueError("times and payments must have equal length")
        for t in times:
            if not 0.0 <= t <= 1.0:
                raise ValueError(f"allocation times must lie in [0, 1], got {t}")
        # each check is written so that NaN fails it
        for p in payments:
            if not p >= 0.0:
                raise ValueError(f"payments must be non-negative, got {p}")
        if any(payments) and not abs(sum(payments) - 1.0) <= BUDGET_TOL:
            raise ValueError("payments must sum to 1 when the bug is sold, or all be 0")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "payments", payments)

    @property
    def sold(self) -> bool:
        """Whether the bug was bought: a sale collects 1, and no sale nothing."""
        return any(self.payments)


@dataclass(frozen=True)
class Grouping:
    """A left/right split of the agents, the random bits of the group rule."""

    side: tuple[str, ...]

    def __post_init__(self) -> None:
        side = tuple(self.side)
        for s in side:
            if s not in ("L", "R"):
                raise ValueError(f"group labels must be 'L' or 'R', got {s!r}")
        object.__setattr__(self, "side", side)

    @classmethod
    def from_string(cls, text: str) -> "Grouping":
        return cls(tuple(text.upper()))

    def __len__(self) -> int:
        return len(self.side)


class DeadlineResult(NamedTuple):
    """Optimal deadline of a profile; ``k_star == 0`` means nothing is fundable."""

    t_star: float
    k_star: int


class ExpectedOutcome(NamedTuple):
    """Coin-flip averages of the group rule over all 2^n groupings."""

    times: tuple[float, ...]
    payments: tuple[float, ...]
    max_delay: float
    sum_delay: float


def _max_k(sorted_desc: Sequence[float], deadline: float) -> int:
    """Largest k such that k values meet the 1/(k*deadline) price, else 0."""
    if deadline <= 0.0:
        return 0
    best = 0
    for k in range(1, len(sorted_desc) + 1):
        price = 1.0 / (k * deadline)
        # = QUALIFY_TOL * max(1, price); calling max() would double this loop's cost
        slack = QUALIFY_TOL * price if price > 1.0 else QUALIFY_TOL
        if sorted_desc[k - 1] >= price - slack:
            best = k
    return best


def _deadline(sorted_desc: Sequence[float]) -> float:
    """Optimal deadline of a descending list, 1/max(k*v_(k)) capped at 1.

    Bit for bit min(1, min over positive v_(k) of 1/(k*v_(k))): the rounded
    reciprocal is monotone, so the least one is that of the largest product,
    and products below 1 (zeros too) give reciprocals above the cap.
    """
    top = max(map(operator.mul, range(1, len(sorted_desc) + 1), sorted_desc))
    return 1.0 / max(top, 1.0)


def _csd_outcome(values: Sequence[float], sorted_desc: Sequence[float], t_c: float) -> Outcome:
    """``csd_allocate``'s outcome at ``t_c`` for ``values``, sorted as ``sorted_desc``."""
    k_star = _max_k(sorted_desc, t_c)
    if k_star == 0:
        return Outcome((t_c,) * len(values), (0.0,) * len(values))
    # k* never splits a tie (the tied value past it would qualify k*+1), so the
    # top k* agents are exactly those whose value reaches the k*-th largest
    cutoff = sorted_desc[k_star - 1]
    share = 1.0 / k_star
    times = tuple(0.0 if v >= cutoff else t_c for v in values)
    payments = tuple(share if v >= cutoff else 0.0 for v in values)
    return Outcome(times, payments)


def cs_allocate(profile: TypeProfile) -> Outcome:
    """Plain cost sharing: the unsold outcome has everyone wait until time 1."""
    return _csd_outcome(profile.values, sorted(profile.values, reverse=True), 1.0)


def csd_allocate(profile: TypeProfile, t_c: float) -> Outcome:
    """Cost sharing with a fixed deadline.

    When no group of k agents is willing to pay 1/k for the window [0, t_c],
    the bug is not sold but everyone is still released at t_c.  For t_c < 1
    that outcome breaks ex post budget balance by construction; the audit
    module is the place that flags it.
    """
    _check_deadline(t_c)
    return _csd_outcome(profile.values, sorted(profile.values, reverse=True), t_c)


def optimal_deadline(profile: TypeProfile) -> DeadlineResult:
    """Earliest deadline at which some group still covers the unit cost.

    The candidate deadlines are 1/(k * v_(k)) over the k-th highest values;
    when even the best exceeds 1 (or no value is positive) the deadline is 1
    and ``k_star`` reports the size of the sharing set at deadline 1, which
    may be 0.
    """
    sorted_desc = sorted(profile.values, reverse=True)
    t_star = _deadline(sorted_desc)
    return DeadlineResult(t_star, _max_k(sorted_desc, t_star))


def csod_allocate(profile: TypeProfile) -> Outcome:
    """Cost sharing with the profile's own optimal deadline.

    Budget balance always holds: the deadline is below 1 only when the
    sharing succeeds, so a failed sale implies everyone waits until 1.
    """
    sorted_desc = sorted(profile.values, reverse=True)
    return _csd_outcome(profile.values, sorted_desc, _deadline(sorted_desc))


def gcsod_allocate(profile: TypeProfile, grouping: Grouping) -> Outcome:
    """Group cost sharing: each side faces the other side's optimal deadline.

    The side with the earlier own deadline wins and runs the deadline
    mechanism under the (extended) deadline of the other side; the losing
    side's cost sharing necessarily fails and its agents go free at the
    winner's own deadline.  Exact ties favour the left group.  If neither
    side can fund the bug at deadline 1, it is not bought at all.
    """
    n = len(profile)
    if len(grouping) != n:
        raise ValueError(f"grouping has {len(grouping)} labels for {n} agents")
    left = np.array([s == "L" for s in grouping.side])
    # the complement column is there for ``_sorted_table``'s precondition
    return _realized(profile, np.stack([left, ~left], axis=1))[0]


def gcsod_sample(profile: TypeProfile, seed: int) -> Outcome:
    """One realization of the group rule with fair coin flips drawn from ``seed``.

    Agent i goes to the left group when the i-th uniform draw is below 1/2.
    """
    left = np.random.default_rng(_count(seed, "seed", 0)).random(len(profile)) < 0.5
    return _realized(profile, np.stack([left, ~left], axis=1))[0]


def _prices(
    ks: np.ndarray, deadlines: np.ndarray, out: tuple[np.ndarray, np.ndarray] | None = None
) -> np.ndarray:
    """Prices 1/(k*deadline) less their qualify slack, k and deadline broadcast.

    ``ks`` is the column of k = 1..n or an array of per-cell ranks.  Every
    step after the product works in place.  ``out`` is a ``(prices, row)``
    pair: ``prices`` of the broadcast shape takes the prices, and ``row``, of
    one rank's shape, takes each rank's slack in turn, so no slack array of
    the prices' size exists.  Without ``out`` both are new and the block is
    priced at once, to the same bits.  A zero deadline divides by zero, and
    a subnormal one's k = 1 price overflows: either price is infinite, and
    its slack turns it into NaN, which no value meets.  The outcome is right
    either way; callers that allow such deadlines silence the warnings.
    """
    prices_out, row = (None, None) if out is None else out
    prices = np.multiply(ks, deadlines, out=prices_out)
    np.divide(1.0, prices, out=prices)
    for part in (prices,) if row is None else prices:
        slack = np.maximum(part, 1.0, out=row)
        slack *= QUALIFY_TOL
        part -= slack
    return prices


def _deadlines(ks: np.ndarray, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``_deadline``'s array form, 1/max(max over axis 0 of ks*values, 1).

    ``ks`` is the column of k = 1..n or one side's ranks; ``out`` takes the products.
    """
    top = np.multiply(ks, values, out=out).max(axis=0)
    np.maximum(top, 1.0, out=top)
    return np.divide(1.0, top, out=top)


def _largest_k(ks: np.ndarray, meets: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``_max_k``'s array form, max over axis 0 of ks*meets; small unsigned ``ks`` save memory."""
    return np.multiply(ks, meets, out=out).max(axis=0)


def _grouping_ranks(left: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(left, rank, left_rank)`` of the (n, cols) groupings ``left``.

    ``rank`` is each row's 1-based rank within its own side, so with the rows
    in descending order of value it is the k of that member's k-th price;
    ``left_rank`` is it on the left side and 0 on the right.  The ranks have
    the smallest unsigned type that holds n.
    """
    n = left.shape[0]
    dtype = np.min_scalar_type(n)
    left_rank = np.cumsum(left, axis=0, dtype=dtype)
    rank = np.where(left, left_rank, np.arange(1, n + 1, dtype=dtype)[:, None] - left_rank)
    left_rank *= left
    return left, rank, left_rank


@functools.lru_cache(maxsize=ENUMERATION_CAP)
def _sorted_groupings(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 2^n groupings of n agents over sorted positions, built once per n.

    Every exact enumeration of the groupings starts here, so this is where
    n above ``ENUMERATION_CAP`` raises ``ValueError``; ``lru_cache`` keeps no
    exception, so no oversized entry is left behind.

    Returns ``_grouping_ranks`` of the groupings as read-only (n, 2^n)
    arrays.  Column c puts position j on the left when bit j of c is set, so
    column 2^n - 1 - c is the complement of column c.  At n = 16 the three
    arrays take 3 MiB.
    """
    if n > ENUMERATION_CAP:
        raise ValueError(
            f"exact grouping enumeration capped at n={ENUMERATION_CAP}; "
            f"got n={n} (use Monte Carlo sampling instead)"
        )
    codes = np.arange(2**n, dtype=np.uint32)
    arrays = _grouping_ranks((codes >> np.arange(n, dtype=np.uint32)[:, None]) & 1 == 1)
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _sorted_table(
    sorted_desc: np.ndarray, left: np.ndarray, rank: np.ndarray, left_rank: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Times and payments of the group rule under each grouping, in sorted space.

    ``sorted_desc`` holds one profile's values in descending order, and
    ``(left, rank, left_rank)`` is ``_grouping_ranks`` of (n, cols) groupings
    of those sorted positions; the (n, cols) results have one row per sorted
    position and one column per grouping.  Each side's k-th value is its
    member of rank k, so no grouping is sorted.  P profiles as (n, P) sorted
    columns, against (n, 1, cols) views of the ranks, give (n, P, cols) results.

    Precondition: column cols - 1 - c of ``left`` is the complement of
    column c, so the right deadlines are the left ones reversed.  The 2^n
    columns of ``_sorted_groupings`` meet it, with their rows in any order,
    and so do the two columns ``[g, ~g]`` of a single grouping g.

    The winner's own deadline is the smaller of the two and its extended
    deadline the larger.  One k pass serves both sides: a member's price
    test reads only its own side's rank and the extended deadline, which
    the complement column keeps, so the right side's k is the left side's k
    of the complement, ``k_left[..., ::-1]``.  The left wins a tie when its
    k is positive; k* is the winner's k, and the payers are the winners of
    rank at most k*: k* never splits a tie of values, since the tied value
    past it would qualify k* + 1.
    """
    v = sorted_desc[..., None]
    dl = _deadlines(left_rank, v)
    dr = dl[..., ::-1]
    own = np.minimum(dl, dr)
    extended = np.maximum(dl, dr)
    k_left = _largest_k(left_rank, v >= _prices(rank, extended))
    left_wins = (dl < dr) | ((dl == dr) & (k_left > 0))
    k_star = np.where(left_wins, k_left, k_left[..., ::-1])
    member = left == left_wins
    payer = member & (rank <= k_star)
    times = np.where(payer, 0.0, np.where(member, extended, own))
    payments = np.where(payer, 1.0 / np.maximum(k_star, 1), 0.0)
    return times, payments


def _agent_table(values: np.ndarray, left: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-agent times and payments, (n, cols), under each column of ``left``.

    ``values`` is one profile, (n,); ``left`` holds groupings of its agents,
    one per column, closed under complement as ``_sorted_table`` requires.
    """
    order = np.argsort(-values, kind="stable")
    times, payments = _sorted_table(values[order], *_grouping_ranks(left[order]))
    # the argsort of a permutation is its inverse
    back = np.argsort(order)
    return times[back], payments[back]


def _realized(profile: TypeProfile, left: np.ndarray) -> list[Outcome]:
    """The group rule's ``Outcome`` under each column of the groupings ``left``."""
    times, payments = _agent_table(np.array(profile.values), left)
    return [Outcome(t, p) for t, p in zip(times.T.tolist(), payments.T.tolist())]


def grouping_table(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-agent times and payments of the group rule for all 2^n groupings.

    Returns (2^n, n) arrays, one grouping per row, in ``gcsod_realizations``'
    order.  No library code calls it; the benchmark's tracer names it.
    """
    values = np.asarray(values, dtype=float)
    times, payments = _agent_table(values, _sorted_groupings(values.shape[0])[0])
    return times.T, payments.T


def gcsod_realizations(profile: TypeProfile) -> list[Outcome]:
    """The group rule's outcome under each of the 2^n equiprobable groupings.

    Outcome a puts agent i on the left when bit i of a is set: the columns of
    ``_sorted_groupings``, read over the agents in their given order.
    """
    return _realized(profile, _sorted_groupings(len(profile))[0])


def gcsod_expected(profile: TypeProfile) -> ExpectedOutcome:
    """Exact expectation of the group rule over all 2^n equiprobable groupings.

    The max-delay figure is the expectation of the realized maximum, not the
    maximum of the per-agent expectations.
    """
    values = np.array(profile.values)
    order = np.argsort(-values, kind="stable")
    times, payments = _sorted_table(values[order], *_sorted_groupings(len(values)))
    # Every grouping is one column in either space, so only the rows map back.
    # A sum over the 2^n columns divided by their count is what mean() computes,
    # without its per-call overhead.
    count = times.shape[1]
    means = np.empty((2, len(values)))
    means[0, order] = times.sum(axis=1) / count
    means[1, order] = payments.sum(axis=1) / count
    return ExpectedOutcome(
        times=tuple(means[0].tolist()),
        payments=tuple(means[1].tolist()),
        max_delay=float(times.max(axis=0).sum() / count),
        sum_delay=float(times.sum(axis=0).sum() / count),
    )
