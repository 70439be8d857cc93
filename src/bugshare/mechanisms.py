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
cs, csd and csod sort a profile once, then call ``_deadline`` and
``_csd_outcome``; the Monte Carlo kernels of :mod:`bugshare.simulate` use
their row-wise twins.  The group rule has two array forms:

* ``_group_rows`` decides it for a sampled block of profiles, each under
  its own coin flips; only the Monte Carlo kernel calls it.
* ``_sorted_table`` gives each agent's time and payment for one profile,
  or a stack of them, under a set of groupings, from the sorted values and
  the groupings' ranks.  ``gcsod_expected`` and the exact-grouping estimate
  average it over all 2^n groupings; every single-profile call of the rule
  reads its outcomes off it through ``_agent_table``.

The arrays are agent-major: an (n, rows) array holds one profile per
column, so each reduction over the agents is an elementwise pass over n
contiguous rows instead of a short loop per profile.  ``_group_rows`` sorts
each profile once, with the right side's values negated, and reads both
sides' descending orders off that one sort.  The row-wise helpers write
their (n, rows) scratch into a ``_Workspace``, so that a Monte Carlo
estimate allocates it once for all its chunks; each key is named by one
module, and ``_group_rows`` makes its agent-major copies itself.

The column sort (``_sort_columns``) is a compare-exchange network, built
once per n: each comparator is an elementwise min and max of two agent
rows, a few passes over contiguous memory, where ``np.sort`` along the
agent axis makes one tiny sort per column.  At n = 10 that takes 35 ns per
profile against 84.

The ranks of all 2^n groupings are built once per n by
``_sorted_groupings``, the one place that refuses more than
``ENUMERATION_CAP`` agents; a single grouping never goes through it.  The
test suite checks both forms exactly against a scalar oracle of the group
rule built from the public rules.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

# Slack for every "value is at least price = 1/(k * deadline)" test, so that
# boundary profiles such as (0.5, 0.5) behave identically across platforms.
# It is absolute for prices up to 1 and relative above, where 1e-12 would fall
# below one ulp of the price and a group could miss its own deadline's price.
QUALIFY_TOL = 1e-12

# Payments must sum to 1 within this tolerance whenever the bug is sold.
BUDGET_TOL = 1e-9

# Most agents whose 2^n groupings are enumerated exactly (``_sorted_groupings``).
ENUMERATION_CAP = 16


@dataclass(frozen=True)
class TypeProfile:
    """Reported valuations, one per agent, in units of the bug's cost."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = tuple(_valuation(v) for v in self.values)
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
        vals[agent] = _valuation(value)
        profile = object.__new__(TypeProfile)
        object.__setattr__(profile, "values", tuple(vals))
        return profile


def _check_agent(agent: int, n: int) -> None:
    """``IndexError`` unless ``agent`` is in range(n): a negative index is no agent."""
    if not 0 <= agent < n:
        raise IndexError(f"agent {agent} is out of range for {n} agents")


def _valuation(value: float) -> float:
    """``value`` as a float, or ``ValueError`` unless it is finite and non-negative."""
    v = float(value)
    if not math.isfinite(v) or v < 0.0:
        raise ValueError(f"valuations must be finite and non-negative, got {v}")
    return v


@dataclass(frozen=True)
class Outcome:
    """Allocation times, payments and the sold flag of one mechanism run."""

    times: tuple[float, ...]
    payments: tuple[float, ...]
    sold: bool

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
        if self.sold:
            if not abs(sum(payments) - 1.0) <= BUDGET_TOL:
                raise ValueError("sold outcomes must collect payments summing to 1")
        elif any(p != 0.0 for p in payments):
            raise ValueError("unsold outcomes must not collect payments")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "payments", payments)


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
        return Outcome((t_c,) * len(values), (0.0,) * len(values), sold=False)
    # k* never splits a tie (the tied value past it would qualify k*+1), so the
    # top k* agents are exactly those whose value reaches the k*-th largest
    cutoff = sorted_desc[k_star - 1]
    share = 1.0 / k_star
    times = tuple(0.0 if v >= cutoff else t_c for v in values)
    payments = tuple(share if v >= cutoff else 0.0 for v in values)
    return Outcome(times, payments, sold=True)


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
    if not 0.0 <= t_c <= 1.0:
        raise ValueError(f"deadline must lie in [0, 1], got {t_c}")
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
    left = np.random.default_rng(seed).random(len(profile)) < 0.5
    return _realized(profile, np.stack([left, ~left], axis=1))[0]


class _Workspace:
    """Named scratch arrays that the row-wise helpers write instead of allocating.

    A Monte Carlo estimate runs one kernel on chunk after chunk of the same
    size.  Fresh (n, rows) temporaries per chunk are handed back to the OS
    when freed and faulted in again on the next chunk; one workspace per
    estimate allocates each array once.  The row-wise helpers require one;
    ``_sorted_table`` calls ``_prices`` without one.

    ``get(key, shape, dtype)`` returns a C-contiguous view of the first
    prod(shape) elements of the flat buffer named ``key``, and grows the
    buffer when it is too small; so a short last chunk sees only its own
    rows.  Each key has one dtype and is named by one module only, which
    writes it only once nothing it holds is still needed.  No array that a
    kernel returns lives here, so its results outlast the next call.
    """

    def __init__(self) -> None:
        self._flat: dict[str, np.ndarray] = {}

    def get(self, key: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        size = math.prod(shape)
        flat = self._flat.get(key)
        if flat is None or flat.size < size or flat.dtype != dtype:
            flat = self._flat[key] = np.empty(size, dtype)
        return flat[:size].reshape(shape)


def _agent_major(rows: np.ndarray, key: str, work: _Workspace, dtype=np.float64) -> np.ndarray:
    """``work``'s (n, rows) array ``key`` holding a copy of the (rows, n) block ``rows``.

    A plain transpose copy: an arithmetic op forced to C order on the
    transposed view costs over ten times as much.
    """
    block = work.get(key, rows.shape[::-1], dtype)
    np.copyto(block, rows.T)
    return block


def _prices(ks: np.ndarray, deadlines: np.ndarray, work: _Workspace | None = None) -> np.ndarray:
    """Prices 1/(k*deadline) less their qualify slack, k and deadline broadcast.

    ``ks`` is the column of k = 1..n or an array of per-cell ranks.  A zero
    deadline divides by zero and leaves NaN prices that no value meets;
    callers that allow one silence both warnings.
    """
    # every step after the product works in place, on one prices array and
    # one slack array.  The prices share the "products" buffer with
    # ``_deadline_rows``, whose products are reduced before anything is priced
    out = None if work is None else work.get("products", np.broadcast(ks, deadlines).shape)
    prices = np.multiply(ks, deadlines, out=out)
    np.divide(1.0, prices, out=prices)
    slack = np.maximum(prices, 1.0, out=None if work is None else work.get("slack", prices.shape))
    slack *= QUALIFY_TOL
    prices -= slack
    return prices


def _largest_k(meets: np.ndarray, work: _Workspace) -> np.ndarray:
    """Per column, the largest k whose k-th value meets its price, else 0.

    k has the smallest unsigned type that holds n, so the (n, rows) product
    is a fraction of the size of an int64 one.
    """
    n = meets.shape[0]
    ks = np.arange(1, n + 1, dtype=np.min_scalar_type(n))[:, None]
    return np.multiply(meets, ks, out=work.get("ranks", meets.shape, ks.dtype)).max(axis=0)


def _kstar_rows(sorted_desc: np.ndarray, levels: np.ndarray, work: _Workspace) -> np.ndarray:
    """Per column, the largest k whose k-th entry is at least level k, else 0.

    ``sorted_desc`` is agent-major, (n, rows), each column sorted in
    descending order; ``levels`` is (n, 1) or (n, rows).  With the values'
    ``_prices`` as levels this is the row-wise ``_max_k``; the Monte Carlo
    estimate of cs and csd also runs it on sorted uniforms against the
    prices' preimages.
    """
    meets = np.greater_equal(sorted_desc, levels, out=work.get("meets", sorted_desc.shape, bool))
    return _largest_k(meets, work)


def _deadline_rows(sorted_desc: np.ndarray, work: _Workspace) -> np.ndarray:
    """Row-wise ``_deadline`` of agent-major sorted columns: 1/max(k*v_(k)), capped at 1."""
    ks = np.arange(1, sorted_desc.shape[0] + 1)[:, None]
    products = np.multiply(ks, sorted_desc, out=work.get("products", sorted_desc.shape))
    top = products.max(axis=0)
    np.maximum(top, 1.0, out=top)
    return np.divide(1.0, top, out=top)


@functools.lru_cache(maxsize=None)
def _sorting_network(n: int) -> tuple[tuple[int, int], ...]:
    """Comparators (i, j), i < j, of Batcher's odd-even merge sort on n wires.

    The network is Batcher's for the next power of two p, less every
    comparator that touches a position >= n.  Padding each column with +inf
    up to p would make those comparators no-ops, so what is left sorts n.
    """
    p = 1 << (n - 1).bit_length()
    pairs = []
    size = 1
    while size < p:
        step = size
        while step >= 1:
            for j in range(step % size, p - step, 2 * step):
                for i in range(j, min(j + step, n - step)):
                    if i // (2 * size) == (i + step) // (2 * size):
                        pairs.append((i, i + step))
            step //= 2
        size *= 2
    return tuple(pairs)


def _sort_columns(a: np.ndarray, work: _Workspace) -> np.ndarray:
    """Sort each column of the agent-major (n, rows) block ``a`` ascending, in place.

    This walks a compare-exchange network: each comparator (i, j) is an
    elementwise min and max of rows i and j, a few passes over contiguous
    rows of a C-contiguous block, where ``np.sort`` along axis 0 makes one
    tiny sort per column.  Equal values come back in any order, and a
    column's 0.0 and -0.0 may trade signs; no caller tells them apart.
    The scratch row comes from ``work``.  Returns ``a``.
    """
    low = work.get("low", a.shape[1:])
    for i, j in _sorting_network(a.shape[0]):
        np.minimum(a[i], a[j], out=low)
        np.maximum(a[i], a[j], out=a[j])
        a[i] = low
    return a


def _group_rows(values: np.ndarray, left: np.ndarray, work: _Workspace):
    """Row-wise decision of ``gcsod_allocate`` under the coin flips ``left``.

    Both arrays are sampled (rows, n) blocks, one profile per row, and
    neither is written.  Their agent-major copies in ``work`` hold one
    profile per column, so that the sort and every step after it work on
    contiguous agent rows.  Returns ``(sold, own, extended, k_star, n_win)``:
    whether the bug sells, the winner's own deadline, the loser's deadline
    under which the winner shares, the winner's sharing-set size and the
    winning side's size.  Exact ties favour the left.

    One sort serves both sides.  Right members are negated (multiplied by -1,
    which is exact), so each ascending column holds the right side first,
    largest value first, and the left side last.  Reversed, the column is the
    left side in descending order; negated, the right side.  Either way the
    other side's members follow as values <= 0, which never meet a positive
    price and never lift k*v_(k) to the cap of 1, so each side's deadline and
    k* are those of its own members, as in the scalar rule.

    The winner's own deadline is the smaller of the two and the extended one
    the larger, exactly, since at a tie both are the same number.  So the
    tied columns are priced at their common deadline by the k* pass itself,
    and its masks of the members that meet their prices also decide ties: the
    left side wins a tie when one of its members meets its price, and a tie
    sells when either side does.
    """
    left = _agent_major(left, "left", work, bool)
    shape = left.shape
    ks = np.arange(1, shape[0] + 1)[:, None]
    # (2 * left - 1) * values, the same bits as values * (2 * left - 1); the
    # values are read only here, before the deadlines' products overwrite them
    s = np.multiply(left, 2.0, out=work.get("signed", shape))
    s -= 1.0
    s *= _agent_major(values, "products", work)
    s = _sort_columns(s, work)
    l_sorted = s[::-1]
    r_sorted = np.negative(s, out=work.get("negated", shape))
    dl = _deadline_rows(l_sorted, work)
    dr = _deadline_rows(r_sorted, work)
    own = np.minimum(dl, dr)
    extended = np.maximum(dl, dr)
    prices = _prices(ks, extended, work)
    meets = np.greater_equal(l_sorted, prices, out=work.get("meets", shape, bool))
    other = np.greater_equal(r_sorted, prices, out=work.get("other", shape, bool))
    tie = dl == dr
    left_funds = meets.any(axis=0)
    left_wins = (dl < dr) | (tie & left_funds)
    sold = ~tie | left_funds | other.any(axis=0)
    meets &= left_wins
    other &= ~left_wins
    meets |= other
    k_star = _largest_k(meets, work)
    # the flips are dead after this count, so the winners' mask overwrites them
    n_win = np.add.reduce(np.equal(left, left_wins, out=left), axis=0, dtype=k_star.dtype)
    return sold, own, extended, k_star, n_win


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
    deadline the larger, and ties are decided by the masks of the k* pass,
    as in ``_group_rows``.  k* is the largest rank of a winner that meets its
    price, and the payers are the winners of rank at most k*: k* never
    splits a tie of values, since the tied value past it would qualify k* + 1.
    """
    v = sorted_desc[..., None]
    dl = 1.0 / np.maximum((left_rank * v).max(axis=0), 1.0)
    dr = dl[..., ::-1]
    own = np.minimum(dl, dr)
    extended = np.maximum(dl, dr)
    meets = v >= _prices(rank, extended)
    tie = dl == dr
    left_wins = (dl < dr) | (tie & (meets & left).any(axis=0))
    sold = ~tie | meets.any(axis=0)

    member = left == left_wins
    k_star = (rank * (member & meets)).max(axis=0)
    payer = member & (rank <= k_star)
    # an unsold column has k* = 0 and everyone waits until 1
    times = np.where(member, np.where(sold, extended, 1.0), np.where(sold, own, 1.0))
    times = np.where(payer, 0.0, times)
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
    # a sold outcome collects 1 in total, an unsold one nothing
    sold = payments.any(axis=0)
    columns = zip(times.T.tolist(), payments.T.tolist(), sold.tolist())
    return [Outcome(t, p, sold=s) for t, p, s in columns]


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
    mean_times = np.empty(len(values))
    mean_times[order] = times.sum(axis=1) / count
    mean_payments = np.empty(len(values))
    mean_payments[order] = payments.sum(axis=1) / count
    return ExpectedOutcome(
        times=tuple(mean_times.tolist()),
        payments=tuple(mean_payments.tolist()),
        max_delay=float(times.max(axis=0).sum() / count),
        sum_delay=float(times.sum(axis=0).sum() / count),
    )
