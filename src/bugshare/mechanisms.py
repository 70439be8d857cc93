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
cs, csd and csod are scalar code, the fast path for one profile; the Monte
Carlo kernels of :mod:`bugshare.simulate` use their row-wise array form
(optimal deadline and k*).  The group rule has two array forms, each the
fast one for its callers:

* ``_group_rows`` decides it under given coin flips, one grouping per
  column: a sampled profile needs one grouping, not 2^n.  The Monte Carlo
  kernel reduces it to delays, and ``_group_outcomes`` reads each agent's
  time and payment off it for ``gcsod_allocate``, ``gcsod_sample`` and
  ``gcsod_realizations``.
* ``_sorted_table`` gives all 2^n groupings of one profile from one sort
  and cached rank arrays, where ``_group_rows`` would sort every column;
  ``gcsod_expected`` and the exact-grouping estimate average it.

The arrays are agent-major: an (n, rows) array holds one profile per
column, so each reduction over the agents is an elementwise pass over n
contiguous rows instead of a short loop per profile.  ``_group_rows`` sorts
each profile once, with the right side's values negated, and reads both
sides' descending orders off that one sort.  The row-wise helpers write
their (n, rows) scratch into a ``_Workspace`` when given one, so that a
Monte Carlo estimate allocates it once for all its chunks, and into new
arrays otherwise.

The column sort (``_sort_columns``) is a compare-exchange network, built
once per n: each comparator is an elementwise min and max of two agent
rows, a few passes over contiguous memory, where ``np.sort`` along the
agent axis makes one tiny sort per column.  At n = 10 that takes 35 ns per
profile against 84.

``_sorted_table`` reads each grouping's two sides off rank arrays built
once per n (``_sorted_groupings``), the one place that refuses more than
``ENUMERATION_CAP`` agents.  The test suite checks both forms exactly
against a scalar oracle of the group rule built from the public rules.
"""

from __future__ import annotations

import functools
import math
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

        Only the new value is checked; the others passed the check already.
        """
        vals = list(self.values)
        vals[agent] = _valuation(value)
        profile = object.__new__(TypeProfile)
        object.__setattr__(profile, "values", tuple(vals))
        return profile


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


def cs_allocate(profile: TypeProfile) -> Outcome:
    """Plain cost sharing: the unsold outcome has everyone wait until time 1."""
    return csd_allocate(profile, 1.0)


def csd_allocate(profile: TypeProfile, t_c: float) -> Outcome:
    """Cost sharing with a fixed deadline.

    When no group of k agents is willing to pay 1/k for the window [0, t_c],
    the bug is not sold but everyone is still released at t_c.  For t_c < 1
    that outcome breaks ex post budget balance by construction; the audit
    module is the place that flags it.
    """
    if not 0.0 <= t_c <= 1.0:
        raise ValueError(f"deadline must lie in [0, 1], got {t_c}")
    values = profile.values
    sorted_desc = sorted(values, reverse=True)
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


def optimal_deadline(profile: TypeProfile) -> DeadlineResult:
    """Earliest deadline at which some group still covers the unit cost.

    The candidate deadlines are 1/(k * v_(k)) over the k-th highest values;
    when even the best exceeds 1 (or no value is positive) the deadline is 1
    and ``k_star`` reports the size of the sharing set at deadline 1, which
    may be 0.
    """
    sorted_desc = sorted(profile.values, reverse=True)
    earliest = math.inf
    for k, v in enumerate(sorted_desc, start=1):
        if v > 0.0:
            earliest = min(earliest, 1.0 / (k * v))
    t_star = min(earliest, 1.0)
    return DeadlineResult(t_star, _max_k(sorted_desc, t_star))


def csod_allocate(profile: TypeProfile) -> Outcome:
    """Cost sharing with the profile's own optimal deadline.

    Budget balance always holds: the deadline is below 1 only when the
    sharing succeeds, so a failed sale implies everyone waits until 1.
    """
    return csd_allocate(profile, optimal_deadline(profile).t_star)


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
    left = np.array([[s == "L"] for s in grouping.side])
    return _realized(profile, left)[0]


def gcsod_sample(profile: TypeProfile, seed: int) -> Outcome:
    """One realization of the group rule with fair coin flips drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    return _realized(profile, (rng.random(len(profile)) < 0.5)[:, None])[0]


class _Workspace:
    """Named scratch arrays that array-form calls write instead of allocating.

    A Monte Carlo estimate runs one kernel on chunk after chunk of the same
    size.  Fresh (n, rows) temporaries per chunk are handed back to the OS
    when freed and faulted in again on the next chunk; one workspace per
    estimate allocates each array once.

    ``get(key, shape, dtype)`` returns a C-contiguous view of the first
    prod(shape) elements of the flat buffer named ``key``, and grows the
    buffer when it is too small; so a short last chunk sees only its own
    rows.  Each key has one dtype.  A function writes a key only once no
    caller still needs what it holds, so an array that is read only before
    the key's next write may borrow it: the Monte Carlo coin uniforms and
    the group rule's agent-major values borrow "products".  No array that a
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


def _scratch(work: _Workspace | None, key: str, shape, dtype=np.float64) -> np.ndarray | None:
    """``work``'s array ``key`` as a ufunc's ``out``; without a workspace None, which allocates."""
    return None if work is None else work.get(key, shape, dtype)


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
    slack = np.maximum(prices, 1.0, out=_scratch(work, "slack", prices.shape))
    slack *= QUALIFY_TOL
    prices -= slack
    return prices


def _largest_k(meets: np.ndarray, work: _Workspace | None = None) -> np.ndarray:
    """Per column, the largest k whose k-th value meets its price, else 0.

    k has the smallest unsigned type that holds n, so the (n, rows) product
    is a fraction of the size of an int64 one.
    """
    n = meets.shape[0]
    ks = np.arange(1, n + 1, dtype=np.min_scalar_type(n))[:, None]
    return np.multiply(meets, ks, out=_scratch(work, "ranks", meets.shape, ks.dtype)).max(axis=0)


def _kstar_rows(
    sorted_desc: np.ndarray, deadlines: np.ndarray, work: _Workspace | None = None
) -> np.ndarray:
    """Row-wise ``_max_k``: largest k with k values >= 1/(k*deadline), else 0.

    ``sorted_desc`` is agent-major, (n, rows), each column sorted in
    descending order; ``deadlines`` holds one deadline per column, or one for
    all of them.
    """
    ks = np.arange(1, sorted_desc.shape[0] + 1)[:, None]
    prices = _prices(ks, deadlines, work)
    meets = np.greater_equal(
        sorted_desc, prices, out=_scratch(work, "meets", sorted_desc.shape, bool)
    )
    return _largest_k(meets, work)


def _deadline_rows(sorted_desc: np.ndarray, work: _Workspace | None = None) -> np.ndarray:
    """Row-wise ``optimal_deadline`` of agent-major sorted columns, capped at 1.

    min over k of 1/(k*v_(k)) is 1/max(k*v_(k)), bit for bit, because the
    rounded reciprocal is monotone; capping the maximum at 1 caps the deadline.
    """
    ks = np.arange(1, sorted_desc.shape[0] + 1)[:, None]
    products = np.multiply(ks, sorted_desc, out=_scratch(work, "products", sorted_desc.shape))
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


def _sort_columns(a: np.ndarray, low: np.ndarray | None = None) -> np.ndarray:
    """Sort each column of the agent-major (n, rows) block ``a`` ascending, in place.

    This walks a compare-exchange network: each comparator (i, j) is an
    elementwise min and max of rows i and j, a few passes over contiguous
    rows of a C-contiguous block, where ``np.sort`` along axis 0 makes one
    tiny sort per column.  Equal values come back in any order, and a
    column's 0.0 and -0.0 may trade signs; no caller tells them apart.
    ``low`` is a scratch row of ``a``'s row shape, allocated when absent.
    Returns ``a``.
    """
    if low is None:
        low = np.empty_like(a[0])
    for i, j in _sorting_network(a.shape[0]):
        np.minimum(a[i], a[j], out=low)
        np.maximum(a[i], a[j], out=a[j])
        a[i] = low
    return a


def _group_rows(values: np.ndarray, left: np.ndarray, work: _Workspace | None = None):
    """Row-wise decision of ``gcsod_allocate`` under the coin flips ``left``.

    Both arrays are agent-major, C-contiguous (n, rows) blocks with one
    profile per column, so that the sort and every step after it work on
    contiguous rows.  Returns ``(left_wins, sold, own, extended, k_star)``:
    which side wins (exact ties favour the left), whether the bug sells, the
    winner's own deadline, the loser's deadline under which the winner
    shares, and the winner's sharing-set size.  The (n, rows) scratch comes
    from ``work`` when given.  Neither input is written, except that a
    caller may hold ``values`` in ``work``'s "products": it is read only
    before that buffer's first write.

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
    shape = values.shape
    ks = np.arange(1, shape[0] + 1)[:, None]
    # (2 * left - 1) * values, the same bits as values * (2 * left - 1)
    s = np.multiply(left, 2.0, out=_scratch(work, "signed", shape))
    s -= 1.0
    s *= values
    # without a workspace the sort is called as ``_sort_columns(a)``, the
    # form that the tests swap for ``np.sort``
    s = _sort_columns(s) if work is None else _sort_columns(s, work.get("low", shape[1:]))
    l_sorted = s[::-1]
    r_sorted = np.negative(s, out=_scratch(work, "negated", shape))
    dl = _deadline_rows(l_sorted, work)
    dr = _deadline_rows(r_sorted, work)
    own = np.minimum(dl, dr)
    extended = np.maximum(dl, dr)
    prices = _prices(ks, extended, work)
    meets = np.greater_equal(l_sorted, prices, out=_scratch(work, "meets", shape, bool))
    other = np.greater_equal(r_sorted, prices, out=_scratch(work, "other", shape, bool))
    tie = dl == dr
    left_funds = meets.any(axis=0)
    left_wins = (dl < dr) | (tie & left_funds)
    sold = ~tie | left_funds | other.any(axis=0)
    meets &= left_wins
    other &= ~left_wins
    meets |= other
    return left_wins, sold, own, extended, _largest_k(meets, work)


@functools.lru_cache(maxsize=ENUMERATION_CAP)
def _sorted_groupings(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 2^n groupings of n agents over sorted positions, built once per n.

    Every exact enumeration of the groupings starts here, so this is where
    n above ``ENUMERATION_CAP`` raises ``ValueError``; ``lru_cache`` keeps no
    exception, so no oversized entry is left behind.

    Returns read-only (n, 2^n) arrays ``(left, rank, left_rank)``.  Column c
    puts position j on the left when bit j of c is set.  ``rank`` is each
    position's 1-based rank within its own side, so with the positions in
    descending order of value it is the k of that member's k-th price;
    ``left_rank`` is the rank on the left side and 0 on the right.  The ranks
    have the smallest unsigned type that holds n: at n = 16 the three arrays
    take 3 MiB.
    """
    if n > ENUMERATION_CAP:
        raise ValueError(
            f"exact grouping enumeration capped at n={ENUMERATION_CAP}; "
            f"got n={n} (use Monte Carlo sampling instead)"
        )
    codes = np.arange(2**n, dtype=np.uint32)
    left = (codes >> np.arange(n, dtype=np.uint32)[:, None]) & 1 == 1
    dtype = np.min_scalar_type(n)
    left_rank = np.cumsum(left, axis=0, dtype=dtype)
    rank = np.where(left, left_rank, np.arange(1, n + 1, dtype=dtype)[:, None] - left_rank)
    left_rank *= left
    for a in (left, rank, left_rank):
        a.flags.writeable = False
    return left, rank, left_rank


def _sorted_table(sorted_desc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Times and payments of the group rule for all 2^n groupings, in sorted space.

    ``sorted_desc`` holds one profile's values in descending order; the
    (n, 2^n) results have one row per sorted position and one column per
    ``_sorted_groupings`` column.  Each side's k-th value is its member of
    rank k, so no grouping is sorted.

    The right side of column c is the left side of column 2^n - 1 - c, so
    the right deadlines are the left ones reversed.  The winner's own
    deadline is the smaller of the two and its extended deadline the larger,
    and ties are decided by the masks of the k* pass, as in ``_group_rows``.
    k* is the largest rank of a winner that meets its price, and the payers
    are the winners of rank at most k*: k* never splits a tie of values,
    since the tied value past it would qualify k* + 1.
    """
    left, rank, left_rank = _sorted_groupings(sorted_desc.shape[0])
    v = sorted_desc[:, None]
    dl = 1.0 / np.maximum((left_rank * v).max(axis=0), 1.0)
    dr = dl[::-1]
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


def _group_outcomes(values: np.ndarray, left: np.ndarray):
    """Per-agent times and payments of the group rule under each column of ``left``.

    ``values`` is one profile, (n,); ``left`` holds one grouping per column,
    (n, cols).  Each agent's result is read off ``_group_rows``' decision:
    the payers are the winners whose value meets the k* price under the
    extended deadline, which are the top k* winners, since k* never splits a
    tie; the other winners wait until the extended deadline and the losers
    until the winner's own one.  An unsold column has k* = 0, no payer and
    everyone waiting until 1; its price is taken at k = 1, so that nothing
    divides by zero.  Returns ``(times, payments, sold)``.
    """
    spread = np.repeat(values[:, None], left.shape[1], axis=1)
    left_wins, sold, own, extended, k_star = _group_rows(spread, left)
    k_paid = np.maximum(k_star, 1)
    winner = left == left_wins
    payer = winner & (spread >= _prices(k_paid, extended))
    times = np.where(sold, np.where(winner, extended, own), 1.0)
    times[payer] = 0.0
    payments = np.where(payer, 1.0 / k_paid, 0.0)
    return times, payments, sold


def _realized(profile: TypeProfile, left: np.ndarray) -> list[Outcome]:
    """The group rule's ``Outcome`` under each column of the coin flips ``left``."""
    times, payments, sold = _group_outcomes(np.array(profile.values), left)
    columns = zip(times.T.tolist(), payments.T.tolist(), sold.tolist())
    return [Outcome(t, p, sold=s) for t, p, s in columns]


def grouping_table(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-agent times and payments of the group rule for all 2^n groupings.

    Returns (2^n, n) arrays, one grouping per row, in ``gcsod_realizations``'
    order.  No library code calls it; the benchmark's tracer names it.
    """
    values = np.asarray(values, dtype=float)
    times, payments, _ = _group_outcomes(values, _sorted_groupings(values.shape[0])[0])
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
    times, payments = _sorted_table(values[order])
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
