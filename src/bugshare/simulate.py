"""Monte-Carlo and exact-expectation estimation of mechanism delays under priors.

Profiles are sampled from a seeded stream in chunks of ``_CHUNK_VALUES``
values, at most ``_CHUNK_ROWS`` rows: 16,384 rows up to n = 5, 8,192 at
n = 10.  A chunk's (n, rows) float arrays are then 640 KiB each at n = 10,
and the group rule holds three, the draws, the signed block and the
products; each rank's price slack goes through the sorting network's one
scratch row.  A 10^6-sample N(0.5,0.2) estimate peaks 1.6, 2.0, 3.0 and
2.2 MiB above the RSS after a warm-up call at n = 1, 2, 5 and 10, against
1.4, 2.2, 3.5 and 3.3 MiB with a fourth array for the slack (at n = 1 that
array was one row, and malloc's placement of the kernel's temporaries makes
the difference), and 8.2 MiB at n = 10 with five arrays of 16,384 rows.
The value and coin streams are read in the same order whatever the chunk
size, so the draws do not depend on it.  ``draw`` maps the chunk's
uniforms to values in place, with no temporary per arithmetic step.

cs and csd read a value only through ``v >= price_k``, so their estimates
never map the uniforms: each kernel sorts the chunk's uniforms and compares
the k-th largest with two preimages of price k under ``draw``'s exact
pipeline, computed once per estimate (``_price_preimages``).  A guard band
between the two makes up for the sampler not being monotone in floating
point; the few profiles with a uniform inside it are mapped to their values
and priced as before, so the reports are bit for bit those of the value
path.  csod, the group rule and the exact-grouping mode use the values
themselves, in products and per-row deadlines, and draw them.

The kernels (``batch_*_delays``) work on agent-major copies of the sampled
(rows, n) blocks: an (n, rows) array holds one profile per column, so each
reduction over the agents is an elementwise pass over n contiguous rows
instead of a short loop per profile.  Each block is sorted once by the
compare-exchange network ``_sort_columns``, built once per n: at n = 10 it
takes 35 ns per profile, against 84 for ``np.sort`` along the agent axis.
The deadlines, prices and k* are ``mechanisms._deadlines``, ``_prices`` and
``_largest_k``, the array forms of the scalar ``_deadline`` and ``_max_k``,
shared with the group rule's table.  The kernels reduce the decisions to the
max and sum of the allocation times.  The group rule runs either with one
sampled coin-flip vector per profile (``monte_carlo``) or over all 2^n
groupings, for a block of profiles at once (``exact_grouping``, through
``mechanisms._sorted_table``).

One ``estimate`` call holds one ``_Workspace`` for all its chunks, so the
draws, the coin flips and the kernels' (n, rows) scratch arrays are
allocated once, not faulted in again per chunk (about 1.5 GB of pages per
benchmark pass).  The coin uniforms go into "draws" and are flipped before
the values are drawn over them.

``reproduce_table`` assembles the benchmark grid: expected max/sum delay of
the plain and group cost-sharing rules plus the two LP lower bounds, for
U(0,1), N(0.5,0.2) and N(0.5,0.4) at n in {1, 2, 5, 10}.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .distributions import DistributionSpec, _count, _to_values, draw, preimage
from .lowerbound import max_delay_lower_bound, sum_delay_lower_bound
from .mechanisms import (
    _check_deadline, _deadlines, _largest_k, _prices, _sorted_groupings, _sorted_table
)

MECHANISMS = ("cs", "csd", "csod", "gcsod")
MODES = ("monte_carlo", "exact_grouping")

TABLE_DISTRIBUTIONS = ("U(0,1)", "N(0.5,0.2)", "N(0.5,0.4)")
TABLE_AGENT_COUNTS = (1, 2, 5, 10)

_CHUNK_ROWS = 16_384
# values per chunk: n <= 5 keeps 16,384 rows, n = 10 gets 8,192
_CHUNK_VALUES = 81_920


@dataclass(frozen=True)
class SimulationConfig:
    mechanism: str
    spec: DistributionSpec
    n: int
    samples: int
    seed: int
    mode: str = "monte_carlo"
    t_c: float | None = None

    def __post_init__(self) -> None:
        if self.mechanism not in MECHANISMS:
            raise ValueError(f"unknown mechanism {self.mechanism!r}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        # two samples at least, so that the standard errors are estimates
        object.__setattr__(self, "samples", _count(self.samples, "samples", 2))
        object.__setattr__(self, "n", _count(self.n, "n"))
        object.__setattr__(self, "seed", _count(self.seed, "seed", 0))
        if not np.isfinite(max(self.n, 2) * self.spec.hi):  # as ``TypeProfile`` asks of values
            raise ValueError(f"max(n, 2) * hi must be finite, got n={self.n}, hi={self.spec.hi}")
        if self.mechanism == "csd":
            if self.t_c is None:
                raise ValueError("csd needs a deadline t_c in [0, 1]")
            _check_deadline(self.t_c)
        elif self.t_c is not None:
            raise ValueError(f"t_c only applies to csd, not {self.mechanism}")
        if self.mode == "exact_grouping":
            if self.mechanism != "gcsod":
                raise ValueError("exact_grouping mode only applies to gcsod")
            # the one cap check; it caches the arrays that ``estimate`` reads next
            _sorted_groupings(self.n)


@dataclass(frozen=True)
class SimulationReport:
    expected_max_delay: float
    expected_sum_delay: float
    standard_error_max: float
    standard_error_sum: float
    samples_used: int
    seed: int


@dataclass(frozen=True)
class TableRow:
    distribution: str
    n: int
    mechanism: str  # "gcsod" | "cs" | "lower_bound"
    objective: str  # "max" | "sum"
    value: float
    stderr: float | None


def _share_delays(
    k_star: np.ndarray, deadlines: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """(max delay, sum delay) per column of cost sharing on [0, deadline].

    ``deadlines`` holds one deadline per column, or one for all of them.
    k* = n means the row sold and nobody waits; an unsold row has k* = 0 and
    everyone waits until the deadline, as in ``csd_allocate``.
    """
    return np.where(k_star == n, 0.0, deadlines), (n - k_star) * deadlines


class _Workspace:
    """Named scratch arrays that the kernels write instead of allocating.

    A Monte Carlo estimate runs one kernel on chunk after chunk of the same
    size.  Fresh (n, rows) temporaries per chunk are handed back to the OS
    when freed and faulted in again on the next chunk; one workspace per
    estimate allocates each array once.  The row-wise helpers require one.

    ``get(key, shape, dtype)`` returns a C-contiguous view of the first
    prod(shape) elements of the flat buffer named ``key``, and grows the
    buffer when it is too small; so a short last chunk sees only its own
    rows.  Each key has one dtype, and is written only once nothing it holds
    is still needed.  No array that a kernel returns lives here, so its
    results outlast the next call.
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


def _kstar_rows(sorted_desc: np.ndarray, levels: np.ndarray, work: _Workspace) -> np.ndarray:
    """Per column, the largest k whose k-th entry is at least level k, else 0.

    ``sorted_desc`` is agent-major, (n, rows), each column sorted in
    descending order; ``levels`` is (n, 1) or (n, rows).  With the values'
    ``_prices`` as levels this is the row-wise ``_max_k``; the Monte Carlo
    estimate of cs and csd also runs it on sorted uniforms against the
    prices' preimages.
    """
    n = sorted_desc.shape[0]
    counts = np.arange(1, n + 1, dtype=np.min_scalar_type(n))[:, None]
    meets = np.greater_equal(sorted_desc, levels, out=work.get("meets", sorted_desc.shape, bool))
    return _largest_k(counts, meets, work.get("ranks", meets.shape, counts.dtype))


def _priced_kstar(sorted_desc: np.ndarray, deadlines: np.ndarray, work: _Workspace) -> np.ndarray:
    """Row-wise ``_max_k`` of agent-major sorted values at their deadlines."""
    ks = np.arange(1, sorted_desc.shape[0] + 1)[:, None]
    # the prices share "products" with ``batch_csod_delays``' deadlines, whose
    # products are reduced before anything is priced; the sorting network's
    # "low" row is free once the block is sorted, and takes each rank's slack
    shape = np.broadcast(ks, deadlines).shape
    prices = _prices(ks, deadlines, (work.get("products", shape), work.get("low", shape[1:])))
    return _kstar_rows(sorted_desc, prices, work)


def _sorted_desc(values: np.ndarray, work: _Workspace) -> np.ndarray:
    """Agent-major (n, rows) copy of (rows, n) ``values``, a reversed view of its ascending sort."""
    return _sort_columns(_agent_major(values, "values", work), work)[::-1]


# Half-width of the guard band around each price, relative above 1.
PREIMAGE_BAND = 1e-9


class _Preimages(NamedTuple):
    """Where the values of ``spec`` cross the n prices of one deadline, in uniforms.

    Let q be price k.  A sorted column's k-th uniform at or above ``above[k-1]``
    has k values at or above q; one below ``below[k-1]`` has fewer than k.
    """

    spec: DistributionSpec
    below: np.ndarray  # (n, 1)
    above: np.ndarray  # (n, 1)


def _price_preimages(spec: DistributionSpec, n: int, t_c: float) -> _Preimages:
    """The preimages of each price at deadline ``t_c`` less and plus a guard band.

    The band is eps = ``PREIMAGE_BAND`` * max(1, |q|) around price q.  The
    sampler f is not monotone in floating point (``distributions.preimage``
    shows a case), but say it lies within eps/2 of some non-decreasing g.
    A u at or above the crossing c of q + eps has
    f(u) >= g(u) - eps/2 >= g(c) - eps/2 >= f(c) - eps >= q.  A u at or
    below the double d just under the crossing of q - eps has
    f(u) <= g(u) + eps/2 <= g(d) + eps/2 <= f(d) + eps < q.  So a column
    whose k-th largest uniform is at or above ``above`` has k values at or
    above q, and one whose k-th largest is below ``below`` has at most
    k - 1.  ``ndtri`` errs by a few ulps, far inside 1e-9, and a uniform
    prior's two rounded steps are monotone.  A NaN price (t_c = 0) and one
    above the support map to 1.0, never reached, as no value meets them.
    """
    ks = np.arange(1, n + 1)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        prices = _prices(ks, np.array([t_c]))
    eps = PREIMAGE_BAND * np.maximum(1.0, np.abs(prices))
    below, above = preimage(spec, np.stack([prices - eps, prices + eps]))
    return _Preimages(spec, below, above)


def batch_csd_delays(
    values: np.ndarray,
    t_c: float,
    work: _Workspace | None = None,
    *,
    preimages: _Preimages | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(max delay, sum delay) per row under the fixed-deadline rule.

    Each ``batch_*_delays`` kernel takes its scratch from ``work``, or from a
    workspace of its own when none is given, and returns new arrays.

    With ``preimages`` (``_price_preimages`` of the same n and t_c),
    ``values`` holds the uniforms that ``draw`` would map to the values, and
    the result is the same as on those values.  k* is read off the sorted
    uniforms twice, against ``above`` (a lower bound on the true k*) and
    against ``below`` (an upper bound); the rows where the two differ, which
    have some k-th uniform inside the guard band, are mapped to their values
    and decided by the prices.
    """
    work = _Workspace() if work is None else work
    deadlines = np.array([t_c])
    sorted_desc = _sorted_desc(values, work)
    # t_c = 0 prices every group at infinity; the price-scaled slack turns that
    # threshold into NaN, which no value meets, so k* = 0 as in ``_max_k``
    with np.errstate(divide="ignore", invalid="ignore"):
        if preimages is None:
            k_star = _priced_kstar(sorted_desc, deadlines, work)
        else:
            k_star = _kstar_rows(sorted_desc, preimages.above, work)
            unsure = np.flatnonzero(k_star != _kstar_rows(sorted_desc, preimages.below, work))
            if unsure.size:
                exact = _to_values(preimages.spec, values[unsure])
                k_star[unsure] = _priced_kstar(_sorted_desc(exact, work), deadlines, work)
    return _share_delays(k_star, deadlines, values.shape[1])


def batch_cs_delays(
    values: np.ndarray, work: _Workspace | None = None, *, preimages: _Preimages | None = None
) -> tuple[np.ndarray, np.ndarray]:
    return batch_csd_delays(values, 1.0, work, preimages=preimages)


def batch_csod_delays(
    values: np.ndarray, work: _Workspace | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(max delay, sum delay) per row under the optimal-deadline rule."""
    work = _Workspace() if work is None else work
    sorted_desc = _sorted_desc(values, work)
    ks = np.arange(1, values.shape[1] + 1)[:, None]
    deadlines = _deadlines(ks, sorted_desc, work.get("products", sorted_desc.shape))
    # a row such as (DBL_MAX/2, DBL_MAX/2) has a subnormal deadline, whose
    # k = 1 price overflows to inf and its slack turns into NaN; no value
    # meets that, nor the same NaN in ``_max_k``, so k* is already right
    with np.errstate(over="ignore", invalid="ignore"):
        k_star = _priced_kstar(sorted_desc, deadlines, work)
    return _share_delays(k_star, deadlines, values.shape[1])


def batch_gcsod_delays(
    values: np.ndarray, left: np.ndarray, work: _Workspace | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(max delay, sum delay) per row of the group rule under the coin flips ``left``.

    Both arrays are sampled (rows, n) blocks, one profile per row, and
    neither is written.  Their agent-major copies hold one profile per
    column, so that the sort and every step after it work on contiguous
    agent rows.  Exact ties favour the left, as in ``gcsod_allocate``.

    One sort serves both sides.  Right members are negated (multiplied by -1,
    which is exact), so each ascending column holds the right side first,
    largest value first, and the left side last.  Reversed, the column is the
    left side in descending order; negated, the right side.  Either way the
    other side's members follow as values <= 0, which never meet a positive
    price and never lift k*v_(k) to the cap of 1, so each side's deadline and
    k* are those of its own members, as in the scalar rule.  The block is
    negated in place for the right side's deadline and price test, and
    negated back for the left side's price test: negation is exact, so no
    second (n, rows) copy is needed and every value keeps its bits.

    The winner's own deadline is the smaller of the two and the extended one
    the larger, exactly, since at a tie both are the same number.  So the
    tied columns are priced at their common deadline by the k* pass itself,
    and its masks of the members that meet their prices also decide ties: the
    left side wins a tie when one of its members meets its price.  No sold
    flag is needed: an optimal deadline below 1 funds its own side (by the relative
    ``QUALIFY_TOL`` and finite k*v), so a sale fails only in a tie at 1 where
    neither side funds, and there own = extended = 1 and k* = 0 give max 1 and sum n.
    """
    work = _Workspace() if work is None else work
    left = _agent_major(left, "left", work, bool)
    shape = left.shape
    ks = np.arange(1, shape[0] + 1)[:, None]
    counts = ks.astype(np.min_scalar_type(shape[0]))
    # (2 * left - 1) * values, the same bits as values * (2 * left - 1); the
    # values are read only here, before the deadlines' products overwrite them
    s = np.multiply(left, 2.0, out=work.get("signed", shape))
    s -= 1.0
    s *= _agent_major(values, "products", work)
    s = _sort_columns(s, work)
    l_sorted = s[::-1]
    dl = _deadlines(ks, l_sorted, work.get("products", shape))
    np.negative(s, out=s)
    dr = _deadlines(ks, s, work.get("products", shape))
    own = np.minimum(dl, dr)
    extended = np.maximum(dl, dr)
    # the sorting network's "low" row is free now, and takes each rank's slack
    prices = _prices(ks, extended, (work.get("products", shape), work.get("low", shape[1:])))
    other = np.greater_equal(s, prices, out=work.get("other", shape, bool))
    np.negative(s, out=s)
    meets = np.greater_equal(l_sorted, prices, out=work.get("meets", shape, bool))
    left_wins = (dl < dr) | ((dl == dr) & meets.any(axis=0))
    meets &= left_wins
    other &= ~left_wins
    meets |= other
    k_star = _largest_k(counts, meets, work.get("ranks", shape, counts.dtype))
    # the flips are dead after this count, so the winners' mask overwrites them
    n_win = np.add.reduce(np.equal(left, left_wins, out=left), axis=0, dtype=k_star.dtype)
    # the tail works branch-free, on counts of k*'s small unsigned type: a
    # select on a coin-flip mask mispredicts about every other row.  Each
    # float step is the IEEE operation of the plain formula: the counts
    # convert exactly, and the deadlines lie in (0, 1], so multiplying one by
    # a mask gives it or +0.0.
    n_lose = values.shape[1] - n_win
    mx = np.multiply(extended, n_win > k_star)
    np.maximum(mx, np.multiply(own, n_lose > 0), out=mx)
    sm = np.multiply(n_win - k_star, extended, out=extended)
    sm += np.multiply(n_lose, own, out=own)
    return mx, sm


def _exact_grouping_delays(values: np.ndarray, work: _Workspace | None = None):
    """Per-profile exact expectations over all groupings of (max, sum) delay.

    One ``_sorted_table`` call serves a block of max(1, 4096 // 2^n) profiles,
    sorted: max and sum over the agents do not depend on their order.
    """
    groupings = [g[:, None, :] for g in _sorted_groupings(values.shape[1])]
    sorted_desc = _sorted_desc(values, _Workspace() if work is None else work)
    block = max(1, 4096 >> values.shape[1])
    delays = np.empty((2, values.shape[0]))
    for start in range(0, values.shape[0], block):
        times, _ = _sorted_table(sorted_desc[:, start : start + block], *groupings)
        # mean: per profile, the sum over its 2^n groupings over their count
        delays[:, start : start + block] = times.max(axis=0).mean(1), times.sum(axis=0).mean(1)
    return delays[0], delays[1]


def estimate(config: SimulationConfig) -> SimulationReport:
    """Expected delays of a mechanism under a prior, with standard errors.

    Identical configs and seeds produce bit-identical reports; the profile
    and coin-flip streams are split so the draws do not interleave.
    """
    seeds = np.random.SeedSequence(config.seed).spawn(2)
    rng_values, rng_coins = map(np.random.default_rng, seeds)

    work = _Workspace()
    preimages = None
    if config.mechanism in ("cs", "csd"):
        t_c = 1.0 if config.mechanism == "cs" else config.t_c
        preimages = _price_preimages(config.spec, config.n, t_c)
    total = np.zeros(2)
    total_sq = np.zeros(2)
    rows = max(1, min(_CHUNK_ROWS, _CHUNK_VALUES // config.n))
    remaining = config.samples
    while remaining > 0:
        shape = (min(remaining, rows), config.n)
        block = work.get("draws", shape)
        if preimages is not None:
            uniforms = rng_values.random(shape, out=block)
            if config.mechanism == "cs":
                mx, sm = batch_cs_delays(uniforms, work, preimages=preimages)
            else:
                mx, sm = batch_csd_delays(uniforms, config.t_c, work, preimages=preimages)
        elif config.mechanism == "csod":
            mx, sm = batch_csod_delays(draw(config.spec, shape, rng_values, out=block), work)
        elif config.mode == "exact_grouping":
            mx, sm = _exact_grouping_delays(draw(config.spec, shape, rng_values, out=block), work)
        else:
            # the coin uniforms are dead once flipped, so the values overwrite them
            coins = rng_coins.random(shape, out=block)
            left = np.less(coins, 0.5, out=work.get("flips", shape, bool))
            values = draw(config.spec, shape, rng_values, out=block)
            mx, sm = batch_gcsod_delays(values, left, work)
        total += (mx.sum(), sm.sum())
        total_sq += ((mx * mx).sum(), (sm * sm).sum())
        remaining -= shape[0]

    count = config.samples
    mean = total / count
    var = np.maximum(total_sq - count * mean**2, 0.0) / (count - 1)
    stderr = np.sqrt(var / count)
    return SimulationReport(
        expected_max_delay=float(mean[0]),
        expected_sum_delay=float(mean[1]),
        standard_error_max=float(stderr[0]),
        standard_error_sum=float(stderr[1]),
        samples_used=count,
        seed=config.seed,
    )


def reproduce_table(H: int = 100, samples: int = 1_000_000, seed: int = 0) -> list[TableRow]:
    """Benchmark grid of simulated delays and LP bounds, in long-record form.

    Mechanisms in one grid row share the sampled profiles (same seed), which
    keeps their comparison common-random-number friendly.
    """
    records: list[TableRow] = []
    for label in TABLE_DISTRIBUTIONS:
        spec = DistributionSpec.parse(label)
        for n in TABLE_AGENT_COUNTS:
            for mech in ("gcsod", "cs"):
                report = estimate(
                    SimulationConfig(mechanism=mech, spec=spec, n=n, samples=samples, seed=seed)
                )
                for objective, value, err in (
                    ("max", report.expected_max_delay, report.standard_error_max),
                    ("sum", report.expected_sum_delay, report.standard_error_sum),
                ):
                    records.append(TableRow(label, n, mech, objective, value, err))
            records += [
                TableRow(label, n, "lower_bound", "max", max_delay_lower_bound(spec, n, H), None),
                TableRow(label, n, "lower_bound", "sum", sum_delay_lower_bound(spec, n, H), None),
            ]
    return records
