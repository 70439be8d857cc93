"""Monte-Carlo and exact-expectation estimation of mechanism delays under priors.

Profiles are sampled in chunks of ``_CHUNK_ROWS`` from a seeded stream.  At
n = 10 a chunk's (n, rows) float arrays are 1.3 MB each and the group rule
holds five: its estimate peaks 8 MiB above the post-import RSS (cs: 4 MiB).
The value and coin streams are read in the same order whatever the chunk
size, so the draws do not depend on it.  ``draw`` maps the chunk's uniforms
to values in place, with no temporary per arithmetic step.

cs and csd read a value only through ``v >= price_k``, so their estimates
never map the uniforms: each kernel sorts the chunk's uniforms and compares
the k-th largest with two preimages of price k under ``draw``'s exact
pipeline, computed once per estimate (``_price_preimages``).  A guard band
between the two makes up for the sampler not being monotone in floating
point; the few profiles with a uniform inside it are mapped to their values
and priced as before, so the reports are bit for bit those of the value
path.  csod, the group rule and the exact-grouping mode use the values
themselves, in products and per-row deadlines, and draw them.

One ``estimate`` call holds one workspace (``mechanisms._Workspace``) for
all its chunks, so the draws, the coin flips and the kernels' (n, rows)
arrays are allocated once; fresh per chunk, they were faulted in again on
every chunk, about 1.5 GB of pages per benchmark pass.  This module names
only "draws", "flips" and "values"; the coin uniforms go into "draws" and
are flipped before the values are drawn over them.  The last, shorter
chunk works on views of the first rows x n elements of each buffer.  The
kernels' results are new arrays, and a kernel called without a workspace
builds its own.

The array form of the allocation rules (row-wise deadline, k* and
group-rule decision) lives in :mod:`bugshare.mechanisms` next to the scalar
rules it mirrors, on agent-major (n, rows) copies of the sampled (rows, n)
blocks, each sorted once by ``mechanisms._sort_columns``, a network of
elementwise passes over whole agent rows.  This module only reduces the
decisions to the max and sum of the allocation times.  The group rule runs
either with one sampled coin-flip vector per profile (``monte_carlo``) or
over all 2^n groupings, for a block of profiles at once (``exact_grouping``).

``reproduce_table`` assembles the benchmark grid: expected max/sum delay of
the plain and group cost-sharing rules plus the two LP lower bounds, for
U(0,1), N(0.5,0.2) and N(0.5,0.4) at n in {1, 2, 5, 10}.
"""

from __future__ import annotations

import io
import json
import csv as _csv
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .distributions import DistributionSpec, _to_values, draw, preimage
from .lowerbound import max_delay_lower_bound, sum_delay_lower_bound
from .mechanisms import (
    _Workspace,
    _agent_major,
    _deadline_rows,
    _group_rows,
    _kstar_rows,
    _prices,
    _sort_columns,
    _sorted_groupings,
    _sorted_table,
)

MECHANISMS = ("cs", "csd", "csod", "gcsod")
MODES = ("monte_carlo", "exact_grouping")

TABLE_DISTRIBUTIONS = ("U(0,1)", "N(0.5,0.2)", "N(0.5,0.4)")
TABLE_AGENT_COUNTS = (1, 2, 5, 10)

_CHUNK_ROWS = 16_384


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
        if self.samples < 1:
            raise ValueError("samples must be at least 1")
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if not np.isfinite(max(self.n, 2) * self.spec.hi):  # as ``TypeProfile`` asks of values
            raise ValueError(f"max(n, 2) * hi must be finite, got n={self.n}, hi={self.spec.hi}")
        if self.mechanism == "csd":
            if self.t_c is None or not 0.0 <= self.t_c <= 1.0:
                raise ValueError("csd needs a deadline t_c in [0, 1]")
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


def _priced_kstar(sorted_desc: np.ndarray, deadlines: np.ndarray, work: _Workspace) -> np.ndarray:
    """Row-wise ``_max_k`` of agent-major sorted values at their deadlines."""
    ks = np.arange(1, sorted_desc.shape[0] + 1)[:, None]
    return _kstar_rows(sorted_desc, _prices(ks, deadlines, work), work)


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
    deadlines = _deadline_rows(sorted_desc, work)
    return _share_delays(_priced_kstar(sorted_desc, deadlines, work), deadlines, values.shape[1])


def batch_gcsod_delays(
    values: np.ndarray, left: np.ndarray, work: _Workspace | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(max delay, sum delay) per row of the group rule under given coin flips.

    An unsold row needs no flag: its own = extended = 1 and k* = 0 give max 1 and sum n.
    """
    work = _Workspace() if work is None else work
    own, extended, k_star, n_win = _group_rows(values, left, work)
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
    remaining = config.samples
    while remaining > 0:
        shape = (min(remaining, _CHUNK_ROWS), config.n)
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
    # one sample has total_sq == mean**2 exactly, so its standard error is 0
    var = np.maximum(total_sq - count * mean**2, 0.0) / max(count - 1, 1)
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


def table_to_csv(records: list[TableRow]) -> str:
    buf = io.StringIO()
    writer = _csv.writer(buf, lineterminator="\n")
    writer.writerow(["distribution", "n", "mechanism", "objective", "value", "stderr"])
    for r in records:
        stderr = "" if r.stderr is None else f"{r.stderr:.6f}"
        writer.writerow([r.distribution, r.n, r.mechanism, r.objective, f"{r.value:.6f}", stderr])
    return buf.getvalue()


def table_to_json(records: list[TableRow]) -> str:
    return json.dumps([asdict(row) for row in records], indent=2)
