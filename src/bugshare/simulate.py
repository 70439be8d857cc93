"""Monte-Carlo and exact-expectation estimation of mechanism delays under priors.

Profiles are sampled in chunks of ``_CHUNK_ROWS`` from a seeded stream.  At
n = 10 a chunk's (n, rows) float arrays are 1.3 MB each, so a kernel's
working set stays in a 2-4 MB per-core cache.  The value and coin streams
are read in the same order whatever the chunk size, so the draws do not
depend on it.  ``draw`` maps the chunk's uniforms to values in place, with
no temporary per arithmetic step.

One ``estimate`` call holds one workspace (``mechanisms._Workspace``) for
all its chunks: the draws, the coin flips, the agent-major copies and the
kernels' (n, rows) scratch are allocated once and rewritten by every chunk.
Allocated afresh per chunk, a dozen such arrays per group-rule chunk were
handed back to the OS when freed and faulted in again on the next chunk,
about 1.5 GB of fresh pages per benchmark pass.  The last, shorter chunk
works on views of the first rows x n elements of each buffer, so it sees
none of the rows of the chunk before it.  The kernels' results are new
arrays, and a kernel called without a workspace builds its own.

The kernels sort each chunk once, agent-major, with
``mechanisms._sort_columns``: a compare-exchange network whose comparators
are elementwise passes over whole agent rows.

The array form of the allocation rules (row-wise deadline, k* and
group-rule decision) lives in :mod:`bugshare.mechanisms` next to the scalar
rules it mirrors.  It works on agent-major (n, rows) arrays, so each
``batch_*_delays`` kernel takes the sampled (rows, n) block and copies its
transpose into the workspace once; this module only reduces the decisions
to the max and sum of the allocation times.  The group rule runs either
with one sampled coin-flip vector per profile (``monte_carlo``) or with the
full 2^n grouping enumeration per profile (``exact_grouping``).

``reproduce_table`` assembles the benchmark grid: expected max/sum delay of
the plain and group cost-sharing rules plus the two LP lower bounds, for
U(0,1), N(0.5,0.2) and N(0.5,0.4) at n in {1, 2, 5, 10}.
"""

from __future__ import annotations

import io
import json
import csv as _csv
from dataclasses import asdict, dataclass

import numpy as np

from .distributions import DistributionSpec, draw
from .lowerbound import max_delay_lower_bound, sum_delay_lower_bound
from .mechanisms import (
    _Workspace,
    _deadline_rows,
    _group_rows,
    _kstar_rows,
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
    sorted_desc: np.ndarray, deadlines: np.ndarray, work: _Workspace
) -> tuple[np.ndarray, np.ndarray]:
    """(max delay, sum delay) per column of cost sharing on [0, deadline].

    ``sorted_desc`` is agent-major, (n, rows); ``deadlines`` holds one
    deadline per column, or one for all of them.  k* = n means the row sold
    and nobody waits; an unsold row has k* = 0 and everyone waits until the
    deadline, as in ``csd_allocate``.
    """
    n = sorted_desc.shape[0]
    k_star = _kstar_rows(sorted_desc, deadlines, work)
    return np.where(k_star == n, 0.0, deadlines), (n - k_star) * deadlines


def _agent_major(rows: np.ndarray, key: str, work: _Workspace, dtype=np.float64) -> np.ndarray:
    """``work``'s (n, rows) array ``key`` holding a copy of the (rows, n) block ``rows``.

    A plain transpose copy: an arithmetic op forced to C order on the
    transposed view costs over ten times as much.
    """
    block = work.get(key, rows.shape[::-1], dtype)
    np.copyto(block, rows.T)
    return block


def _sorted_desc(values: np.ndarray, work: _Workspace) -> np.ndarray:
    """Agent-major (n, rows) sorted copy of (rows, n) ``values``, columns descending.

    The copy is sorted ascending in ``work`` and returned as a reversed view.
    """
    block = _agent_major(values, "values", work)
    return _sort_columns(block, work.get("low", block.shape[1:]))[::-1]


def batch_csd_delays(
    values: np.ndarray, t_c: float, work: _Workspace | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(max delay, sum delay) per row under the fixed-deadline rule.

    Each ``batch_*_delays`` kernel takes its scratch from ``work``, or from a
    workspace of its own when none is given, and returns new arrays.
    """
    work = _Workspace() if work is None else work
    # t_c = 0 prices every group at infinity; the price-scaled slack turns that
    # threshold into NaN, which no value meets, so k* = 0 as in ``_max_k``
    with np.errstate(divide="ignore", invalid="ignore"):
        return _share_delays(_sorted_desc(values, work), np.array([t_c]), work)


def batch_cs_delays(
    values: np.ndarray, work: _Workspace | None = None
) -> tuple[np.ndarray, np.ndarray]:
    return batch_csd_delays(values, 1.0, work)


def batch_csod_delays(
    values: np.ndarray, work: _Workspace | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(max delay, sum delay) per row under the optimal-deadline rule."""
    work = _Workspace() if work is None else work
    sorted_desc = _sorted_desc(values, work)
    return _share_delays(sorted_desc, _deadline_rows(sorted_desc, work), work)


def batch_gcsod_delays(
    values: np.ndarray, left: np.ndarray, work: _Workspace | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(max delay, sum delay) per row of the group rule under given coin flips."""
    work = _Workspace() if work is None else work
    n = values.shape[1]
    left = _agent_major(left, "left", work, bool)
    # ``_group_rows`` reads the values only to sign them, before its first
    # products, so they borrow that buffer
    left_wins, sold, own, extended, k_star = _group_rows(
        _agent_major(values, "products", work), left, work
    )
    n_left = left.sum(axis=0)
    n_win = np.where(left_wins, n_left, n - n_left)
    n_lose = n - n_win
    mx = np.maximum(
        np.where(n_win > k_star, extended, 0.0),
        np.where(n_lose > 0, own, 0.0),
    )
    sm = (n_win - k_star) * extended + n_lose * own
    return np.where(sold, mx, 1.0), np.where(sold, sm, float(n))


def _exact_grouping_delays(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-profile exact expectations over all groupings of (max, sum) delay."""
    # max and sum over the agents do not depend on their order, so the
    # sorted-space table serves as it is
    sorted_desc = np.sort(values, axis=1)[:, ::-1]
    groupings = _sorted_groupings(values.shape[1])
    rows = values.shape[0]
    mx = np.empty(rows)
    sm = np.empty(rows)
    for r in range(rows):
        times, _ = _sorted_table(sorted_desc[r], *groupings)
        mx[r] = times.max(axis=0).mean()
        sm[r] = times.sum(axis=0).mean()
    return mx, sm


def estimate(config: SimulationConfig) -> SimulationReport:
    """Expected delays of a mechanism under a prior, with standard errors.

    Identical configs and seeds produce bit-identical reports; the profile
    and coin-flip streams are split so the draws do not interleave.
    """
    seq = np.random.SeedSequence(config.seed)
    value_seed, coin_seed = seq.spawn(2)
    rng_values = np.random.default_rng(value_seed)
    rng_coins = np.random.default_rng(coin_seed)

    work = _Workspace()
    total = np.zeros(2)
    total_sq = np.zeros(2)
    remaining = config.samples
    while remaining > 0:
        shape = (min(remaining, _CHUNK_ROWS), config.n)
        values = draw(config.spec, shape, rng_values, out=work.get("draws", shape))
        if config.mechanism == "cs":
            mx, sm = batch_cs_delays(values, work)
        elif config.mechanism == "csd":
            mx, sm = batch_csd_delays(values, config.t_c, work)
        elif config.mechanism == "csod":
            mx, sm = batch_csod_delays(values, work)
        elif config.mode == "exact_grouping":
            mx, sm = _exact_grouping_delays(values)
        else:
            # the uniforms are dead once flipped, so they borrow a buffer
            # that the kernel only writes later
            coins = rng_coins.random(shape, out=work.get("products", shape))
            left = np.less(coins, 0.5, out=work.get("flips", shape, bool))
            mx, sm = batch_gcsod_delays(values, left, work)
        total += (mx.sum(), sm.sum())
        total_sq += ((mx * mx).sum(), (sm * sm).sum())
        remaining -= shape[0]

    count = config.samples
    mean = total / count
    if count > 1:
        var = np.maximum(total_sq - count * mean**2, 0.0) / (count - 1)
        stderr = np.sqrt(var / count)
    else:
        stderr = np.zeros(2)
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
            records.append(
                TableRow(label, n, "lower_bound", "max", max_delay_lower_bound(spec, n, H), None)
            )
            records.append(
                TableRow(label, n, "lower_bound", "sum", sum_delay_lower_bound(spec, n, H), None)
            )
    return records


def table_to_csv(records: list[TableRow]) -> str:
    buf = io.StringIO()
    writer = _csv.writer(buf, lineterminator="\n")
    writer.writerow(["distribution", "n", "mechanism", "objective", "value", "stderr"])
    for row in records:
        writer.writerow(
            [
                row.distribution,
                row.n,
                row.mechanism,
                row.objective,
                f"{row.value:.6f}",
                "" if row.stderr is None else f"{row.stderr:.6f}",
            ]
        )
    return buf.getvalue()


def table_to_json(records: list[TableRow]) -> str:
    return json.dumps([asdict(row) for row in records], indent=2)
