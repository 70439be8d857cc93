"""Delay estimation: kernel agreement, determinism, anchors, and the table."""

import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bugshare import mechanisms, simulate
from bugshare.cli import run, table_to_csv
from bugshare.distributions import DistributionSpec, _to_values, cdf, draw, sample
from bugshare.mechanisms import (
    Grouping,
    TypeProfile,
    cs_allocate,
    csd_allocate,
    csod_allocate,
    gcsod_allocate,
    gcsod_expected,
    gcsod_realizations,
    gcsod_sample,
)
from bugshare.simulate import (
    SimulationConfig,
    SimulationReport,
    TableRow,
    batch_cs_delays,
    batch_csd_delays,
    batch_csod_delays,
    batch_gcsod_delays,
    estimate,
    reproduce_table,
    _Workspace,
)

from helpers import TIE_GRID, gcsod_expectation_oracle, gcsod_oracle, table_from_csv

GOLDEN = Path(__file__).parent / "golden" / "table_small.csv"
UNIFORM = DistributionSpec.parse("U(0,1)")


# ------------------------------------------------------------- batch kernels


def _random_batch(rng, rows, n, hi=1.2):
    return rng.random((rows, n)) * hi


@pytest.mark.parametrize("n", [1, 2, 4, 7])
def test_batch_cs_matches_scalar(n):
    rng = np.random.default_rng(100 + n)
    values = _random_batch(rng, 300, n)
    mx, sm = batch_cs_delays(values)
    for row in range(values.shape[0]):
        out = cs_allocate(TypeProfile(tuple(values[row])))
        assert mx[row] == max(out.times)
        assert sm[row] == pytest.approx(sum(out.times), abs=1e-12)


@pytest.mark.parametrize("t_c", [0.0, 0.35, 0.8, 1.0])
def test_batch_csd_matches_scalar(t_c):
    rng = np.random.default_rng(17)
    values = _random_batch(rng, 300, 3)
    mx, sm = batch_csd_delays(values, t_c)
    for row in range(values.shape[0]):
        out = csd_allocate(TypeProfile(tuple(values[row])), t_c)
        assert mx[row] == max(out.times)
        assert sm[row] == pytest.approx(sum(out.times), abs=1e-12)


@pytest.mark.parametrize("n", [1, 3, 6])
def test_batch_csod_matches_scalar(n):
    rng = np.random.default_rng(200 + n)
    values = _random_batch(rng, 300, n)
    mx, sm = batch_csod_delays(values)
    for row in range(values.shape[0]):
        out = csod_allocate(TypeProfile(tuple(values[row])))
        assert mx[row] == max(out.times)
        assert sm[row] == pytest.approx(sum(out.times), abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_batch_gcsod_matches_scalar(n):
    rng = np.random.default_rng(300 + n)
    values = _random_batch(rng, 300, n)
    left = rng.random((300, n)) < 0.5
    mx, sm = batch_gcsod_delays(values, left)
    for row in range(values.shape[0]):
        side = tuple("L" if flag else "R" for flag in left[row])
        out = gcsod_oracle(TypeProfile(tuple(values[row])), Grouping(side))
        assert mx[row] == max(out.times)
        assert sm[row] == pytest.approx(sum(out.times), abs=1e-12)


@given(
    st.lists(st.sampled_from(TIE_GRID), min_size=1, max_size=6).map(tuple),
    st.sampled_from((0.0, 0.25, 0.5, 0.75, 1.0)),
)
@example((0.5, 0.5), 0.5)
@example((0.9, 0.8, 0.26, 0.26), 0.625)
@example((0.73, 0.73, 0.73, 0.73), 1.0)
# values exactly on their k* price at deadline 1, slack included: they pay
@example((1.0 - 1e-12,), 1.0)
@example((0.5 - 1e-12, 0.5 - 1e-12, 0.0), 1.0)
# the largest accepted values: a subnormal deadline, whose k = 1 price overflows
@example((sys.float_info.max / 2,) * 2, 1.0)
@example((sys.float_info.max / 4,) * 4, 1.0)
@example((sys.float_info.max / 8,) * 8, 1.0)
@settings(max_examples=150, deadline=None)
def test_array_rules_match_scalar_rules_on_ties_and_thresholds(values, t_c):
    profile = TypeProfile(values)
    n = len(values)
    realizations = gcsod_realizations(profile)
    left = (np.arange(2**n)[:, None] >> np.arange(n)) & 1 == 1
    g_mx, g_sm = batch_gcsod_delays(np.tile(values, (2**n, 1)), left)
    for code in range(2**n):
        grouping = Grouping(tuple("L" if flag else "R" for flag in left[code]))
        out = gcsod_oracle(profile, grouping)
        assert realizations[code] == out
        assert gcsod_allocate(profile, grouping) == out
        assert g_mx[code] == max(out.times)
        assert g_sm[code] == pytest.approx(sum(out.times), abs=1e-12)

    row = np.array([values])
    for (mx, sm), out in (
        (batch_cs_delays(row), cs_allocate(profile)),
        (batch_csd_delays(row, t_c), csd_allocate(profile, t_c)),
        (batch_csod_delays(row), csod_allocate(profile)),
    ):
        assert mx[0] == max(out.times)
        assert sm[0] == pytest.approx(sum(out.times), abs=1e-12)


# The examples hit the columns where k* decides the winner: both sides'
# deadlines tie below 1 (at 0.625 and at 0.3125), tie at 1 with only the
# right side able to pay (0.5 alone against 1.0), and tie at 1 with neither
# side able to pay.
@given(
    st.integers(7, 12).flatmap(
        lambda n: st.tuples(
            st.lists(st.sampled_from(TIE_GRID), min_size=n, max_size=n).map(tuple),
            st.lists(
                st.lists(st.booleans(), min_size=n, max_size=n), min_size=1, max_size=6
            ),
        )
    ),
    st.sampled_from((0.0, 0.25, 0.5, 0.75, 1.0)),
)
@example(((0.8,) * 4 + (0.0,) * 3, [[True, True, False, False] + [True] * 3]), 0.5)
@example(((0.8,) * 8, [[True] * 4 + [False] * 4, [False] * 4 + [True] * 4]), 0.625)
@example(((0.5, 1.0) + (0.0,) * 5, [[True, False] + [True] * 5]), 1.0)
@example(((0.1,) * 12, [[True, False] * 6]), 0.25)
@settings(max_examples=100, deadline=None)
def test_agent_major_kernels_match_scalar_rules_past_six_agents(case, t_c):
    values, splits = case
    profile = TypeProfile(values)
    left = np.array(splits)
    rows = np.tile(values, (len(splits), 1))
    g_mx, g_sm = batch_gcsod_delays(rows, left)
    for r, split in enumerate(splits):
        grouping = Grouping(tuple("L" if flag else "R" for flag in split))
        out = gcsod_oracle(profile, grouping)
        assert gcsod_allocate(profile, grouping) == out
        assert g_mx[r] == max(out.times)
        assert g_sm[r] == pytest.approx(sum(out.times), abs=1e-12)
    for (mx, sm), out in (
        (batch_cs_delays(rows), cs_allocate(profile)),
        (batch_csd_delays(rows, t_c), csd_allocate(profile, t_c)),
        (batch_csod_delays(rows), csod_allocate(profile)),
    ):
        assert np.all(mx == max(out.times))
        assert sm == pytest.approx(sum(out.times), abs=1e-12)


def _largest_accepted(n):
    """The largest v with max(n, 2) * v finite: the top of ``TypeProfile``'s domain."""
    m = max(n, 2)
    v = sys.float_info.max / m
    while math.isfinite(m * math.nextafter(v, math.inf)):
        v = math.nextafter(v, math.inf)
    while not math.isfinite(m * v):
        v = math.nextafter(v, -math.inf)
    return v


@st.composite
def _accepted_blocks(data):
    """A (rows, n) block over ``TIE_GRID`` and the domain's top, with one split per row."""
    n = data(st.integers(1, 12))
    top = _largest_accepted(n)
    pool = TIE_GRID + (top, top / 2, top / 3)
    rows = data(st.integers(1, 6))
    row = st.lists(st.sampled_from(pool), min_size=n, max_size=n)
    split = st.lists(st.booleans(), min_size=n, max_size=n)
    values = data(st.lists(row, min_size=rows, max_size=rows))
    left = data(st.lists(split, min_size=rows, max_size=rows))
    return np.array(values), np.array(left)


# Every row is decided exactly as by the scalar rules, across the whole
# accepted domain: at its top a deadline is subnormal and its k = 1 price
# overflows, which must neither warn nor change a decision.  The max delay
# matches bit for bit.  The kernels sum counts times each distinct time, the
# rules list the times, so the sums agree to within the kernels' three
# roundings.
@pytest.mark.filterwarnings("error")
@given(_accepted_blocks())
@example((np.array([[_largest_accepted(2)] * 2]), np.array([[True, False]])))
@example((np.array([[_largest_accepted(12)] * 12, [1 / 3] * 12]), np.ones((2, 12), bool)))
@example((np.array([[_largest_accepted(8) / 2] * 4 + [0.0] * 4]), np.array([[True, False] * 4])))
@settings(max_examples=200, deadline=None)
def test_kernels_match_scalar_rules_on_the_whole_accepted_domain(block):
    values, left = block
    kernels = (batch_cs_delays(values), batch_csod_delays(values), batch_gcsod_delays(values, left))
    for r in range(values.shape[0]):
        profile = TypeProfile(tuple(values[r]))
        grouping = Grouping(tuple("L" if flag else "R" for flag in left[r]))
        rules = (cs_allocate(profile), csod_allocate(profile), gcsod_oracle(profile, grouping))
        for (mx, sm), out in zip(kernels, rules):
            assert mx[r] == max(out.times)
            assert sm[r] == pytest.approx(math.fsum(out.times), rel=2**-50, abs=0)


# The array forms of the deadline and of k* are the scalar ones per column,
# bit for bit, whether k is the column 1..n or a grouping's left ranks, over
# the tie grid, the accepted domain's top (a subnormal deadline whose k = 1
# price overflows) and all-zero columns.
@pytest.mark.parametrize("n", range(1, 9))
def test_array_deadline_and_largest_k_match_the_scalar_forms(n):
    rng = np.random.default_rng(900 + n)
    top = _largest_accepted(n)
    pool = np.array(TIE_GRID + (top, top / 2))
    columns = np.concatenate(
        [rng.choice(pool, (n, 60)), np.zeros((n, 1)), np.full((n, 1), top)], axis=1
    )
    v = -np.sort(-columns, axis=0)
    ks = np.arange(1, n + 1)[:, None]
    counts = ks.astype(np.min_scalar_type(n))
    deadlines = mechanisms._deadlines(ks, v)
    with np.errstate(over="ignore", invalid="ignore"):
        k_star = mechanisms._largest_k(counts, v >= mechanisms._prices(ks, deadlines))
    left, rank, left_rank = mechanisms._sorted_groupings(n)
    for c in range(v.shape[1]):
        col = v[:, c].tolist()
        assert deadlines[c] == mechanisms._deadline(col)
        assert k_star[c] == mechanisms._max_k(col, float(deadlines[c]))
        sides = mechanisms._deadlines(left_rank, v[:, c : c + 1])
        with np.errstate(over="ignore", invalid="ignore"):
            meets = v[:, c : c + 1] >= mechanisms._prices(rank, sides)
        side_k = mechanisms._largest_k(left_rank, meets)
        for g in range(left.shape[1]):
            members = [x for x, member in zip(col, left[:, g]) if member]
            assert sides[g] == (mechanisms._deadline(members) if members else 1.0)
            assert side_k[g] == mechanisms._max_k(members, float(sides[g]))


# The kernels price through a one-row scratch, one rank's row at a time, and
# ``_sorted_table`` and the preimages through fresh arrays, the whole block at
# once.  Each element sees the same operations either way, so the bits agree:
# at n = 1, at deadline 0 and at subnormal deadlines (whose infinite prices
# turn into NaN) and on prices on both sides of 1, under the union of the
# kernels' errstates.
@pytest.mark.parametrize("n", [1, 2, 5, 10])
def test_prices_through_one_row_match_the_fresh_arrays(n):
    rng = np.random.default_rng(2900 + n)
    infinite = [0.0, 2.0**-1074, 2.0**-1030, 2.0**-1024]  # k = 1 prices inf, then NaN
    deadlines = np.concatenate([3 * rng.random(300), [1.0, 1 / n, 2.0**-1020], infinite])
    ks = np.arange(1, n + 1)[:, None]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        fresh = mechanisms._prices(ks, deadlines)
        prices = np.full(fresh.shape, 0.5)
        row = np.full(fresh.shape[1:], 0.5)
        through = mechanisms._prices(ks, deadlines, (prices, row))
    assert through is prices
    assert through.tobytes() == fresh.tobytes()
    assert np.isnan(fresh[0, -len(infinite) :]).all()
    assert (fresh > 1.0).any() and (fresh < 1.0).any()


# ``gcsod_expected`` averages a table built over the agents in sorted order
# and maps it back, so ties between agents, ties between the two sides'
# deadlines and the order of the agents all pass through one argsort; the
# realizations are read over the agents as given.  The examples are the tie
# profiles of the kernel test above, each with one reordering.
@given(
    st.integers(7, 10).flatmap(
        lambda n: st.tuples(
            st.lists(st.sampled_from(TIE_GRID), min_size=n, max_size=n).map(tuple),
            st.permutations(range(n)),
        )
    )
)
@example(((0.8,) * 4 + (0.0,) * 3, (6, 5, 4, 3, 2, 1, 0)))
@example(((0.8,) * 8, (1, 0, 3, 2, 5, 4, 7, 6)))
@example(((0.5, 1.0) + (0.0,) * 5, (2, 3, 4, 5, 6, 1, 0)))
@example(((0.1,) * 12, tuple(range(11, -1, -1))))
@settings(max_examples=30, deadline=None)
def test_grouping_enumeration_matches_scalar_rule_past_six_agents(case):
    values, order = case
    profile = TypeProfile(values)
    n = len(values)
    realizations = gcsod_realizations(profile)
    for code in range(2**n):
        side = tuple("L" if (code >> i) & 1 else "R" for i in range(n))
        assert realizations[code] == gcsod_oracle(profile, Grouping(side))

    exp = gcsod_expected(profile)
    o_times, o_payments, o_max, o_sum = gcsod_expectation_oracle(profile)
    np.testing.assert_allclose(exp.times, o_times, rtol=0, atol=1e-12)
    np.testing.assert_allclose(exp.payments, o_payments, rtol=0, atol=1e-12)
    assert exp.max_delay == pytest.approx(o_max, abs=1e-12)
    assert exp.sum_delay == pytest.approx(o_sum, abs=1e-12)

    permuted = gcsod_expected(TypeProfile(tuple(values[i] for i in order)))
    for got, want in ((permuted.times, exp.times), (permuted.payments, exp.payments)):
        np.testing.assert_allclose(got, [want[i] for i in order], rtol=0, atol=1e-15)
    assert permuted.max_delay == pytest.approx(exp.max_delay, abs=1e-15)
    assert permuted.sum_delay == pytest.approx(exp.sum_delay, abs=1e-15)


def test_kernels_treat_rows_independently():
    # one call on stacked rows equals calls on its pieces, row for row, with
    # random and tie-grid rows mixed so that every piece holds deadline ties
    rng = np.random.default_rng(21)
    values = np.concatenate([_random_batch(rng, 500, 5), rng.choice(TIE_GRID, (500, 5))])
    values = values[rng.permutation(1000)]
    left = rng.random((1000, 5)) < 0.5
    kernels = (
        lambda v, g: batch_cs_delays(v),
        lambda v, g: batch_csd_delays(v, 0.5),
        lambda v, g: batch_csod_delays(v),
        batch_gcsod_delays,
    )
    bounds = (0, 1, 8, 300, 1000)
    for kernel in kernels:
        whole = kernel(values, left)
        pieces = [kernel(values[a:b], left[a:b]) for a, b in zip(bounds, bounds[1:])]
        for k in range(2):
            assert np.array_equal(whole[k], np.concatenate([p[k] for p in pieces]))


# Past the paper's n <= 10 the sorting network is pruned from ever larger
# power-of-two networks: 17 and 40 lose most of theirs.
@pytest.mark.parametrize("n", [16, 17, 40])
def test_kernels_match_scalar_rules_at_larger_n(n):
    rng = np.random.default_rng(300 + n)
    values = np.concatenate([_random_batch(rng, 40, n), rng.choice(TIE_GRID, (40, n))])
    left = rng.random(values.shape) < 0.5
    t_c = 0.35
    g_mx, g_sm = batch_gcsod_delays(values, left)
    cs_mx, cs_sm = batch_cs_delays(values)
    csd_mx, csd_sm = batch_csd_delays(values, t_c)
    csod_mx, csod_sm = batch_csod_delays(values)
    for r in range(values.shape[0]):
        profile = TypeProfile(tuple(values[r]))
        side = tuple("L" if flag else "R" for flag in left[r])
        for mx, sm, out in (
            (g_mx, g_sm, gcsod_oracle(profile, Grouping(side))),
            (cs_mx, cs_sm, cs_allocate(profile)),
            (csd_mx, csd_sm, csd_allocate(profile, t_c)),
            (csod_mx, csod_sm, csod_allocate(profile)),
        ):
            assert mx[r] == max(out.times)
            assert sm[r] == pytest.approx(sum(out.times), abs=1e-12)


# ---------------------------------------------------------------- estimation


def test_estimate_deterministic_bits():
    config = SimulationConfig("gcsod", UNIFORM, n=3, samples=40_000, seed=99)
    assert estimate(config) == estimate(config)


def test_estimate_chunking_invariant(monkeypatch):
    import bugshare.simulate as sim

    config = SimulationConfig("cs", UNIFORM, n=2, samples=30_000, seed=5)
    full = estimate(config)
    monkeypatch.setattr(sim, "_CHUNK_ROWS", 7_000)
    assert estimate(config) == full


@pytest.mark.parametrize("mechanism", ["csod", "gcsod"])
def test_estimate_chunk_size_moves_means_only_by_rounding(monkeypatch, mechanism):
    # chunks read the value and coin streams in the same order, so only the
    # order of the per-chunk sums can differ
    import bugshare.simulate as sim

    config = SimulationConfig(mechanism, UNIFORM, n=5, samples=30_000, seed=15)
    full = estimate(config)
    monkeypatch.setattr(sim, "_CHUNK_ROWS", 7_000)
    chunked = estimate(config)
    for field in (
        "expected_max_delay",
        "expected_sum_delay",
        "standard_error_max",
        "standard_error_sum",
    ):
        assert getattr(chunked, field) == pytest.approx(getattr(full, field), abs=1e-12)


def _fresh_arrays_estimate(config):
    """``estimate`` as a plain loop: ``draw`` and the kernels on new arrays per chunk."""
    import bugshare.simulate as sim

    value_seed, coin_seed = np.random.SeedSequence(config.seed).spawn(2)
    rng_values = np.random.default_rng(value_seed)
    rng_coins = np.random.default_rng(coin_seed)
    total = np.zeros(2)
    total_sq = np.zeros(2)
    remaining = config.samples
    while remaining > 0:
        m = min(remaining, sim._CHUNK_ROWS, max(1, sim._CHUNK_VALUES // config.n))
        values = draw(config.spec, (m, config.n), rng_values)
        if config.mechanism == "cs":
            mx, sm = batch_cs_delays(values)
        elif config.mechanism == "csd":
            mx, sm = batch_csd_delays(values, config.t_c)
        elif config.mechanism == "csod":
            mx, sm = batch_csod_delays(values)
        else:
            mx, sm = batch_gcsod_delays(values, rng_coins.random((m, config.n)) < 0.5)
        total += (mx.sum(), sm.sum())
        total_sq += ((mx * mx).sum(), (sm * sm).sum())
        remaining -= m
    count = config.samples
    mean = total / count
    stderr = np.sqrt(np.maximum(total_sq - count * mean**2, 0.0) / (count - 1) / count)
    return SimulationReport(
        float(mean[0]), float(mean[1]), float(stderr[0]), float(stderr[1]), count, config.seed
    )


# With 700-row chunks, 2,100 samples end on a chunk boundary and 2,357 end on
# a 257-row chunk, which must see none of the rows that the workspace held
# for the chunk before it.
@pytest.mark.parametrize("samples", [2_100, 2_357])
@pytest.mark.parametrize(
    "mechanism, t_c", [("cs", None), ("csd", 0.35), ("csod", None), ("gcsod", None)]
)
def test_estimate_workspace_is_invisible(monkeypatch, mechanism, t_c, samples):
    import bugshare.simulate as sim

    monkeypatch.setattr(sim, "_CHUNK_ROWS", 700)
    spec = DistributionSpec.parse("N(0.5,0.4)")
    config = SimulationConfig(mechanism, spec, n=5, samples=samples, seed=31, t_c=t_c)
    assert estimate(config) == _fresh_arrays_estimate(config)


def test_kernels_sharing_a_workspace_keep_earlier_results_and_inputs():
    rng = np.random.default_rng(41)
    first = (_random_batch(rng, 300, 6), rng.random((300, 6)) < 0.5)
    second = (_random_batch(rng, 200, 6), rng.random((200, 6)) < 0.5)
    kept_inputs = [a.copy() for a in first + second]
    kernels = (
        lambda v, g, *work: batch_cs_delays(v, *work),
        lambda v, g, *work: batch_csd_delays(v, 0.35, *work),
        lambda v, g, *work: batch_csod_delays(v, *work),
        batch_gcsod_delays,
    )
    for kernel in kernels:
        work = _Workspace()
        got_first = kernel(*first, work)
        kept_first = [a.copy() for a in got_first]
        got_second = kernel(*second, work)
        for got, kept, fresh in zip(got_first, kept_first, kernel(*first)):
            assert np.array_equal(got, kept)
            assert np.array_equal(got, fresh)
        for got, fresh in zip(got_second, kernel(*second)):
            assert np.array_equal(got, fresh)
        for a, kept in zip(first + second, kept_inputs):
            assert np.array_equal(a, kept)


def _recorded_workspace(monkeypatch, config):
    """The one ``_Workspace`` that ``estimate(config)`` made."""
    import bugshare.simulate as sim

    made = []

    class Recording(sim._Workspace):
        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(sim, "_Workspace", Recording)
    estimate(config)
    (work,) = made
    return work._flat


def test_group_rule_working_set_fits_the_value_budget(monkeypatch):
    import bugshare.simulate as sim

    # 20,000 samples at n = 10 are two full chunks of 8,192 rows and a short one
    config = SimulationConfig("gcsod", UNIFORM, n=10, samples=20_000, seed=3)
    flat = _recorded_workspace(monkeypatch, config)
    assert "negated" not in flat
    assert flat["draws"].size == sim._CHUNK_VALUES
    # a chunk of V = _CHUNK_VALUES values (8,192 rows of 10) holds four float
    # buffers ("draws", "signed", "products", "slack"), five one-byte ones
    # ("flips", "left", "meets", "other", "ranks") and the sort's float row
    # ("low"): 4*8*V + 5*V + 8*V/10 = 3,096,576 bytes, 3.0 MiB.  Five float
    # buffers of 16,384 rows, a fifth one "negated", took 7,503,872 (7.2 MiB).
    budget = (4 * 8 + 5) * sim._CHUNK_VALUES + 8 * sim._CHUNK_VALUES // 10
    assert sum(a.nbytes for a in flat.values()) <= budget


def test_small_estimates_keep_full_row_chunks(monkeypatch):
    config = SimulationConfig("gcsod", UNIFORM, n=2, samples=20_000, seed=3)
    flat = _recorded_workspace(monkeypatch, config)
    assert flat["draws"].shape == (2 * 16_384,)
    assert flat["low"].shape == (16_384,)


# ------------------------------------------------ cs and csd in uniform space

# ``ndtri`` makes this sampler non-monotone around csd(t_c = 0.2)'s tenth
# price, 0.499999999999: PINNED_U maps to exactly the price, the next four
# doubles map below it and the fifth maps to it again.
PINNED = DistributionSpec("truncnorm", mu=0.6484032201041083, sigma=0.1448215646457347)
PINNED_U = 0.1539107778657308
EXACTNESS_PRIORS = [
    UNIFORM,
    DistributionSpec.parse("U(0.25,1.75)"),
    DistributionSpec.parse("N(0.5,0.2)"),
    DistributionSpec.parse("N(0.5,0.4)"),
    PINNED,
]
SHARING_RULES = [("cs", None), ("csd", 0.0), ("csd", 0.35), ("csd", 0.7), ("csd", 1.0)]


@pytest.mark.parametrize("spec", EXACTNESS_PRIORS, ids=lambda s: s.label())
@pytest.mark.parametrize("mechanism, t_c", SHARING_RULES)
def test_uniform_space_estimate_equals_value_path(monkeypatch, spec, mechanism, t_c):
    import bugshare.simulate as sim

    monkeypatch.setattr(sim, "_CHUNK_ROWS", 700)
    for n in (1, 2, 5, 10, 12):
        config = SimulationConfig(mechanism, spec, n=n, samples=2_357, seed=50 + n, t_c=t_c)
        assert estimate(config) == _fresh_arrays_estimate(config)


@pytest.mark.parametrize("spec", EXACTNESS_PRIORS, ids=lambda s: s.label())
def test_uniform_space_fallback_rows_equal_value_path(monkeypatch, spec):
    # a guard band ten million times wider sends many rows to the value path
    import bugshare.simulate as sim

    monkeypatch.setattr(sim, "_CHUNK_ROWS", 700)
    monkeypatch.setattr(sim, "PREIMAGE_BAND", 1e-2)
    fallback_rows = []

    def counted(prior, x):
        fallback_rows.append(x.shape[0])
        return _to_values(prior, x)

    monkeypatch.setattr(sim, "_to_values", counted)
    for mechanism, t_c in SHARING_RULES:
        for n in (1, 2, 5, 10, 12):
            config = SimulationConfig(mechanism, spec, n=n, samples=2_357, seed=70 + n, t_c=t_c)
            assert estimate(config) == _fresh_arrays_estimate(config)
    assert sum(fallback_rows) > 0


def test_uniform_space_kernel_on_the_non_monotone_doubles():
    import bugshare.simulate as sim

    t_c = 0.2
    lows = [np.nextafter(PINNED_U, 0.0), PINNED_U]
    for _ in range(5):
        lows.append(np.nextafter(lows[-1], 1.0))
    values_of_lows = _to_values(PINNED, np.array(lows))
    assert values_of_lows[1] == 0.499999999999
    assert (values_of_lows[[0, 2, 3, 4, 5]] < 0.499999999999).all()
    assert values_of_lows[6] == 0.499999999999
    # nine high uniforms and one of the doubles around PINNED_U per row
    uniforms = np.full((len(lows), 10), 0.9)
    uniforms[:, 4] = lows
    preimages = sim._price_preimages(PINNED, 10, t_c)
    assert (preimages.below[9] <= lows).all() and (lows < preimages.above[9]).all()
    got = batch_csd_delays(uniforms, t_c, preimages=preimages)
    want = batch_csd_delays(_to_values(PINNED, uniforms.copy()), t_c)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()
    # the tenth value meets its price on the pinned double and not on the next
    assert got[1][1] == 0.0 and got[1][2] > 0.0


@st.composite
def _priors(draw_):
    kind = draw_(st.sampled_from(["uniform", "uniform_shifted", "truncnorm"]))
    if kind == "uniform":
        return DistributionSpec("uniform", 0.0, draw_(st.floats(0.05, 3.0)))
    if kind == "uniform_shifted":
        lo = draw_(st.floats(0.01, 2.0))
        return DistributionSpec("uniform", lo, lo + draw_(st.floats(0.01, 3.0)))
    mu = draw_(st.floats(-0.5, 1.5))
    sigma = draw_(st.floats(0.003, 3.0))
    try:
        return DistributionSpec("truncnorm", mu=mu, sigma=sigma)
    except ValueError:  # no representable mass on [0, 1]
        return DistributionSpec("truncnorm", mu=0.5, sigma=sigma)


@settings(max_examples=40, deadline=None)
@given(
    spec=_priors(),
    n=st.integers(1, 12),
    t_c=st.sampled_from([0.0, 0.2, 0.35, 0.7, 1.0]),
)
@example(spec=PINNED, n=10, t_c=0.2)
def test_price_preimages_bracket_every_price(spec, n, t_c):
    """Within 2^14 doubles of each crossing, below the band misses the price and above meets it."""
    import bugshare.simulate as sim
    from bugshare.mechanisms import _prices

    preimages = sim._price_preimages(spec, n, t_c)
    with np.errstate(divide="ignore", invalid="ignore"):
        prices = _prices(np.arange(1, n + 1)[:, None], np.array([t_c]))[:, 0]
    last = np.nextafter(1.0, 0.0).view(np.int64)
    steps = np.arange(-(2**14), 2**14 + 1)
    for q, below, above in zip(prices, preimages.below[:, 0], preimages.above[:, 0]):
        if np.isnan(q):
            assert below == above == 1.0
            continue
        for centre in (below, above):
            bits = np.unique(np.clip(np.float64(centre).view(np.int64) + steps, 0, last))
            u = bits.view(np.float64)
            v = _to_values(spec, u.copy())
            assert (v[u < below] < q).all()
            assert (v[u >= above] >= q).all()


def test_cs_uniform_two_agents_analytic_anchor():
    # sale happens only when both values clear 0.5, so the expected max
    # delay is 0.75 and the expected total 1.50
    report = estimate(SimulationConfig("cs", UNIFORM, n=2, samples=200_000, seed=1))
    assert abs(report.expected_max_delay - 0.75) <= 3 * report.standard_error_max
    assert abs(report.expected_sum_delay - 1.50) <= 3 * report.standard_error_sum


def test_cs_uniform_single_agent_never_sells():
    report = estimate(SimulationConfig("cs", UNIFORM, n=1, samples=50_000, seed=2))
    assert report.expected_max_delay == 1.0
    assert report.expected_sum_delay == 1.0
    assert report.standard_error_max == 0.0


@pytest.mark.parametrize("label", ["U(0,1)", "N(0.5,0.2)", "N(0.5,0.4)"])
def test_single_agent_row_never_sells_under_unit_support(label):
    # A lone agent buys only at value >= 1 - 1e-12; every table prior puts all
    # its mass in [0, 1], so the exact n=1 delay is 1.00 (the premise of the
    # derived N(0.5,0.4) n=1 expectation in helpers.DERIVED_SIM_EXPECTATIONS).
    spec = DistributionSpec.parse(label)
    assert cdf(spec, 1.0) == 1.0
    for mech in ("cs", "gcsod"):
        report = estimate(SimulationConfig(mech, spec, n=1, samples=50_000, seed=6))
        assert report.expected_max_delay == 1.0
        assert report.expected_sum_delay == 1.0
        assert report.standard_error_max == 0.0
        assert report.standard_error_sum == 0.0


def test_single_agent_max_equals_sum_for_every_mechanism():
    for mech in ("cs", "csod", "gcsod"):
        report = estimate(SimulationConfig(mech, UNIFORM, n=1, samples=20_000, seed=3))
        assert report.expected_max_delay == report.expected_sum_delay


def test_gcsod_exact_grouping_anchor_two_agents():
    # exact over groupings: max delay 0.875, sum 1.75 in closed form
    config = SimulationConfig(
        "gcsod", UNIFORM, n=2, samples=60_000, seed=4, mode="exact_grouping"
    )
    report = estimate(config)
    assert abs(report.expected_max_delay - 0.875) <= 3 * report.standard_error_max + 1e-4
    assert abs(report.expected_sum_delay - 1.75) <= 3 * report.standard_error_sum + 1e-4


def test_gcsod_exact_grouping_matches_enumeration_per_profile():
    rng = np.random.default_rng(8)
    from bugshare.simulate import _exact_grouping_delays

    values = rng.random((50, 4))
    mx, sm = _exact_grouping_delays(values)
    for row in range(50):
        exp = gcsod_expected(TypeProfile(tuple(values[row])))
        assert mx[row] == pytest.approx(exp.max_delay, abs=1e-12)
        assert sm[row] == pytest.approx(exp.sum_delay, abs=1e-12)


@pytest.mark.parametrize("n", range(1, 13))
def test_gcsod_exact_grouping_blocks_match_gcsod_expected(n):
    # the estimate stacks up to 4096 // 2^n profiles into one sorted-rank
    # table; 45 rows is no multiple of any block size above 1, so the last
    # block is short, and every profile must get its own figures exactly
    from bugshare.simulate import _exact_grouping_delays

    rng = np.random.default_rng(100 + n)
    for values in (rng.random((45, n)), rng.choice(TIE_GRID, (45, n))):
        mx, sm = _exact_grouping_delays(values)
        for row in range(45):
            exp = gcsod_expected(TypeProfile(tuple(values[row])))
            assert (mx[row], sm[row]) == (exp.max_delay, exp.sum_delay), row


def test_gcsod_modes_agree_within_noise():
    exact = estimate(
        SimulationConfig("gcsod", UNIFORM, n=6, samples=20_000, seed=6, mode="exact_grouping")
    )
    monte = estimate(SimulationConfig("gcsod", UNIFORM, n=6, samples=200_000, seed=7))
    combined = np.hypot(exact.standard_error_max, monte.standard_error_max)
    assert abs(exact.expected_max_delay - monte.expected_max_delay) <= 3 * combined
    combined = np.hypot(exact.standard_error_sum, monte.standard_error_sum)
    assert abs(exact.expected_sum_delay - monte.expected_sum_delay) <= 3 * combined


def test_config_validation():
    with pytest.raises(ValueError, match="^unknown mechanism 'vcg'$"):
        SimulationConfig("vcg", UNIFORM, n=2, samples=10, seed=0)
    with pytest.raises(ValueError):
        SimulationConfig("cs", UNIFORM, n=2, samples=0, seed=0)
    with pytest.raises(ValueError, match=r"^csd needs a deadline t_c in \[0, 1\]$"):
        SimulationConfig("csd", UNIFORM, n=2, samples=10, seed=0)  # missing t_c
    with pytest.raises(ValueError, match="^exact_grouping mode only applies to gcsod$"):
        SimulationConfig("cs", UNIFORM, n=2, samples=10, seed=0, mode="exact_grouping")
    with pytest.raises(ValueError, match="^unknown mode 'exact'$"):
        SimulationConfig("gcsod", UNIFORM, n=2, samples=10, seed=0, mode="exact")
    with pytest.raises(ValueError):
        SimulationConfig("gcsod", UNIFORM, n=20, samples=10, seed=0, mode="exact_grouping")
    # the library's one cap check, with its one message
    cap = (
        r"^exact grouping enumeration capped at n=16; got n=17 "
        r"\(use Monte Carlo sampling instead\)$"
    )
    with pytest.raises(ValueError, match=cap):
        SimulationConfig("gcsod", UNIFORM, n=17, samples=10, seed=0, mode="exact_grouping")
    # a prior whose k * v can overflow, which would put deadlines at 0
    for n, hi in ((2, 1e308), (3, sys.float_info.max / 3), (1, sys.float_info.max)):
        with pytest.raises(ValueError, match="hi must be finite"):
            SimulationConfig("csod", DistributionSpec("uniform", 0.0, hi), n=n, samples=10, seed=0)


@pytest.mark.parametrize("count", [2.5, 2.0])
@pytest.mark.parametrize("field", ["n", "samples"])
def test_config_takes_integer_counts(field, count):
    # n = 2.5 used to build, and ``estimate`` then failed inside numpy
    counts = {"n": 2, "samples": 100, field: count}
    with pytest.raises(TypeError, match=f"^{field} must be an integer"):
        SimulationConfig("gcsod", UNIFORM, seed=0, **counts)
    # numpy integers are counts, stored as ints
    config = SimulationConfig("gcsod", UNIFORM, n=np.int64(2), samples=np.uint8(100), seed=0)
    assert type(config.n) is int and type(config.samples) is int
    plain = SimulationConfig("gcsod", UNIFORM, n=2, samples=100, seed=0)
    assert estimate(config) == estimate(plain)


@pytest.mark.parametrize(
    "seed, error, message",
    [
        (2.5, TypeError, "seed must be an integer, got 2.5"),
        (-1, ValueError, "seed must be at least 0"),
        (True, TypeError, "seed must be an integer, got True"),
    ],
    ids=["fraction", "negative", "bool"],
)
def test_seed_is_a_non_negative_integer(seed, error, message):
    # 2.5 built a config and -1 failed inside numpy; True ran and reported seed True
    for call in (
        lambda: SimulationConfig("cs", UNIFORM, n=2, samples=10, seed=seed),
        lambda: reproduce_table(H=5, samples=10, seed=seed),
        lambda: gcsod_sample(TypeProfile((0.9, 0.8)), seed),
        lambda: sample(UNIFORM, 3, seed),
    ):
        with pytest.raises(error, match=f"^{message}$"):
            call()
    # 0 and numpy integers are seeds, stored as ints
    config = SimulationConfig("cs", UNIFORM, n=2, samples=10, seed=np.int64(0))
    assert type(config.seed) is int
    assert estimate(config) == estimate(dataclasses.replace(config, seed=0))


def test_config_needs_two_samples():
    # one sample reported standard errors of 0.0, which read as an exact value
    with pytest.raises(ValueError, match="^samples must be at least 2$"):
        SimulationConfig("gcsod", UNIFORM, n=5, samples=1, seed=0)
    report = estimate(SimulationConfig("gcsod", UNIFORM, n=5, samples=2, seed=0))
    assert report.samples_used == 2 and report.standard_error_sum > 0.0


@pytest.mark.parametrize("t_c", [float("nan"), -0.1, 1.5])
def test_config_rejects_a_deadline_outside_the_unit_interval(t_c):
    # one check, so the config says what ``csd_allocate`` says
    message = r"^deadline must lie in \[0, 1\], got "
    with pytest.raises(ValueError, match=message):
        SimulationConfig("csd", UNIFORM, n=2, samples=10, seed=0, t_c=t_c)
    with pytest.raises(ValueError, match=message):
        csd_allocate(TypeProfile((0.9, 0.8)), t_c)


@pytest.mark.parametrize("mechanism", ["cs", "csod", "gcsod"])
def test_config_rejects_deadline_for_rules_without_one(mechanism):
    with pytest.raises(ValueError, match=f"^t_c only applies to csd, not {mechanism}$"):
        SimulationConfig(mechanism, UNIFORM, n=2, samples=10, seed=0, t_c=0.5)


def test_estimate_calls_the_module_kernels(monkeypatch):
    # The benchmark's tracer counts rows by wrapping these kernels where they
    # are ``bugshare.simulate`` attributes; an estimate that called a copy
    # captured earlier would silently zero those metrics.
    calls = []
    for name in ("batch_cs_delays", "batch_gcsod_delays", "_exact_grouping_delays"):

        def counting(values, *args, _name=name, _real=getattr(simulate, name), **kwargs):
            calls.append((_name, values.shape[0]))
            return _real(values, *args, **kwargs)

        monkeypatch.setattr(simulate, name, counting)
    for mechanism, mode, n, kernel in (
        ("cs", "monte_carlo", 5, "batch_cs_delays"),
        ("gcsod", "monte_carlo", 10, "batch_gcsod_delays"),
        ("gcsod", "exact_grouping", 3, "_exact_grouping_delays"),
    ):
        calls.clear()
        samples = 40_000
        estimate(SimulationConfig(mechanism, UNIFORM, n=n, samples=samples, seed=0, mode=mode))
        rows = min(simulate._CHUNK_ROWS, simulate._CHUNK_VALUES // n)
        assert [name for name, _ in calls] == [kernel] * math.ceil(samples / rows), mechanism
        assert sum(size for _, size in calls) == samples


def test_csd_estimation_uses_deadline():
    report = estimate(SimulationConfig("csd", UNIFORM, n=2, samples=50_000, seed=9, t_c=0.5))
    # failed sales leave everyone at 0.5, successful ones leave at most 0.5
    assert report.expected_max_delay <= 0.5 + 1e-12


# -------------------------------------------------------------------- table


def test_reproduce_table_layout():
    records = reproduce_table(H=10, samples=2_000, seed=11)
    assert len(records) == 12 * 6
    keys = {(r.distribution, r.n, r.mechanism, r.objective) for r in records}
    assert len(keys) == 72
    for row in records:
        if row.mechanism == "lower_bound":
            assert row.stderr is None
        else:
            assert row.stderr is not None and row.stderr >= 0.0
        assert 0.0 <= row.value <= 10.0 + 1e-9


def test_lower_bounds_below_simulated_values_small_run():
    records = reproduce_table(H=25, samples=30_000, seed=12)
    table = {(r.distribution, r.n, r.mechanism, r.objective): r for r in records}
    for label in ("U(0,1)", "N(0.5,0.2)", "N(0.5,0.4)"):
        for n in (1, 2, 5, 10):
            for objective in ("max", "sum"):
                bound = table[(label, n, "lower_bound", objective)].value
                cs_row = table[(label, n, "cs", objective)]
                slack = 3 * cs_row.stderr + 1e-9
                assert bound <= cs_row.value + slack


def test_table_csv_and_json_round_trip(capsys):
    records = reproduce_table(H=5, samples=1_000, seed=13)
    parsed = table_from_csv(table_to_csv(records))
    assert len(parsed) == len(records)
    for a, b in zip(parsed, records):
        assert (a.distribution, a.n, a.mechanism, a.objective) == (
            b.distribution,
            b.n,
            b.mechanism,
            b.objective,
        )
        assert a.value == pytest.approx(b.value, abs=1e-6)
    import json

    # the JSON path is the ``table`` command's, on the same grid
    assert run(["table", "--H", "5", "--samples", "1000", "--seed", "13", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [TableRow(**d) for d in payload] == records


def test_simulation_report_round_trip():
    report = estimate(SimulationConfig("cs", UNIFORM, n=2, samples=1_000, seed=14))
    assert SimulationReport(**dataclasses.asdict(report)) == report


def test_golden_table_regression():
    # deterministic small-sample table frozen in the repository
    records = reproduce_table(H=30, samples=20_000, seed=123)
    golden = table_from_csv(GOLDEN.read_text())
    assert len(golden) == len(records)
    for fresh, kept in zip(records, golden):
        assert (fresh.distribution, fresh.n, fresh.mechanism, fresh.objective) == (
            kept.distribution,
            kept.n,
            kept.mechanism,
            kept.objective,
        )
        assert fresh.value == pytest.approx(kept.value, abs=1e-6)
        if kept.stderr is None:
            assert fresh.stderr is None
        else:
            assert fresh.stderr == pytest.approx(kept.stderr, abs=1e-6)
