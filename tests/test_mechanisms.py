"""Allocation rules: worked examples, invariants, and cross-checks."""

import dataclasses
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bugshare import simulate
from bugshare.mechanisms import (
    Grouping,
    Outcome,
    TypeProfile,
    cs_allocate,
    csd_allocate,
    csod_allocate,
    gcsod_allocate,
    gcsod_expected,
    gcsod_realizations,
    gcsod_sample,
    grouping_table,
    optimal_deadline,
    _sorted_groupings,
    _sorted_table,
)
from bugshare.simulate import _Workspace, _sort_columns, batch_csod_delays, batch_gcsod_delays

from helpers import (
    EXAMPLE_PROFILE,
    TIE_GRID,
    brute_force_sharing_set,
    enumerate_gcsod,
    gcsod_expectation_oracle,
    gcsod_oracle,
    random_profiles,
)

values_strategy = st.lists(
    st.floats(min_value=0.0, max_value=1.5, allow_nan=False), min_size=1, max_size=8
).map(tuple)


# ---------------------------------------------------------------- type checks


def test_profile_rejects_empty_and_negative():
    with pytest.raises(ValueError):
        TypeProfile(())
    with pytest.raises(ValueError):
        TypeProfile((0.5, -0.1))
    with pytest.raises(ValueError):
        TypeProfile((float("nan"),))
    # k * v overflowed to inf, the deadline to 0, and the bug went unsold
    # with everyone released at time 0 for free
    big = sys.float_info.max
    for values in ((1e308, 1e308), (big / 3,) * 3, (0.5, 0.6, big / 2), (big,)):
        with pytest.raises(ValueError, match="finite and non-negative"):
            TypeProfile(values)


def test_profile_at_the_overflow_boundary_still_sells():
    # 2 * v is the largest double: the deadline is finite, subnormal and positive
    profile = TypeProfile((sys.float_info.max / 2,) * 2)
    t_star, k_star = optimal_deadline(profile)
    assert 0.0 < t_star < 1.0 and k_star == 2
    assert csod_allocate(profile) == Outcome((0.0, 0.0), (0.5, 0.5))
    assert all(out.sold for out in gcsod_realizations(profile))
    assert sum(gcsod_expected(profile).payments) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("bad", [float("nan"), -1.0, float("inf"), 1e308])
def test_profile_replace_rejects_bad_value(bad):
    with pytest.raises(ValueError, match="finite and non-negative"):
        TypeProfile((0.5, 0.6)).replace(1, bad)


@pytest.mark.parametrize("agent", [-1, 3, -4])
def test_profile_replace_rejects_an_agent_out_of_range(agent):
    # -1 is a valid list index but no agent, and the error names both numbers
    profile = TypeProfile((0.9, 0.8, 0.26))
    with pytest.raises(IndexError, match=f"agent {agent} is out of range for 3 agents"):
        profile.replace(agent, 0.5)


@pytest.mark.parametrize("agent", [True, 1.5])
def test_profile_replace_rejects_an_agent_that_is_no_integer(agent):
    # True used to replace agent 1, and 1.5 reached Python's "list indices must be integers"
    with pytest.raises(TypeError, match=f"agent must be an integer, got {agent!r}"):
        TypeProfile((0.9, 0.8)).replace(agent, 0.5)


def test_profile_replace_equals_a_fresh_profile():
    profile = TypeProfile((0.5, 0.6, 0.7))
    for agent, value in ((1, 1), (0, np.float64(0.25)), (2, 0.0)):
        replaced = profile.replace(agent, value)
        values = list(profile.values)
        values[agent] = value
        assert replaced == TypeProfile(tuple(values))
        assert hash(replaced) == hash(TypeProfile(tuple(values)))
        assert all(type(v) is float for v in replaced.values)
    assert profile.values == (0.5, 0.6, 0.7)


def test_outcome_invariants_enforced():
    with pytest.raises(ValueError):
        Outcome((0.0, 1.2), (0.5, 0.5))
    with pytest.raises(ValueError):
        Outcome((0.0,), (0.7,))  # payments must total 1 or all be 0
    with pytest.raises(ValueError):
        Outcome((1.0,), (0.2,))
    nan = float("nan")
    with pytest.raises(ValueError, match="non-negative"):
        Outcome((0.0,), (nan,))  # NaN is no payment, nor does it total 1
    with pytest.raises(ValueError, match="non-negative"):
        Outcome((0.0, 0.0), (nan, 1.0))


def test_outcome_reads_the_sale_off_its_payments():
    # two fields, no sold argument: a run sells exactly when it charges someone
    assert [f.name for f in dataclasses.fields(Outcome)] == ["times", "payments"]
    assert not Outcome((1.0, 1.0), (0.0, -0.0)).sold
    rng = np.random.default_rng(23)
    profiles = [EXAMPLE_PROFILE, TypeProfile((0.0, 0.0, 0.0)), TypeProfile((1.0,))]
    profiles += [p for n in (2, 5, 8) for p in _value_kinds(rng, n)]
    seen = set()
    for profile in profiles:
        for out in (
            cs_allocate(profile),
            csd_allocate(profile, 0.0),
            csd_allocate(profile, 0.35),
            csod_allocate(profile),
            *gcsod_realizations(profile),
        ):
            assert out.sold == any(out.payments), (profile, out)
            assert out == Outcome(out.times, out.payments)
            seen.add(out.sold)
    assert seen == {True, False}


def test_grouping_labels_validated():
    with pytest.raises(ValueError):
        Grouping(("L", "X"))
    assert Grouping.from_string("lrl").side == ("L", "R", "L")


# ---------------------------------------------------------------- column sort


def test_sort_columns_sorts_every_zero_one_column():
    # By the 0-1 principle a comparator network sorts every input if it sorts
    # every 0/1 input, so this proves the pruned network for each n
    for n in range(1, 17):
        columns = ((np.arange(2**n) >> np.arange(n)[:, None]) & 1).astype(float)
        expected = np.sort(columns, axis=0)
        assert np.array_equal(_sort_columns(columns, _Workspace()), expected), n


# The group rule sorts values with its right side negated, so its columns
# hold ties and both 0.0 and -0.0, which the network may return in another
# order or with traded signs than np.sort.  Its outputs must not show it.
def test_group_rows_match_np_sort_bit_for_bit():
    rng = np.random.default_rng(21)
    for n in range(1, 21):
        values = rng.choice(TIE_GRID, (400, n))
        left = rng.random((400, n)) < 0.5
        network = batch_gcsod_delays(values, left)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulate, "_sort_columns", lambda a, work: np.sort(a, axis=0))
            reference = batch_gcsod_delays(values, left)
        for got, want in zip(network, reference):
            assert got.tobytes() == want.tobytes(), n


# ---------------------------------------------------------------- cs_allocate


def test_cs_example_profile_brute_force():
    # K from its definition: k=2 (0.8 >= 0.5) and k=4 (all >= 0.25) qualify,
    # so the maximal set has all four agents sharing at 0.25.
    members = brute_force_sharing_set(EXAMPLE_PROFILE.values)
    assert members == [2, 4]
    out = cs_allocate(EXAMPLE_PROFILE)
    assert out == Outcome((0.0, 0.0, 0.0, 0.0), (0.25, 0.25, 0.25, 0.25))


def test_cs_all_zero():
    out = cs_allocate(TypeProfile((0.0, 0.0, 0.0)))
    assert out == Outcome((1.0, 1.0, 1.0), (0.0, 0.0, 0.0))


def test_cs_single_buyer():
    # k=1 needs a value of 1; k=2 needs both at 0.5.
    out = cs_allocate(TypeProfile((1.0, 0.3)))
    assert out == Outcome((0.0, 1.0), (1.0, 0.0))


@given(values_strategy)
@settings(max_examples=200, deadline=None)
def test_cs_matches_brute_force_sharing_set(values):
    profile = TypeProfile(values)
    members = brute_force_sharing_set(values)
    out = cs_allocate(profile)
    if not members:
        assert not out.sold
    else:
        k_star = max(members)
        assert out.sold
        assert sum(1 for p in out.payments if p > 0) == k_star
        assert all(p in (0.0, 1.0 / k_star) for p in out.payments)


# --------------------------------------------------------------- csd_allocate


def test_csd_example_deadline_09():
    out = csd_allocate(EXAMPLE_PROFILE, 0.9)
    assert out == Outcome((0.0, 0.0, 0.9, 0.9), (0.5, 0.5, 0.0, 0.0))


def test_csd_example_deadline_07_better_for_free_riders():
    out = csd_allocate(EXAMPLE_PROFILE, 0.7)
    assert out == Outcome((0.0, 0.0, 0.7, 0.7), (0.5, 0.5, 0.0, 0.0))


def test_csd_example_deadline_05_fails():
    out = csd_allocate(EXAMPLE_PROFILE, 0.5)
    assert out == Outcome((0.5, 0.5, 0.5, 0.5), (0.0, 0.0, 0.0, 0.0))


def test_csd_zero_deadline_never_sells():
    out = csd_allocate(TypeProfile((5.0, 2.0)), 0.0)
    assert out == Outcome((0.0, 0.0), (0.0, 0.0))


def test_csd_rejects_bad_deadline():
    with pytest.raises(ValueError):
        csd_allocate(EXAMPLE_PROFILE, 1.5)
    with pytest.raises(ValueError):
        csd_allocate(EXAMPLE_PROFILE, -0.1)


@given(values_strategy)
@settings(max_examples=200, deadline=None)
def test_cs_equals_csd_at_deadline_one(values):
    profile = TypeProfile(values)
    assert cs_allocate(profile) == csd_allocate(profile, 1.0)


def test_csd_equal_boundary_values_promote_the_sharing_set():
    # equal values can never straddle the payer cutoff: if the k-th and
    # (k+1)-th highest agree and k qualifies, k+1 qualifies too
    out = csd_allocate(TypeProfile((0.5, 0.5, 0.5)), 1.0)
    assert out.payments == (1.0 / 3, 1.0 / 3, 1.0 / 3)
    assert out.times == (0.0, 0.0, 0.0)


# ----------------------------------------------------------- optimal_deadline


def test_optimal_deadline_example_one():
    res = optimal_deadline(EXAMPLE_PROFILE)
    assert res.t_star == pytest.approx(0.625, abs=0)
    assert res.k_star == 2


def test_optimal_deadline_example_two():
    res = optimal_deadline(TypeProfile((0.9, 0.26, 0.26, 0.26)))
    assert res.t_star == pytest.approx(1.0 / (4 * 0.26), rel=1e-15)
    assert res.k_star == 4


def test_optimal_deadline_no_positive_values():
    assert optimal_deadline(TypeProfile((0.0, 0.0))) == (1.0, 0)


def test_optimal_deadline_brute_force_grid():
    # scan deadlines on a fine grid: the optimum is the earliest point where
    # the sharing set turns non-empty
    rng = np.random.default_rng(11)
    for profile in random_profiles(rng, 25, n_low=1, n_high=6):
        res = optimal_deadline(profile)
        grid = np.linspace(1e-4, 1.0, 2001)
        feasible = [t for t in grid if brute_force_sharing_set(profile.values, t)]
        if not feasible:
            assert res.k_star == 0 or res.t_star > grid[-2]
        else:
            assert res.t_star <= feasible[0] + 1e-3
            assert not brute_force_sharing_set(profile.values, max(res.t_star - 1e-3, 1e-6))


@given(values_strategy, st.integers(min_value=0, max_value=7), st.floats(0.0, 1.5))
@settings(max_examples=200, deadline=None)
def test_optimal_deadline_monotone_in_single_report(values, agent, bump):
    profile = TypeProfile(values)
    agent = agent % len(profile)
    raised = profile.replace(agent, profile.values[agent] + bump)
    assert optimal_deadline(raised).t_star <= optimal_deadline(profile).t_star


_deadline_values = st.one_of(st.sampled_from(TIE_GRID), st.floats(0.0, 1.0), st.floats(1.0, 1e9))
_deadline_profiles = st.integers(1, 12).flatmap(
    lambda n: st.one_of(st.lists(_deadline_values, min_size=n, max_size=n), st.just([0.0] * n))
)


@given(_deadline_profiles)
@settings(max_examples=300, deadline=None)
def test_csod_is_csd_at_the_min_of_reciprocals_deadline(values):
    profile = TypeProfile(tuple(values))
    deadline = optimal_deadline(profile)
    assert csod_allocate(profile) == csd_allocate(profile, deadline.t_star)
    # the deadline's definition: the least 1/(k*v_(k)) over positive values,
    # capped at 1; the rule computes it as 1/max(k*v_(k)) and must match it
    earliest = 1.0
    for k, v in enumerate(sorted(values, reverse=True), start=1):
        if v > 0.0:
            earliest = min(earliest, 1.0 / (k * v))
    assert deadline.t_star == earliest


# -------------------------------------------------------------- csod_allocate


def test_csod_example_one():
    out = csod_allocate(EXAMPLE_PROFILE)
    assert out == Outcome((0.0, 0.0, 0.625, 0.625), (0.5, 0.5, 0.0, 0.0))


def test_csod_example_two():
    out = csod_allocate(TypeProfile((0.9, 0.26, 0.26, 0.26)))
    assert out.sold
    assert out.times == (0.0, 0.0, 0.0, 0.0)
    assert out.payments == (0.25, 0.25, 0.25, 0.25)


def test_csod_all_zero():
    out = csod_allocate(TypeProfile((0.0, 0.0, 0.0)))
    assert out == Outcome((1.0, 1.0, 1.0), (0.0, 0.0, 0.0))


@given(values_strategy)
@settings(max_examples=300, deadline=None)
def test_csod_budget_balanced(values):
    out = csod_allocate(TypeProfile(values))
    if out.sold:
        assert abs(sum(out.payments) - 1.0) <= 1e-9
    else:
        assert all(p == 0.0 for p in out.payments)
        assert all(t == 1.0 for t in out.times)


def test_csod_large_values_meet_their_own_deadline_price():
    # With values far above the cost, the price 1/(k*t*) of a group at its own
    # optimal deadline can round one ulp above the value; an absolute 1e-12
    # slack is below that ulp and the sale failed with everyone released at
    # t* < 1 (678 of these 12,000 profiles).  The slack scales with the price.
    for k in (1, 2, 3):
        values = np.array([(v,) * k + (0.0,) for v in np.geomspace(1.5, 1e9, 4000)])
        mx, sm = batch_csod_delays(values)
        for row, profile in enumerate(values):
            out = csod_allocate(TypeProfile(tuple(profile)))
            assert out.sold or all(t == 1.0 for t in out.times), (profile, out)
            assert (mx[row], sm[row]) == (max(out.times), sum(out.times)), profile


# ------------------------------------------------------------- gcsod_allocate


def test_gcsod_example_split_one_three():
    out = gcsod_allocate(EXAMPLE_PROFILE, Grouping.from_string("LRRR"))
    assert out == Outcome((1.0,) * 4, (0.0,) * 4)


def test_gcsod_example_split_two_two():
    out = gcsod_allocate(EXAMPLE_PROFILE, Grouping.from_string("LLRR"))
    assert out == Outcome((0.0, 0.0, 0.625, 0.625), (0.5, 0.5, 0.0, 0.0))


def test_gcsod_all_zero():
    out = gcsod_allocate(TypeProfile((0.0, 0.0)), Grouping.from_string("LR"))
    assert out == Outcome((1.0, 1.0), (0.0, 0.0))


def test_gcsod_rejects_mismatched_grouping():
    with pytest.raises(ValueError):
        gcsod_allocate(EXAMPLE_PROFILE, Grouping.from_string("LR"))


def test_gcsod_tie_prefers_left_group():
    # identical groups tie on their optimal deadline 0.625; the left pair buys
    out = gcsod_allocate(TypeProfile((0.9, 0.8, 0.9, 0.8)), Grouping.from_string("LLRR"))
    assert out.payments == (0.5, 0.5, 0.0, 0.0)
    assert out.times == (0.0, 0.0, 0.625, 0.625)


@given(values_strategy, st.integers(min_value=0, max_value=2**8 - 1))
@settings(max_examples=300, deadline=None)
def test_gcsod_budget_balanced_every_realization(values, code):
    profile = TypeProfile(values)
    side = tuple("L" if (code >> i) & 1 else "R" for i in range(len(profile)))
    out = gcsod_allocate(profile, Grouping(side))
    if out.sold:
        assert abs(sum(out.payments) - 1.0) <= 1e-9
    else:
        assert all(p == 0.0 for p in out.payments)
        assert all(t == 1.0 for t in out.times)


# --------------------------------------------------------------- gcsod_sample


def test_gcsod_sample_deterministic():
    first = gcsod_sample(EXAMPLE_PROFILE, seed=42)
    second = gcsod_sample(EXAMPLE_PROFILE, seed=42)
    assert first == second
    # agent i is on the left exactly when the i-th uniform of the seed's
    # stream is below 1/2, so swapping the sides would fail here
    rng = np.random.default_rng(17)
    for n in range(1, 11):
        for profile in _value_kinds(rng, n):
            for seed in (0, 5, 42, 2024):
                coins = np.random.default_rng(seed).random(n)
                grouping = Grouping(tuple("L" if c < 0.5 else "R" for c in coins))
                assert gcsod_sample(profile, seed) == gcsod_allocate(profile, grouping)


def test_gcsod_sample_all_zero_never_sells():
    for seed in range(5):
        assert not gcsod_sample(TypeProfile((0.0, 0.0, 0.0)), seed).sold


def test_gcsod_single_agent_full_value():
    # whichever side the agent lands on, the empty side has deadline 1 and
    # the agent buys alone at price 1
    for grouping in (Grouping(("L",)), Grouping(("R",))):
        out = gcsod_allocate(TypeProfile((1.0,)), grouping)
        assert out == Outcome((0.0,), (1.0,))


# ------------------------------------------------------------- gcsod_expected


def test_gcsod_expected_golden_example():
    exp = gcsod_expected(EXAMPLE_PROFILE)
    # frozen from the brute-force grouping enumeration
    assert exp.max_delay == pytest.approx(0.828125, abs=1e-15)
    assert exp.sum_delay == pytest.approx(2.5625, abs=1e-15)
    assert exp.times == pytest.approx((0.5, 0.5, 0.78125, 0.78125), abs=1e-15)
    assert exp.payments == pytest.approx((0.21875, 0.21875, 0.03125, 0.03125), abs=1e-15)


def test_gcsod_expected_trivial_profiles():
    zeros = gcsod_expected(TypeProfile((0.0, 0.0)))
    assert (zeros.max_delay, zeros.sum_delay) == (1.0, 2.0)
    solo = gcsod_expected(TypeProfile((1.0,)))
    assert solo.max_delay == 0.0
    assert solo.payments == (1.0,)


def test_gcsod_expected_matches_scalar_enumeration():
    rng = np.random.default_rng(7)
    for profile in random_profiles(rng, 20, n_low=1, n_high=6, hi=1.2):
        times, payments, mx, sm = gcsod_expectation_oracle(profile)
        exp = gcsod_expected(profile)
        np.testing.assert_allclose(exp.times, times, atol=1e-12)
        np.testing.assert_allclose(exp.payments, payments, atol=1e-12)
        assert exp.max_delay == pytest.approx(mx, abs=1e-12)
        assert exp.sum_delay == pytest.approx(sm, abs=1e-12)


def _value_kinds(rng, n):
    """One profile each of uniform, ``TIE_GRID`` and e^[0,20]-scaled values."""
    return [
        TypeProfile(tuple(rng.random(n) * 1.2)),
        TypeProfile(tuple(rng.choice(TIE_GRID, n))),
        TypeProfile(tuple(np.exp(rng.random(n) * 20.0) * rng.random(n))),
    ]


def _side(code, n):
    return tuple("L" if (code >> i) & 1 else "R" for i in range(n))


def test_gcsod_expected_agrees_with_allocate_per_grouping():
    # every grouping of the sorted-space table and of the one-grouping rule
    # must replicate the scalar oracle exactly; past six agents the rule is
    # checked on random groupings, past the enumeration cap too, since a
    # single grouping never enumerates the 2^n of them
    rng = np.random.default_rng(3)
    for n in range(1, 7):
        for profile in _value_kinds(rng, n):
            values = np.array(profile.values)
            order = np.argsort(-values, kind="stable")
            times, payments = _sorted_table(values[order], *_sorted_groupings(n))
            ranked = TypeProfile(tuple(values[order]))
            for code in range(2**n):
                grouping = Grouping(_side(code, n))
                # column c puts sorted position j on the left when bit j of c is set
                want = gcsod_oracle(ranked, grouping)
                assert tuple(times[:, code]) == want.times
                assert tuple(payments[:, code]) == want.payments
                assert gcsod_allocate(profile, grouping) == gcsod_oracle(profile, grouping)
    for n in (*range(7, 13), 17, 24, 40):
        for profile in _value_kinds(rng, n):
            for code in rng.integers(2**n, size=20):
                grouping = Grouping(_side(int(code), n))
                assert gcsod_allocate(profile, grouping) == gcsod_oracle(profile, grouping)


CAP_MESSAGE = (
    r"^exact grouping enumeration capped at n=16; got n=17 \(use Monte Carlo sampling instead\)$"
)


def test_gcsod_expected_rejects_large_n():
    with pytest.raises(ValueError, match=CAP_MESSAGE):
        gcsod_expected(TypeProfile((0.5,) * 17))
    exp = gcsod_expected(TypeProfile((0.5,) * 16))
    assert len(exp.times) == 16


def test_gcsod_realizations_match_scalar_enumeration_and_cap():
    rng = np.random.default_rng(11)
    profiles = [EXAMPLE_PROFILE, *random_profiles(rng, 10, n_low=1, n_high=6)]
    profiles += [p for n in (1, 4, 6) for p in _value_kinds(rng, n)]
    for profile in profiles:
        realizations = gcsod_realizations(profile)
        assert len(realizations) == 2 ** len(profile)
        times, payments = grouping_table(np.array(profile.values))
        # realization a puts agent i on the left when bit i of a is set
        for grouping, out in enumerate_gcsod(profile):
            code = sum(1 << i for i, s in enumerate(grouping.side) if s == "L")
            assert realizations[code] == out
            assert (tuple(times[code]), tuple(payments[code])) == (out.times, out.payments)
    with pytest.raises(ValueError, match=CAP_MESSAGE):
        gcsod_realizations(TypeProfile((0.5,) * 17))
    assert len(gcsod_realizations(TypeProfile((0.5,) * 3))) == 8


def test_every_grouping_enumeration_refuses_past_the_cap():
    # the cap is checked where the (n, 2^n) grouping arrays are built, so the
    # tables and the exact-grouping estimate refuse 17 agents too, and the
    # failed build leaves nothing in the per-n cache
    from bugshare.simulate import _exact_grouping_delays

    _sorted_groupings.cache_clear()
    with pytest.raises(ValueError, match=CAP_MESSAGE):
        _sorted_groupings(17)
    with pytest.raises(ValueError, match=CAP_MESSAGE):
        grouping_table(np.full(17, 0.5))
    with pytest.raises(ValueError, match=CAP_MESSAGE):
        _exact_grouping_delays(np.full((1, 17), 0.5))
    assert _sorted_groupings.cache_info().currsize == 0


# ------------------------------------------------------------ shared invariants


@given(values_strategy)
@settings(max_examples=200, deadline=None)
def test_all_rules_times_in_range_and_payments_nonnegative(values):
    profile = TypeProfile(values)
    outcomes = [
        cs_allocate(profile),
        csd_allocate(profile, 0.6),
        csod_allocate(profile),
        gcsod_sample(profile, seed=5),
    ]
    for out in outcomes:
        assert all(0.0 <= t <= 1.0 for t in out.times)
        assert all(p >= 0.0 for p in out.payments)


@given(values_strategy)
@settings(max_examples=200, deadline=None)
def test_truthful_utility_never_negative(values):
    # outcome-wise individual rationality across all rules
    profile = TypeProfile(values)
    for out in (
        cs_allocate(profile),
        csd_allocate(profile, 0.8),
        csod_allocate(profile),
        gcsod_sample(profile, seed=9),
    ):
        for v, t, p in zip(profile.values, out.times, out.payments):
            assert (1.0 - t) * v - p >= -1e-9
