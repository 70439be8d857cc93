"""LP construction, the solver contract, and the two delay bounds."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bugshare.distributions import DistributionSpec, discretize
from bugshare.lowerbound import (
    FEASIBILITY_TOL,
    _arrays,
    _max_delay_search,
    _solve,
    build_common_constraints,
    max_delay_lower_bound,
    sum_delay_lower_bound,
)

from helpers import exhaustive_max_delay_bound, lp_grid_oracle

UNIFORM = DistributionSpec.parse("U(0,1)")


# ----------------------------------------------------------- model structure


def test_h2_arrays_match_the_written_out_system():
    # U(0,1), H=2, n=2: delta = 1/2, masses P = (1/2, 1/2), 1/n = 1/2.
    # Columns t_0 t_1 t_2 p_0 p_1 p_2 C; each row is one formula of the
    # module docstring moved to "<= rhs" form.
    h = 0.5
    expected_a = np.array(
        [
            # chain: t_0 <= 1, t_1 - t_0 <= 0, t_2 - t_1 <= 0
            [1, 0, 0, 0, 0, 0, 0],
            [-1, 1, 0, 0, 0, 0, 0],
            [0, -1, 1, 0, 0, 0, 0],
            # i=0: 0 <= p_0 <= 0
            [0, 0, 0, -1, 0, 0, 0],
            [0, 0, 0, 1, 0, 0, 0],
            # i=1: lower d(1-t_1) - d(1-t_1) = 0 <= p_1; upper p_1 <= d(t_0 - t_1)
            [0, 0, 0, 0, -1, 0, 0],
            [-h, h, 0, 0, 1, 0, 0],
            # i=2: lower d(t_1 - t_2) <= p_2; upper p_2 <= d(t_0 - t_2) + d(t_1 - t_2)
            [0, h, -h, 0, 0, -1, 0],
            [-h, -h, 2 * h, 0, 0, 1, 0],
            # budget: P_1 p_0 + P_2 p_1 <= (1 - C)/n <= P_1 p_1 + P_2 p_2
            [0, 0, 0, h, h, 0, h],
            [0, 0, 0, 0, -h, -h, -h],
            # allocation: C <= P_1 t_0 + P_2 t_1
            [-h, -h, 0, 0, 0, 0, 1],
            # C <= 1, -C <= 0
            [0, 0, 0, 0, 0, 0, 1],
            [0, 0, 0, 0, 0, 0, -1],
        ],
        dtype=float,
    )
    expected_b = np.array([1, 0, 0, 0, 0, 0, 0, 0, 0, h, -h, 0, 1, 0], dtype=float)
    a_ub, b_ub, bounds = build_common_constraints(discretize(UNIFORM, 2), n=2)
    assert a_ub.shape == (14, 7)
    np.testing.assert_array_equal(a_ub, expected_a)
    np.testing.assert_array_equal(b_ub, expected_b)
    assert bounds == [(0.0, 1.0)] * 3 + [(None, None)] * 3 + [(0.0, 1.0)]
    # the grid's own rows are the first 3H+3
    np.testing.assert_array_equal(_arrays(2, h), expected_a[:9])


def test_h1_variables_and_p0_pinned():
    a_ub, b_ub, bounds = build_common_constraints(discretize(UNIFORM, 1), n=3)
    # t_0 t_1 p_0 p_1 C
    assert a_ub.shape == (11, 5) and b_ub.shape == (11,) and len(bounds) == 5
    # both i=0 sandwich rows degenerate to 0 <= p_0 <= 0
    for sign in (-1.0, 1.0):
        c = np.zeros(5)
        c[2] = sign
        assert _solve(c, a_ub, b_ub, bounds).fun == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("H", [1, 2, 5, 40])
def test_constraint_count_breakdown(H):
    a_ub, b_ub, _ = build_common_constraints(discretize(UNIFORM, H), n=2)
    assert a_ub.shape == (3 * H + 8, 2 * H + 3) and b_ub.shape == (3 * H + 8,)
    t, p, c = a_ub[:, : H + 1], a_ub[:, H + 1 : 2 * H + 2], a_ub[:, -1]
    chain, sandwich = slice(0, H + 1), slice(H + 1, 3 * H + 3)
    budget, alloc, c_rows = slice(3 * H + 3, 3 * H + 5), 3 * H + 5, slice(3 * H + 6, None)
    # H+1 chain rows on t alone
    assert t[chain].any(axis=1).all() and not p[chain].any() and not c[chain].any()
    # H+1 lower/upper sandwich pairs, pair i pinning p_i from below and above
    pins = np.repeat(np.eye(H + 1), 2, axis=0) * np.tile([-1.0, 1.0], H + 1)[:, None]
    np.testing.assert_array_equal(p[sandwich], pins)
    assert not c[sandwich].any()
    # two budget rows on p and C, one allocation row on t and C, two rows on C
    assert not t[budget].any() and p[budget].any(axis=1).all() and c[budget].all()
    assert t[alloc].any() and not p[alloc].any() and c[alloc] == 1.0
    assert not a_ub[c_rows, :-1].any()
    np.testing.assert_array_equal(c[c_rows], [1.0, -1.0])


def test_bounds_present_for_every_variable():
    _, _, bounds = build_common_constraints(discretize(UNIFORM, 3), n=1)
    assert bounds[:4] == [(0.0, 1.0)] * 4
    assert bounds[4:8] == [(None, None)] * 4
    assert bounds[8] == (0.0, 1.0)


@pytest.mark.parametrize("n", [1, 2, 7])
@pytest.mark.parametrize("label", ["U(0,1)", "N(0.5,0.2)"])
def test_unsold_point_always_feasible(label, n):
    # t_i = 1, p_i = 0, C = 1 satisfies every row of every model
    spec = DistributionSpec.parse(label)
    a_ub, b_ub, _ = build_common_constraints(discretize(spec, 8), n)
    x = np.concatenate([np.ones(9), np.zeros(9), [1.0]])
    assert (a_ub @ x <= b_ub + 1e-9).all(), np.flatnonzero(a_ub @ x > b_ub + 1e-9)


# -------------------------------------------------------------------- _solve


def test_solve_min_x_above_three():
    res = _solve([1.0], [[-1.0]], [-3.0], [(None, None)])
    assert res.fun == pytest.approx(3.0, abs=1e-9)
    assert res.x[0] == pytest.approx(3.0, abs=1e-9)


def test_solve_chain_only_floor_is_zero():
    # the grid's chain rows alone let t_H fall to 0
    H = 5
    chain = _arrays(H, 1.0 / H)[: H + 1, : H + 1]
    b = np.zeros(H + 1)
    b[0] = 1.0
    c = np.zeros(H + 1)
    c[H] = 1.0
    res = _solve(c, chain, b, [(0.0, 1.0)] * (H + 1))
    assert res.fun == pytest.approx(0.0, abs=1e-12)


def test_solve_detects_infeasible():
    # x >= 2 and x <= 1
    with pytest.raises(RuntimeError, match="status 2"):
        _solve([1.0], [[-1.0], [1.0]], [-2.0, 1.0], [(None, None)])


def test_solve_detects_unbounded():
    # min x subject to x <= 1 only
    with pytest.raises(RuntimeError, match="status 3"):
        _solve([1.0], [[1.0]], [1.0], [(None, None)])


# ---------------------------------------------------------------- the bounds


def test_sum_bound_brute_force_oracle_h2():
    # grid search over the H=2 model (coarse step here; the acceptance suite
    # runs the full 1e-3 resolution)
    lp_value = sum_delay_lower_bound(UNIFORM, 1, 2)
    oracle = lp_grid_oracle(discretize(UNIFORM, 2).masses, n=1, step=5e-3)
    assert lp_value == pytest.approx(oracle, abs=2e-3)


def test_sum_bound_known_values_h100():
    assert sum_delay_lower_bound(UNIFORM, 1, 100) == pytest.approx(0.895, abs=3e-3)
    assert sum_delay_lower_bound(UNIFORM, 2, 100) == pytest.approx(0.961, abs=3e-3)


def test_max_bound_known_values_h100():
    assert max_delay_lower_bound(UNIFORM, 2, 100) == pytest.approx(0.673, abs=3e-3)
    assert max_delay_lower_bound(UNIFORM, 10, 100) == pytest.approx(0.288, abs=3e-3)


def test_bounds_reject_support_not_starting_at_zero():
    # the LP prices the type at segment edge i as i*delta; on U(0.5,1) that
    # gave "bounds" of 1.70 (sum) and 0.94 (max) where cs achieves delay 0
    spec = DistributionSpec.parse("U(0.5,1)")
    for bound in (sum_delay_lower_bound, max_delay_lower_bound):
        with pytest.raises(ValueError, match="starting at 0"):
            bound(spec, 2, 50)


def test_per_agent_sum_bound_monotone_in_n():
    values = [sum_delay_lower_bound(UNIFORM, n, 40) / n for n in (1, 2, 3, 5, 8)]
    for a, b in zip(values, values[1:]):
        assert b <= a + 1e-9


def test_max_equals_sum_bound_for_single_agent():
    for label in ("U(0,1)", "N(0.5,0.4)"):
        spec = DistributionSpec.parse(label)
        mx = max_delay_lower_bound(spec, 1, 60)
        sm = sum_delay_lower_bound(spec, 1, 60)
        assert mx <= sm + 1e-9
        assert mx == pytest.approx(sm, abs=1e-7)


def test_bounds_tighten_and_converge_under_nested_refinement():
    # H=10 -> 20 -> 40 nests the segment grids: every bound on the 24 table
    # cells is non-decreasing (up to solver noise) and the second step moves
    # it no more than the first.
    for label in ("U(0,1)", "N(0.5,0.2)", "N(0.5,0.4)"):
        spec = DistributionSpec.parse(label)
        for n in (1, 2, 5, 10):
            for bound in (max_delay_lower_bound, sum_delay_lower_bound):
                b10, b20, b40 = (bound(spec, n, H) for H in (10, 20, 40))
                cell = (label, n, bound.__name__, b10, b20, b40)
                assert b10 <= b20 + 1e-7 and b20 <= b40 + 1e-7, cell
                assert abs(b40 - b20) <= abs(b20 - b10), cell


@pytest.mark.parametrize("H", [20, 50])
def test_pruned_max_bound_matches_exhaustive_scan(H):
    for label in ("U(0,1)", "N(0.5,0.2)", "N(0.5,0.4)"):
        spec = DistributionSpec.parse(label)
        for n in (1, 2, 5, 10):
            value, point, solves = _max_delay_search(spec, n, H)
            oracle, points = exhaustive_max_delay_bound(spec, n, H)
            cell = (label, n, value, oracle, point, solves)
            assert abs(value - oracle) <= 1e-9, cell
            assert 1 <= point <= H and 1 <= solves <= points, cell
            # with several agents the optimum sits inside the grid and the
            # certificates rule out some LPs, so the search is really pruned
            if n >= 2:
                assert solves < points, cell


_uniform_priors = st.floats(0.3, 1.0).map(lambda b: DistributionSpec("uniform", hi=b))
_normal_priors = st.builds(
    lambda mu, sigma: DistributionSpec("truncnorm", mu=mu, sigma=sigma),
    st.floats(-0.2, 1.2),
    st.floats(0.05, 1.0),
)


@given(st.one_of(_uniform_priors, _normal_priors), st.integers(1, 10), st.integers(5, 30))
@settings(max_examples=60, deadline=None)
def test_pruned_max_bound_matches_exhaustive_scan_random_priors(spec, n, H):
    # Both sides are HiGHS optima, each exact only to the solver's 1e-7
    # tolerances.  On priors whose bound is ~0 (narrow normals near 1, many
    # agents) a directly solved LP can stop a few 1e-9 above the value that
    # another LP's optimum certifies for it (2.6e-9 at worst over 1,000 random
    # cases), so the solver tolerance is the yardstick here.
    value, point, solves = _max_delay_search(spec, n, H)
    oracle, points = exhaustive_max_delay_bound(spec, n, H)
    assert abs(value - oracle) <= FEASIBILITY_TOL
    assert 1 <= point <= H and 1 <= solves <= points


# ------------------------------------------- mechanism feasibility, by sampling


def test_cs_expected_profile_satisfies_common_constraints():
    """The plain rule's sampled (t, p, C) curve fits the relaxation within noise.

    Estimates the expected allocation time and payment of one agent at every
    grid value of her own report (others drawn from the prior), then plugs
    the estimates into each constraint family with a 3-standard-error slack.
    """
    H, n, per_level = 20, 2, 50_000
    delta = 1.0 / H
    masses = np.full(H, delta)
    rng = np.random.default_rng(77)

    t_hat = np.empty(H + 1)
    p_hat = np.empty(H + 1)
    t_se = np.empty(H + 1)
    p_se = np.empty(H + 1)
    for i in range(H + 1):
        v = i * delta
        u = rng.random(per_level)
        both = (v >= 0.5) & (u >= 0.5)
        solo = ~both & (v >= 1.0) & (v >= u)
        times = np.where(both | solo, 0.0, 1.0)
        pays = np.where(both, 0.5, np.where(solo, 1.0, 0.0))
        t_hat[i], p_hat[i] = times.mean(), pays.mean()
        t_se[i] = times.std(ddof=1) / np.sqrt(per_level)
        p_se[i] = pays.std(ddof=1) / np.sqrt(per_level)

    draws = rng.random((per_level, 2))
    unsold = ~(draws.min(axis=1) >= 0.5)
    c_hat = unsold.mean()
    c_se = unsold.std(ddof=1) / np.sqrt(per_level)

    # chain
    for i in range(1, H + 1):
        assert t_hat[i] <= t_hat[i - 1] + 3 * (t_se[i] + t_se[i - 1])
    # payment sandwich
    for i in range(H + 1):
        spread = 3 * (p_se[i] + delta * t_se[1 : i + 1].sum() + i * delta * t_se[i])
        lower = i * delta * (1 - t_hat[i]) - delta * (1 - t_hat[1 : i + 1]).sum()
        upper = i * delta * (1 - t_hat[i]) - delta * (1 - t_hat[0:i]).sum()
        assert lower - spread <= p_hat[i] <= upper + spread
    # budget
    spread = 3 * (delta * p_se.sum() + c_se / n)
    assert (masses * p_hat[:-1]).sum() <= (1 - c_hat) / n + spread
    assert (1 - c_hat) / n <= (masses * p_hat[1:]).sum() + spread
    # allocation time
    spread = 3 * (delta * t_se.sum() + c_se)
    assert (masses * t_hat[:-1]).sum() >= c_hat - spread

    # and the resulting bounds stay below the rule's true expected delays
    assert max_delay_lower_bound(UNIFORM, 2, H) <= 0.75 + 1e-9
    assert sum_delay_lower_bound(UNIFORM, 2, H) <= 1.50 + 1e-9
