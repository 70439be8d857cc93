"""LP construction, the solver contract, and the two delay bounds."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bugshare import lowerbound
from bugshare.distributions import DistributionSpec, discretize
from bugshare.lowerbound import (
    SolverError,
    _arrays,
    _max_delay_search,
    _solve,
    build_common_constraints,
    max_delay_lower_bound,
    sum_delay_lower_bound,
)

from helpers import (
    FEASIBILITY_TOL,
    dense_common_constraints,
    dense_sum_bound,
    dense_truncation_optima,
    exhaustive_max_delay_bound,
    lp_grid_oracle,
    lp_grid_slice,
)

UNIFORM = DistributionSpec.parse("U(0,1)")


# ----------------------------------------------------------- model structure


def test_h2_arrays_match_the_written_out_system():
    # U(0,1), H=2, n=2: delta = 1/2, masses P = (1/2, 1/2), 1/n = 1/2.
    # Columns t_0 t_1 t_2 w_0 w_1 w_2 C, with p_i = L_i(t) + w_i and
    #   L_0 = 0,  L_1 = d*t_1 - d*t_1 = 0,  L_2 = d*(t_1 + t_2) - 2d*t_2 = d*(t_1 - t_2);
    # each row is one formula of the module docstring moved to "<= rhs" form.
    h = 0.5
    expected_a = np.array(
        [
            # chain: t_0 <= 1, t_1 - t_0 <= 0, t_2 - t_1 <= 0
            [1, 0, 0, 0, 0, 0, 0],
            [-1, 1, 0, 0, 0, 0, 0],
            [0, -1, 1, 0, 0, 0, 0],
            # band i: p_i <= U_i = L_i + d*(t_0 - t_i) becomes w_i + d*t_i - d*t_0 <= 0
            # i=0: w_0 <= 0 (the t terms cancel)
            [0, 0, 0, 1, 0, 0, 0],
            # i=1: w_1 + d*t_1 - d*t_0 <= 0
            [-h, h, 0, 0, 1, 0, 0],
            # i=2: w_2 + d*t_2 - d*t_0 <= 0
            [-h, 0, h, 0, 0, 1, 0],
            # budget: P_1 p_0 + P_2 p_1 <= (1 - C)/n, with p_0 = w_0 and p_1 = w_1
            [0, 0, 0, h, h, 0, h],
            # budget: (1 - C)/n <= P_1 p_1 + P_2 p_2 = P_1 w_1 + P_2 (d*(t_1 - t_2) + w_2)
            [0, -h * h, h * h, 0, -h, -h, -h],
            # allocation: C <= P_1 t_0 + P_2 t_1
            [-h, -h, 0, 0, 0, 0, 1],
            # C <= 1, -C <= 0
            [0, 0, 0, 0, 0, 0, 1],
            [0, 0, 0, 0, 0, 0, -1],
        ],
        dtype=float,
    )
    expected_b = np.array([1, 0, 0, 0, 0, 0, h, -h, 0, 1, 0], dtype=float)
    a_ub, b_ub, bounds = build_common_constraints(discretize(UNIFORM, 2), n=2)
    assert a_ub.shape == (11, 7)
    np.testing.assert_array_equal(a_ub.toarray(), expected_a)
    np.testing.assert_array_equal(b_ub, expected_b)
    # the lower sandwich L_i <= p_i is the bound w_i >= 0
    assert bounds == [(0.0, 1.0)] * 3 + [(0.0, None)] * 3 + [(0.0, 1.0)]
    # the grid's own rows are the first 2H+2
    np.testing.assert_array_equal(_arrays(2, h).toarray(), expected_a[:6])


def test_h1_variables_and_p0_pinned():
    a_ub, b_ub, bounds = build_common_constraints(discretize(UNIFORM, 1), n=3)
    # t_0 t_1 w_0 w_1 C
    assert a_ub.shape == (9, 5) and b_ub.shape == (9,) and len(bounds) == 5
    # p_0 = L_0 + w_0 = w_0, and the i=0 band row with the bound w_0 >= 0
    # leaves 0 <= p_0 <= 0
    for sign in (-1.0, 1.0):
        c = np.zeros(5)
        c[2] = sign
        assert _solve(c, a_ub, b_ub, bounds).fun == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("H", [1, 2, 5, 40])
def test_constraint_count_breakdown(H):
    a_ub, b_ub, _ = build_common_constraints(discretize(UNIFORM, H), n=2)
    assert a_ub.shape == (2 * H + 7, 2 * H + 3) and b_ub.shape == (2 * H + 7,)
    a = a_ub.toarray()
    t, w, c = a[:, : H + 1], a[:, H + 1 : 2 * H + 2], a[:, -1]
    chain, band = slice(0, H + 1), slice(H + 1, 2 * H + 2)
    budget, alloc, c_rows = slice(2 * H + 2, 2 * H + 4), 2 * H + 4, slice(2 * H + 5, None)
    # H+1 chain rows on t alone
    assert t[chain].any(axis=1).all() and not w[chain].any() and not c[chain].any()
    # H+1 band rows, row i being w_i + delta*t_i - delta*t_0 <= 0: three
    # nonzeros, except at i = 0, where the t terms cancel to w_0 <= 0
    np.testing.assert_array_equal(w[band], np.eye(H + 1))
    assert not c[band].any()
    np.testing.assert_array_equal(np.diff(a_ub.indptr)[band], [1] + [3] * H)
    delta = 1.0 / H
    np.testing.assert_array_equal(t[band][1:, 0], np.full(H, -delta))
    np.testing.assert_array_equal(t[band][1:, 1:], np.eye(H) * delta)
    # two budget rows on t, w and C (the O(H) rows), one allocation row on t
    # and C, two rows on C
    assert w[budget].any(axis=1).all() and c[budget].all()
    assert t[alloc].any() and not w[alloc].any() and c[alloc] == 1.0
    assert not a[c_rows, :-1].any()
    np.testing.assert_array_equal(c[c_rows], [1.0, -1.0])
    # O(H) nonzeros in all: the chain (2H+1), the band (3H+1), the budget rows
    # (at most 2H+1 each), the allocation row (H+1) and the C rows (2)
    assert a_ub.nnz <= 10 * H + 7


@pytest.mark.parametrize("H", [1, 2, 7, 30])
@pytest.mark.parametrize("label", ["U(0,1)", "N(0.5,0.2)"])
def test_slack_rows_are_the_dense_rows_under_substitution(label, H):
    # With p_i = L_i(t) + w_i, every row of the dense p-form oracle is a row
    # of the slack form or a bound: chain, budget, allocation and C rows keep
    # their values, upper sandwich row i (p_i - U_i) equals band row i
    # (w_i - delta*(t_0 - t_i)), and lower sandwich row i (L_i - p_i) is -w_i,
    # so the two systems have the same feasible (t, C).
    seg = discretize(DistributionSpec.parse(label), H)
    a_ub, b_ub, _ = build_common_constraints(seg, n=3)
    dense_a, dense_b, _ = dense_common_constraints(seg, n=3)
    rng = np.random.default_rng(H)
    t, w, c = rng.random(H + 1), rng.random(H + 1), rng.random()
    z = np.arange(H + 1)
    lower = seg.delta * (np.cumsum(t) - t[0]) - z * seg.delta * t
    slack = a_ub @ np.concatenate([t, w, [c]]) - b_ub
    dense = dense_a @ np.concatenate([t, lower + w, [c]]) - dense_b
    sandwich = dense[H + 1 : 3 * H + 3].reshape(H + 1, 2)
    np.testing.assert_allclose(sandwich[:, 0], -w, rtol=0, atol=1e-14)
    np.testing.assert_allclose(slack[H + 1 : 2 * H + 2], sandwich[:, 1], rtol=0, atol=1e-14)
    np.testing.assert_allclose(slack[: H + 1], dense[: H + 1], rtol=0, atol=1e-14)
    np.testing.assert_allclose(slack[2 * H + 2 :], dense[3 * H + 3 :], rtol=0, atol=1e-14)


def test_bounds_present_for_every_variable():
    _, _, bounds = build_common_constraints(discretize(UNIFORM, 3), n=1)
    assert bounds[:4] == [(0.0, 1.0)] * 4
    assert bounds[4:8] == [(0.0, None)] * 4
    assert bounds[8] == (0.0, 1.0)


@pytest.mark.parametrize("n", [1, 2, 7])
@pytest.mark.parametrize("label", ["U(0,1)", "N(0.5,0.2)"])
def test_unsold_point_always_feasible(label, n):
    # t_i = 1, w_i = 0, C = 1 satisfies every row of every model; it is the
    # point p_i = L_i(1) = i*delta - i*delta = 0 of the payment form
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


def test_solve_retries_numerical_difficulties_with_presolve(monkeypatch):
    # A status-4 stop without presolve is solved again with presolve on;
    # any other failure is not retried.
    calls = []
    real = lowerbound.linprog
    stop = 4

    def stalling(*args, **kwargs):
        calls.append(kwargs.get("options"))
        if kwargs.get("options") == {"presolve": False}:
            return SimpleNamespace(status=stop, message="Stopped")
        return real(*args, **kwargs)

    monkeypatch.setattr(lowerbound, "linprog", stalling)
    res = _solve([1.0], [[-1.0]], [-3.0], [(None, None)])
    assert res.fun == pytest.approx(3.0, abs=1e-9)
    assert calls == [{"presolve": False}, None]
    calls.clear()
    stop = 2
    with pytest.raises(SolverError, match="status 2: Stopped"):
        _solve([1.0], [[-1.0]], [-3.0], [(None, None)])
    assert calls == [{"presolve": False}]


def test_sum_bound_survives_numerical_difficulties_without_presolve():
    # HiGHS without presolve stops with status 4 on this LP
    spec = DistributionSpec("truncnorm", mu=1.171875, sigma=0.05078125)
    assert sum_delay_lower_bound(spec, 1, 28) == pytest.approx(
        dense_sum_bound(spec, 1, 28), abs=FEASIBILITY_TOL
    )


def test_every_solve_calls_the_module_linprog(monkeypatch):
    # The benchmark's tracer counts solves, iterations and nonzeros by
    # wrapping ``bugshare.lowerbound.linprog``; a solve that bypassed it
    # would silently zero those metrics.
    constraints = []
    real = lowerbound.linprog

    def counting(*args, **kwargs):
        constraints.append(kwargs["A_ub"])
        # presolve is off on every solve (see the test below)
        assert kwargs.get("options") == {"presolve": False}
        return real(*args, **kwargs)

    monkeypatch.setattr(lowerbound, "linprog", counting)
    for label, n in (("U(0,1)", 1), ("U(0,1)", 5), ("N(0.5,0.2)", 10)):
        constraints.clear()
        _, _, solves = _max_delay_search(DistributionSpec.parse(label), n, 50)
        assert solves == len(constraints) >= 1, (label, n)
    constraints.clear()
    sum_delay_lower_bound(UNIFORM, 5, 50)
    assert len(constraints) == 1
    assert constraints[0].nnz > 0


def test_bounds_without_presolve_match_the_presolved_solver(monkeypatch):
    # The library solves with HiGHS' presolve off.  On seeded random priors,
    # both bounds must end as they do under scipy's default, presolve on: both
    # give a value, equal within the solver's tolerance (each is optimal only
    # to HiGHS' 1e-7 tolerances), or both raise with the same status.
    from scipy.optimize import linprog as scipy_linprog

    rng = np.random.default_rng(2020)
    cases = []
    while len(cases) < 60:
        try:
            if rng.random() < 0.5:
                spec = DistributionSpec("uniform", hi=rng.uniform(0.2, 3.0))
            else:
                spec = DistributionSpec(
                    "truncnorm", mu=rng.uniform(-0.3, 1.3), sigma=rng.uniform(0.02, 1.0)
                )
        except ValueError:
            continue
        cases.append((spec, int(rng.integers(1, 21)), int(rng.choice([20, 50]))))

    def outcome(bound, spec, n, H):
        try:
            return bound(spec, n, H)
        except SolverError as exc:
            return str(exc).partition(":")[0]  # "LP solver ended with status k"

    bounds = (max_delay_lower_bound, sum_delay_lower_bound)
    runs = [(bound, case) for case in cases for bound in bounds]
    without = [outcome(bound, *case) for bound, case in runs]
    monkeypatch.setattr(
        lowerbound, "linprog", lambda *args, options, **kwargs: scipy_linprog(*args, **kwargs)
    )
    presolved = [outcome(bound, *case) for bound, case in runs]
    for run, a, b in zip(runs, without, presolved):
        if isinstance(a, str) or isinstance(b, str):
            assert a == b, (run, a, b)
        else:
            assert abs(a - b) <= FEASIBILITY_TOL, (run, a, b)


# ---------------------------------------------------------------- the bounds


def test_sum_bound_brute_force_oracle_h2():
    # grid search over the H=2 model (coarse step here; the acceptance suite
    # runs the 1e-3 resolution).  The oracle is the t_0 = 1 slice, which the
    # full scan over t_0 must reproduce exactly
    masses = discretize(UNIFORM, 2).masses
    oracle = lp_grid_oracle(masses, n=1, step=5e-3)
    full_scan = min(lp_grid_slice(masses, 1, t0, 5e-3) for t0 in np.arange(201) / 200)
    assert full_scan == oracle
    assert sum_delay_lower_bound(UNIFORM, 1, 2) == pytest.approx(oracle, abs=2e-3)


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


# 2.5 agents used to give a sum bound of 0.625 and a max bound of 0.4327
@pytest.mark.parametrize("count", [2.5, 2.0])
@pytest.mark.parametrize("argument", ["n", "H"])
def test_bounds_take_integer_counts(argument, count):
    counts = {"n": 2, "H": 10, argument: count}
    for bound in (sum_delay_lower_bound, max_delay_lower_bound):
        with pytest.raises(TypeError, match=f"^{argument} must be an integer"):
            bound(UNIFORM, counts["n"], counts["H"])
    if argument == "n":
        with pytest.raises(TypeError, match="^n must be an integer"):
            build_common_constraints(discretize(UNIFORM, 10), count)
    # numpy integers are counts
    value = sum_delay_lower_bound(UNIFORM, np.int64(2), np.uint8(10))
    assert value == sum_delay_lower_bound(UNIFORM, 2, 10)


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


@pytest.mark.parametrize("H", [20, 50, 100, 200])
def test_bounds_match_the_dense_oracle_on_the_grid(H):
    # The slack form is an exact change of variables, so both bounds equal
    # the dense p-form LP: the sum bound's one LP, and the truncation LP at
    # the point where the max bound is attained.
    for label in ("U(0,1)", "N(0.5,0.2)", "N(0.5,0.4)"):
        spec = DistributionSpec.parse(label)
        for n in (1, 2, 5, 10):
            total = sum_delay_lower_bound(spec, n, H)
            value, point, _ = _max_delay_search(spec, n, H)
            dense_total = dense_sum_bound(spec, n, H)
            dense_value = dense_truncation_optima(spec, n, H, [point])[point]
            cell = (label, n, total, dense_total, value, dense_value, point)
            assert abs(total - dense_total) <= 1e-9, cell
            assert abs(value - dense_value) <= 1e-9, cell


_uniform_priors = st.floats(0.3, 1.0).map(lambda b: DistributionSpec("uniform", hi=b))
_normal_priors = st.builds(
    lambda mu, sigma: DistributionSpec("truncnorm", mu=mu, sigma=sigma),
    st.floats(-0.2, 1.2),
    st.floats(0.05, 1.0),
)


@given(st.one_of(_uniform_priors, _normal_priors), st.integers(1, 10), st.integers(5, 30))
# without presolve HiGHS stops on numerical difficulties here (see _solve)
@example(DistributionSpec("truncnorm", mu=1.171875, sigma=0.05078125), 1, 28)
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
    # and the sum bound against the dense p-form oracle
    assert abs(sum_delay_lower_bound(spec, n, H) - dense_sum_bound(spec, n, H)) <= FEASIBILITY_TOL


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
