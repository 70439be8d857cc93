"""Property checkers, the payment oracle, and the competitive-ratio machinery."""

import math

import numpy as np
import pytest

from bugshare.audit import (
    AuditReport,
    BoundViolation,
    alpha,
    check_bb,
    check_competitive_max,
    check_competitive_sum,
    check_ir,
    check_monotonicity,
    check_sp,
    max_delay,
    misreport_grid,
    myerson_payment,
    sum_delay,
    verify_alpha_bound,
)
from bugshare.cli import _emit
from bugshare.mechanisms import (
    QUALIFY_TOL,
    Grouping,
    Outcome,
    TypeProfile,
    cs_allocate,
    csd_allocate,
    csod_allocate,
    gcsod_allocate,
    gcsod_expected,
    gcsod_realizations,
)

from helpers import (
    EXAMPLE_PROFILE,
    brute_force_sharing_set,
    enumerate_gcsod,
    random_profiles,
    step_curve_payment,
)

EPS = np.finfo(float).eps


# ------------------------------------------------------------- delay metrics


def test_max_delay_examples():
    assert max_delay(Outcome((0.0, 0.625, 0.625), (1.0, 0.0, 0.0))) == 0.625
    assert max_delay(Outcome((1.0, 1.0), (0.0, 0.0))) == 1.0
    assert max_delay(csod_allocate(EXAMPLE_PROFILE)) == 0.625


def test_sum_delay_examples():
    assert sum_delay(csod_allocate(EXAMPLE_PROFILE)) == pytest.approx(1.25)
    assert sum_delay(Outcome((1.0, 1.0), (0.0, 0.0))) == 2.0
    assert sum_delay(Outcome((0.0, 0.0), (0.5, 0.5))) == 0.0


# ------------------------------------------------------------------- check_sp


def test_csod_is_gameable_example_two():
    grid = (0.26, 0.5, 0.9)
    report = check_sp(csod_allocate, [EXAMPLE_PROFILE], grid)
    assert not report.passed
    hits = [v for v in report.violations if v.agent == 1 and v.detail == 0.26]
    assert hits, report.violations
    # dropping the report keeps time 0 but cuts the payment from 0.5 to 0.25
    assert hits[0].amount == pytest.approx(0.25, abs=1e-9)


def test_cs_truthful_on_random_suite():
    rng = np.random.default_rng(21)
    profiles = random_profiles(rng, 100, n_low=2, n_high=6)
    grid = misreport_grid(6, deadline=1.0, points=50)
    assert check_sp(cs_allocate, profiles, grid).passed


def test_csd_truthful_on_random_suite():
    rng = np.random.default_rng(22)
    profiles = random_profiles(rng, 100, n_low=2, n_high=6)
    grid = misreport_grid(6, deadline=0.7, points=50)
    assert check_sp(lambda p: csd_allocate(p, 0.7), profiles, grid).passed


def test_gcsod_expected_truthful_on_random_suite():
    rng = np.random.default_rng(23)
    profiles = random_profiles(rng, 40, n_low=2, n_high=6)
    grid = misreport_grid(6, deadline=1.0, points=25)
    assert check_sp(gcsod_expected, profiles, grid).passed


def test_check_sp_rejects_negative_epsilon():
    # NaN too: u_dev > u_truth + NaN is never true, a vacuous pass
    for epsilon in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="epsilon"):
            check_sp(cs_allocate, [EXAMPLE_PROFILE], (0.5,), epsilon=epsilon)


def test_misreport_grid_contains_thresholds():
    grid = misreport_grid(4, deadline=0.625, points=10)
    for k in (1, 2, 3, 4):
        assert 1.0 / (k * 0.625) in grid
    assert grid == tuple(sorted(grid))
    # the benchmark's SP grid: 50 uniform points and every 1/k, none dropped
    grid = misreport_grid(8, 1.0, 50)
    assert grid == tuple(sorted(set(np.linspace(0.0, 1.0, 50)) | {1.0 / k for k in range(1, 9)}))


@pytest.mark.parametrize("deadline, kept", [(5e-324, ()), (1e-308, (5e307,))])
def test_misreport_grid_keeps_only_reports_that_n_agents_can_make(deadline, kept):
    # 1/deadline, and at 5e-324 1/(2 * deadline) too, is no valuation of two
    # agents (2 * v overflows), so every probe of ``check_sp`` used to raise
    grid = misreport_grid(2, deadline, 5)
    assert grid == (0.0, 0.25, 0.5, 0.75, 1.0) + kept
    for report in grid:
        assert TypeProfile((0.9, 0.8)).replace(0, report).values[0] == report
    assert check_sp(lambda p: csd_allocate(p, deadline), [TypeProfile((0.9, 0.8))], grid).passed


@pytest.mark.parametrize("deadline", [float("nan"), -0.1, 1.5])
def test_misreport_grid_rejects_a_deadline_outside_the_unit_interval(deadline):
    # a NaN or negative deadline used to drop the thresholds without a word
    with pytest.raises(ValueError, match=r"deadline must lie in \[0, 1\]"):
        misreport_grid(3, deadline, 5)
    # deadline 0 has no finite threshold: the bare grid
    assert misreport_grid(3, 0.0, 5) == (0.0, 0.25, 0.5, 0.75, 1.0)


@pytest.mark.parametrize(
    "n, points, error, message",
    [
        (2, 0, ValueError, "points must be at least 2"),
        (2, 1, ValueError, "points must be at least 2"),
        (2, 2.5, TypeError, "points must be an integer, got 2.5"),
        (0, 50, ValueError, "n must be at least 1"),
        (2.5, 50, TypeError, "n must be an integer, got 2.5"),
    ],
    ids=["no-points", "one-point", "fractional-points", "no-agents", "fractional-agents"],
)
def test_misreport_grid_takes_integer_sizes(n, points, error, message):
    # points = 0 left only the entry thresholds, and n = 0 only the uniform grid
    with pytest.raises(error, match=f"^{message}$"):
        misreport_grid(n, 1.0, points)
    assert misreport_grid(np.int64(2), 1.0, np.int64(2)) == (0.0, 0.5, 1.0)


# ------------------------------------------------------------------- check_ir


def test_ir_cs_passes():
    rng = np.random.default_rng(31)
    assert check_ir(cs_allocate, random_profiles(rng, 200, hi=1.4)).passed


def test_ir_csod_example_two_utilities():
    profile = TypeProfile((0.9, 0.26, 0.26, 0.26))
    report = check_ir(csod_allocate, [profile])
    assert report.passed
    out = csod_allocate(profile)
    for v, t, p in zip(profile.values, out.times, out.payments):
        assert (1 - t) * v - p >= 0.01


def test_ir_csd_failed_sale_still_rational():
    assert check_ir(lambda p: csd_allocate(p, 0.3), [TypeProfile((0.9, 0.8))]).passed


def _ir_deficit_rule(deficit):
    """A rule that charges agent 0 ``deficit`` more than the value of its time-0 delivery."""

    def rule(profile):
        half = 0.5 + deficit
        return Outcome((0.0, 0.0), (half, 1.0 - half))

    return rule


def test_ir_flags_a_deficit_above_its_tolerance():
    pair = TypeProfile((0.5, 0.5))
    report = check_ir(_ir_deficit_rule(1e-6), [pair])
    assert not report.passed
    [violation] = report.violations
    assert violation.agent == 0
    assert violation.amount == pytest.approx(-1e-6, rel=1e-9)


def test_ir_passes_a_deficit_below_its_tolerance():
    assert check_ir(_ir_deficit_rule(1e-10), [TypeProfile((0.5, 0.5))]).passed


def test_sp_rejects_an_infinite_epsilon():
    # with the default epsilon this audit fails; an infinite slack passes every probe
    with pytest.raises(ValueError, match="epsilon must be finite"):
        check_sp(csod_allocate, [EXAMPLE_PROFILE], misreport_grid(4), epsilon=math.inf)
    assert not check_sp(csod_allocate, [EXAMPLE_PROFILE], misreport_grid(4)).passed


# ------------------------------------------------------------------- check_bb


def test_bb_csd_flags_failed_sale_before_deadline_one():
    report = check_bb(lambda p: csd_allocate(p, 0.5), [EXAMPLE_PROFILE])
    assert not report.passed
    assert all(v.detail == 0.5 for v in report.violations)


def test_bb_csd_fires_exactly_when_sharing_fails():
    rng = np.random.default_rng(41)
    t_c = 0.6
    for profile in random_profiles(rng, 150, n_low=1, n_high=6):
        report = check_bb(lambda p: csd_allocate(p, t_c), [profile])
        fails = not brute_force_sharing_set(profile.values, t_c)
        assert report.passed == (not fails)


def test_bb_cs_and_csod_pass():
    rng = np.random.default_rng(42)
    profiles = random_profiles(rng, 200, hi=1.3)
    assert check_bb(cs_allocate, profiles).passed
    assert check_bb(csod_allocate, profiles).passed


def test_bb_gcsod_all_realizations():
    rng = np.random.default_rng(43)
    profiles = random_profiles(rng, 40, n_low=1, n_high=6)
    realizations = lambda p: [out for _, out in enumerate_gcsod(p)]
    assert check_bb(realizations, profiles).passed


@pytest.mark.parametrize(
    "mechanism",
    [gcsod_expected, lambda p: [gcsod_expected(p)]],
    ids=["expectation-record", "list-of-expectation-records"],
)
def test_bb_refuses_what_is_not_a_realized_outcome(mechanism):
    # an expectation record has no sale to balance; its realizations do
    with pytest.raises(TypeError, match="realized outcomes .*gcsod_realizations"):
        check_bb(mechanism, [TypeProfile((0.9, 0.8))])
    assert check_bb(gcsod_realizations, [TypeProfile((0.9, 0.8))]).passed


# ----------------------------------------------------------- check_monotonicity


def test_monotonicity_cs_threshold_drop():
    profile = TypeProfile((0.2, 0.6))
    grid = tuple(np.linspace(0.0, 1.0, 201))
    report = check_monotonicity(cs_allocate, [profile], grid)
    assert report.passed
    # the sweep of agent 1 drops from 1 to 0 exactly at the 0.5 threshold
    times = [cs_allocate(profile.replace(0, r)).times[0] for r in (0.49, 0.5, 0.51)]
    assert times == [1.0, 0.0, 0.0]


def test_monotonicity_constant_rule_passes():
    constant = lambda p: Outcome((1.0,) * len(p), (0.0,) * len(p))
    rng = np.random.default_rng(51)
    grid = tuple(np.linspace(0.0, 1.0, 50))
    assert check_monotonicity(constant, random_profiles(rng, 5), grid).passed


def test_monotonicity_gcsod_expected_small_profiles():
    rng = np.random.default_rng(52)
    profiles = random_profiles(rng, 8, n_low=2, n_high=4)
    grid = tuple(np.linspace(0.0, 1.0, 60))
    assert check_monotonicity(gcsod_expected, profiles, grid).passed


def test_monotonicity_rejects_unsorted_grid():
    with pytest.raises(ValueError, match="sorted"):
        check_monotonicity(cs_allocate, [EXAMPLE_PROFILE], (0.5, 0.1))


def test_monotonicity_catches_increasing_rule():
    increasing = lambda p: Outcome((min(1.0, p.values[0]),) * len(p), (0.0,) * len(p))
    report = check_monotonicity(increasing, [TypeProfile((0.1, 0.2))], (0.1, 0.9))
    assert not report.passed


def _time_jump_rule(jump):
    """Each agent gets time 0.5, plus ``jump`` once its own report reaches 0.5."""
    return lambda p: Outcome(tuple(0.5 + jump * (v >= 0.5) for v in p.values), (0.0,) * len(p))


def test_monotonicity_flags_a_time_jump_above_its_tolerance():
    report = check_monotonicity(_time_jump_rule(1e-6), [TypeProfile((0.2, 0.3))], (0.1, 0.9))
    assert not report.passed
    assert [v.agent for v in report.violations] == [0, 1]
    for v in report.violations:
        assert v.detail == 0.9
        assert v.amount == pytest.approx(1e-6, rel=1e-9)


def test_monotonicity_passes_a_time_jump_below_its_tolerance():
    rule = _time_jump_rule(1e-10)
    assert check_monotonicity(rule, [TypeProfile((0.2, 0.3))], (0.1, 0.9)).passed


def test_monotonicity_rejects_a_one_point_grid():
    # a single sweep point is probed but never compared with another
    with pytest.raises(ValueError, match="at least two grid points"):
        check_monotonicity(_time_jump_rule(0.8), [TypeProfile((0.2, 0.3))], (0.9,))


def test_zero_probe_audits_raise():
    # an audit that evaluated nothing must not read as a pass
    pair = TypeProfile((0.5, 0.5))
    empty_audits = (
        lambda: check_sp(cs_allocate, [], misreport_grid(2)),
        lambda: check_sp(cs_allocate, [TypeProfile((0.5,))], (0.5,)),  # the truth only
        lambda: check_ir(cs_allocate, iter([])),
        lambda: check_bb(cs_allocate, []),
        lambda: check_bb(lambda p: [], [pair]),  # no realization to check
        lambda: check_monotonicity(cs_allocate, [pair], ()),
    )
    for audit in empty_audits:
        with pytest.raises(ValueError, match="no probe"):
            audit()
    # probes are counted as a generator is consumed
    assert check_ir(cs_allocate, (p for p in [pair])).passed
    assert check_sp(cs_allocate, (p for p in [pair]), misreport_grid(2)).passed


# ------------------------------------------------------------ myerson_payment


def test_myerson_cs_closed_form():
    # allocation of agent 0 vs her report steps from 1 to 0 at 0.5, so the
    # integral leaves exactly the 0.5 cost share
    payment = myerson_payment(cs_allocate, 0, TypeProfile((0.9, 0.8)), 10_000)
    assert payment == pytest.approx(0.5, abs=2e-4)


def test_myerson_zero_value_agent():
    assert myerson_payment(cs_allocate, 1, TypeProfile((0.9, 0.0)), 1000) == 0.0


@pytest.mark.parametrize("agent", [-1, 3])
def test_myerson_rejects_an_agent_out_of_range(agent):
    # -1 is a valid list index but no agent; a zero value, which returns
    # early, must not skip the check
    for values in ((0.9, 0.8, 0.26), (0.9, 0.8, 0.0)):
        with pytest.raises(IndexError, match=f"agent {agent} .* 3 agents"):
            myerson_payment(cs_allocate, agent, TypeProfile(values), 100)


@pytest.mark.parametrize("agent", [True, 1.5])
def test_myerson_rejects_an_agent_that_is_no_integer(agent):
    # True used to run as agent 1 and return 0.48
    with pytest.raises(TypeError, match=f"agent must be an integer, got {agent!r}"):
        myerson_payment(cs_allocate, agent, TypeProfile((0.9, 0.8, 0.3)), 10)


def test_myerson_csd_example_payment():
    payment = myerson_payment(
        lambda p: csd_allocate(p, 0.9), 1, EXAMPLE_PROFILE, 10_000
    )
    assert payment == pytest.approx(0.5, abs=2e-4)


@pytest.mark.parametrize(
    "label,rule,deadline",
    [
        ("cs", cs_allocate, 1.0),
        ("csd", lambda p: csd_allocate(p, 0.8), 0.8),
    ],
)
def test_myerson_matches_charged_payment(label, rule, deadline):
    # payment-identity oracle against the implemented payments, one random
    # agent per profile.  The agent's time is ``deadline`` below its threshold
    # and 0 from it on, so the identity gives deadline * threshold.  The rule
    # lets the agent pay from price - QUALIFY_TOL * max(1, price) on, where
    # price = 1/(k* * deadline), and charges 1/k* = deadline * price: the
    # oracle, exact on a step curve, lies deadline * QUALIFY_TOL * max(1, price)
    # below the charge.  On top come the rounding of the price's product and
    # reciprocal, of the slack, of the threshold's double and of the oracle's
    # sum, each within an ulp of a payment <= 1: four ulps of 1 hold them.  An
    # agent who does not pay has a flat curve and an oracle of exactly 0.
    rng = np.random.default_rng(61)
    for _ in range(1000):
        profile = TypeProfile(tuple(rng.random(2)))
        agent = int(rng.integers(2))
        oracle = step_curve_payment(rule, agent, profile)
        charged = rule(profile).payments[agent]
        bound = deadline * QUALIFY_TOL * max(1.0, charged / deadline) + 4 * EPS
        assert abs(oracle - charged) <= bound


def test_group_rule_expected_payments_match_the_payment_identity():
    # The group rule's expected curve of an agent averages one step per
    # grouping: the other side's deadline d below the threshold, 0 from it on.
    # Each grouping is off by d * QUALIFY_TOL * max(1, price) as in the test
    # above, and d * price = 1/k* <= 1 with d <= 1, so by QUALIFY_TOL at most;
    # so is their average.  ``gcsod_expected`` sums 2^n groupings in an order
    # that follows the agent's rank, so its curve and its payments carry up to
    # 2^n ulps of rounding, and the curve may rise by as much.
    rng = np.random.default_rng(8)
    for profile in random_profiles(rng, 20, n_low=2, n_high=8):
        rounding = 2 ** len(profile) * EPS
        payments = gcsod_expected(profile).payments
        for agent in range(len(profile)):
            oracle = step_curve_payment(gcsod_expected, agent, profile, rounding=rounding)
            assert abs(oracle - payments[agent]) <= QUALIFY_TOL + 2 * rounding


def test_step_curve_oracle_refuses_a_curve_that_is_no_falling_step():
    profile = TypeProfile((0.9, 0.8))

    def ramp(p):  # continuous: no finite set of jumps
        t = 1.0 - p.values[0] / 2
        return Outcome((t, 1.0), (0.0, 0.0))

    def rising(p):  # a step up at 0.5
        t = 1.0 if p.values[0] >= 0.5 else 0.0
        return Outcome((t, 1.0), (0.0, 0.0))

    with pytest.raises(ValueError, match="probes did not locate every jump"):
        step_curve_payment(ramp, 0, profile)
    with pytest.raises(ValueError, match="allocation time rises"):
        step_curve_payment(rising, 0, profile)
    # cs steps down from time 1 to 0 at 0.5 - QUALIFY_TOL, which the identity
    # gives exactly
    assert step_curve_payment(cs_allocate, 0, profile) == 0.5 - QUALIFY_TOL


# ------------------------------------------------------------------- alpha


def test_alpha_exact_small_values():
    assert alpha(1) == 1.0
    assert alpha(2) == 2.0
    assert alpha(3) == 3.0
    assert alpha(4) == 3.25


def test_alpha_rejects_nonpositive():
    with pytest.raises(ValueError):
        alpha(0)
    with pytest.raises(ValueError):
        verify_alpha_bound(0)


def test_alpha_below_four_up_to_200():
    values = [alpha(k) for k in range(1, 201)]
    assert max(values) < 4.0
    assert verify_alpha_bound(50)
    assert verify_alpha_bound(200)
    assert verify_alpha_bound(1)


def test_alpha_matches_direct_float_sum():
    # independent float evaluation of the same binomial average
    for k in (1, 2, 3, 5, 8, 13, 21):
        direct = sum(
            math.comb(k, kl) * k / max(1, min(kl, k - kl)) for kl in range(k + 1)
        ) / 2**k
        assert alpha(k) == pytest.approx(direct, rel=1e-12)


# ------------------------------------------------------- competitive checkers


def test_competitive_max_example_profile():
    report = check_competitive_max(EXAMPLE_PROFILE)
    assert report.assumptions_hold
    # 0.828125 expected max against the 0.625 optimal-deadline max
    assert report.ratio_max == pytest.approx(0.828125 / 0.625, rel=1e-12)
    assert report.ratio_max <= 4.0


def test_competitive_sum_example_profile():
    report = check_competitive_sum(EXAMPLE_PROFILE)
    assert report.assumptions_hold  # two sharers out of four
    assert report.ratio_sum == pytest.approx(2.5625 / 1.25, rel=1e-12)
    assert report.ratio_sum <= 8.0


def test_competitive_all_zero_profile():
    report = check_competitive_max(TypeProfile((0.0, 0.0, 0.0)))
    assert report.assumptions_hold
    assert report.ratio_max == 1.0
    assert report.ratio_sum == 1.0


def test_competitive_assumption_gates():
    # value above the whole cost
    assert not check_competitive_max(TypeProfile((1.2, 0.3))).assumptions_hold
    # everyone participates: (0.6, 0.6) shares at deadline 1/1.2
    assert not check_competitive_max(TypeProfile((0.6, 0.6))).assumptions_hold
    # more than half participate; max-side assumption can still hold
    profile = TypeProfile((0.9, 0.9, 0.1))
    assert not check_competitive_sum(profile).assumptions_hold
    assert check_competitive_max(profile).assumptions_hold


def test_competitive_bounds_raise_only_where_their_gates_hold(monkeypatch):
    # a group rule 100 times slower than the baseline breaks both bounds
    import bugshare.audit as audit_mod
    from bugshare.mechanisms import ExpectedOutcome

    slow = ExpectedOutcome((1.0,) * 4, (0.25,) * 4, max_delay=62.5, sum_delay=125.0)
    monkeypatch.setattr(audit_mod, "gcsod_expected", lambda profile: slow)
    with pytest.raises(BoundViolation, match=r"^max-delay ratio 100\.0 exceeds 4\.0 on \(0\.9,"):
        check_competitive_max(EXAMPLE_PROFILE)
    with pytest.raises(BoundViolation, match=r"^sum-delay ratio 100\.0 exceeds 8\.0 on \(0\.9,"):
        check_competitive_sum(EXAMPLE_PROFILE)
    # (0.9, 0.9, 0.1) has two sharers of three: the sum gate is closed
    report = check_competitive_sum(TypeProfile((0.9, 0.9, 0.1)))
    assert not report.assumptions_hold
    assert report.ratio_sum > 8.0


def test_competitive_random_suite_within_bounds():
    rng = np.random.default_rng(71)
    checked = 0
    for profile in random_profiles(rng, 300, n_low=2, n_high=8, lo=0.01):
        report = check_competitive_max(profile)
        if report.assumptions_hold:
            checked += 1
            assert report.ratio_max <= 4.0 + 1e-9
        report = check_competitive_sum(profile)
        if report.assumptions_hold:
            assert report.ratio_sum <= 8.0 + 1e-9
    assert checked > 200


# ---------------------------------------------------------------- reporting


def test_audit_report_json_round_trip(capsys):
    report = check_sp(csod_allocate, [EXAMPLE_PROFILE], (0.26,))
    assert not report.passed
    # the two agents whose value is 0.26 have no misreport on this grid
    assert report.probes == 2
    # the ``audit`` command prints these bytes: key order and indent are fixed
    one = AuditReport(report.property, report.violations[:1], report.probes)
    _emit(one.to_dict(), None)
    assert capsys.readouterr().out == (
        "{\n"
        '  "property": "SP",\n'
        '  "passed": false,\n'
        '  "probes": 2,\n'
        '  "violations": [\n'
        "    {\n"
        '      "profile": [\n'
        "        0.9,\n"
        "        0.8,\n"
        "        0.26,\n"
        "        0.26\n"
        "      ],\n"
        '      "agent": 0,\n'
        '      "detail": 0.26,\n'
        '      "amount": 0.25\n'
        "    }\n"
        "  ]\n"
        "}\n"
    )
