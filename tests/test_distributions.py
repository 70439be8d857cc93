"""Priors: CDF exactness, seeded sampling, segment masses, and parsing."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtr, ndtri

from bugshare.audit import alpha, myerson_payment, verify_alpha_bound
from bugshare.distributions import (
    DistributionSpec,
    SegmentedDistribution,
    cdf,
    discretize,
    draw,
    preimage,
    sample,
)
from bugshare.lowerbound import max_delay_lower_bound, sum_delay_lower_bound
from bugshare.mechanisms import TypeProfile, cs_allocate
from bugshare.simulate import SimulationConfig

UNIFORM = DistributionSpec.parse("U(0,1)")
NORMAL_02 = DistributionSpec.parse("N(0.5,0.2)")
NORMAL_04 = DistributionSpec.parse("N(0.5,0.4)")


# -------------------------------------------------------------------- parsing


def test_parse_table_notation():
    assert UNIFORM == DistributionSpec(kind="uniform", lo=0.0, hi=1.0)
    assert NORMAL_02 == DistributionSpec(kind="truncnorm", lo=0.0, hi=1.0, mu=0.5, sigma=0.2)
    assert NORMAL_04.sigma == 0.4


def test_parse_label_round_trip():
    for text in ("U(0,1)", "N(0.5,0.2)", "N(0.5,0.4)", "U(0,2)"):
        assert DistributionSpec.parse(text).label() == text


def test_parse_rejects_garbage():
    for text in ("X(0,1)", "U(0 1)", "N(0.5)", "", "U(1,0)", "U(-1,1)", "N(5,0.1)", "N(-5,0.1)"):
        with pytest.raises(ValueError):
            DistributionSpec.parse(text)


def test_spec_validation():
    with pytest.raises(ValueError):
        DistributionSpec(kind="uniform", lo=1.0, hi=0.0)
    with pytest.raises(ValueError):
        DistributionSpec(kind="truncnorm", mu=0.5, sigma=0.0)
    with pytest.raises(ValueError):
        DistributionSpec(kind="weibull")
    with pytest.raises(ValueError):  # negative valuations
        DistributionSpec(kind="uniform", lo=-1.0, hi=1.0)
    for mu in (5.0, -5.0):  # no representable mass on [0, 1]: NaN CDF, collapsed draws
        with pytest.raises(ValueError):
            DistributionSpec(kind="truncnorm", mu=mu, sigma=0.1)


@pytest.mark.parametrize("text", ["N(0.5,nan)", "N(0.5,-0.2)", "N(0.5,0)"])
def test_parse_rejects_a_sigma_that_is_not_positive(text):
    with pytest.raises(ValueError, match="sigma must be positive"):
        DistributionSpec.parse(text)


@pytest.mark.parametrize("text", ["N(nan,0.2)", "N(inf,0.2)", "N(-inf,0.2)"])
def test_parse_rejects_a_mu_that_is_not_finite(text):
    with pytest.raises(ValueError, match="mu must be finite"):
        DistributionSpec.parse(text)


# ------------------------------------------------------------------------ cdf


def test_cdf_uniform_quarter():
    assert cdf(UNIFORM, 0.25) == 0.25


def test_cdf_truncnorm_symmetry_at_mean():
    assert cdf(NORMAL_02, 0.5) == pytest.approx(0.5, abs=1e-14)


def test_cdf_support_endpoints():
    for spec in (UNIFORM, NORMAL_02, NORMAL_04):
        assert cdf(spec, spec.lo) == pytest.approx(0.0, abs=1e-14)
        assert cdf(spec, spec.hi) == pytest.approx(1.0, abs=1e-14)


def test_cdf_rejects_outside_support():
    with pytest.raises(ValueError):
        cdf(UNIFORM, -0.1)
    with pytest.raises(ValueError):
        cdf(NORMAL_02, 1.1)


@pytest.mark.parametrize("spec", [UNIFORM, NORMAL_02])
def test_cdf_rejects_nan(spec):
    with pytest.raises(ValueError, match="x outside support"):
        cdf(spec, float("nan"))
    with pytest.raises(ValueError, match="x outside support"):
        cdf(spec, np.array([0.25, np.nan, 0.75]))
    assert cdf(spec, np.array([0.0, 0.5, 1.0])).shape == (3,)


@given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=200)
def test_cdf_non_decreasing(a, b):
    lo, hi = min(a, b), max(a, b)
    for spec in (UNIFORM, NORMAL_04):
        assert cdf(spec, lo) <= cdf(spec, hi) + 1e-15


# -------------------------------------------------------------------- sampling


def test_sample_mean_of_uniform():
    draws = sample(UNIFORM, 1_000_000, seed=5)
    assert draws.mean() == pytest.approx(0.5, abs=0.002)


def test_sample_truncnorm_stays_in_support():
    draws = sample(NORMAL_04, 100_000, seed=6)
    assert draws.min() >= 0.0
    assert draws.max() <= 1.0


def test_sample_deterministic_per_seed():
    a = sample(NORMAL_02, 1000, seed=7)
    b = sample(NORMAL_02, 1000, seed=7)
    c = sample(NORMAL_02, 1000, seed=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def _draw_out_of_place(spec, shape, rng):
    u = rng.random(shape)
    if spec.kind == "uniform":
        return spec.lo + u * (spec.hi - spec.lo)
    a = ndtr((spec.lo - spec.mu) / spec.sigma)
    b = ndtr((spec.hi - spec.mu) / spec.sigma)
    return np.clip(spec.mu + spec.sigma * ndtri(a + u * (b - a)), spec.lo, spec.hi)


# The Monte Carlo estimates and the benchmark references depend on every bit
# of the stream, so a sampler rewrite must not reorder a single operation.
@pytest.mark.parametrize("label", ["U(0,1)", "U(0,3)", "U(0.25,1.75)", "N(0.5,0.2)", "N(0.5,0.4)"])
@pytest.mark.parametrize("shape", [(1000, 7), (5000,)])
def test_draw_pins_the_sampler_stream(label, shape):
    spec = DistributionSpec.parse(label)
    got = draw(spec, shape, np.random.default_rng(17))
    want = _draw_out_of_place(spec, shape, np.random.default_rng(17))
    assert got.tobytes() == want.tobytes()
    assert sample(spec, 5000, seed=17).tobytes() == _draw_out_of_place(
        spec, 5000, np.random.default_rng(17)
    ).tobytes()


# A uniform prior's sampler, u * (hi - lo) + lo in two rounded steps, is
# non-decreasing, so each preimage is the least double that reaches its level.
@pytest.mark.parametrize("label", ["U(0,1)", "U(0,3)", "U(0.25,1.75)"])
def test_preimage_is_the_least_double_reaching_each_level(label):
    spec = DistributionSpec.parse(label)
    levels = spec.lo + (spec.hi - spec.lo) * np.random.default_rng(3).random(200)
    got = preimage(spec, levels)
    assert (got > 0.0).all() and (got < 1.0).all()
    at = spec.lo + got * (spec.hi - spec.lo)
    before = spec.lo + np.nextafter(got, 0.0) * (spec.hi - spec.lo)
    assert (at >= levels).all() and (before < levels).all()


def test_preimage_of_levels_outside_the_values():
    for spec in (UNIFORM, NORMAL_02):
        got = preimage(spec, [-1.0, spec.lo, np.nan, 2.0, np.inf])
        assert got.tolist() == [0.0, 0.0, 1.0, 1.0, 1.0]


def test_sample_rejects_bad_count():
    with pytest.raises(ValueError):
        sample(UNIFORM, 0, seed=1)
    with pytest.raises(TypeError):  # through ``_count``, as every other count
        sample(UNIFORM, 2.5, seed=1)


@pytest.mark.parametrize("spec", [UNIFORM, NORMAL_02, NORMAL_04], ids=lambda s: s.label())
def test_kolmogorov_smirnov_distance(spec):
    draws = np.sort(sample(spec, 1_000_000, seed=9))
    theory = cdf(spec, draws)
    empirical_hi = np.arange(1, draws.size + 1) / draws.size
    empirical_lo = np.arange(0, draws.size) / draws.size
    ks = max(np.abs(empirical_hi - theory).max(), np.abs(theory - empirical_lo).max())
    assert ks < 0.002


# ----------------------------------------------------------------- discretize


def test_discretize_uniform_quarters():
    seg = discretize(UNIFORM, 4)
    assert seg.masses == pytest.approx((0.25, 0.25, 0.25, 0.25), abs=1e-15)
    assert seg.delta == 0.25


def test_discretize_truncnorm_halves():
    seg = discretize(NORMAL_02, 2)
    assert seg.masses == pytest.approx((0.5, 0.5), abs=1e-14)


# U(0,0.9) at H=13: the last edge 0.9 * 13 / 13 rounds past 0.9 unless pinned
@pytest.mark.parametrize(
    "spec", [UNIFORM, NORMAL_02, NORMAL_04, DistributionSpec.parse("U(0,0.9)")],
    ids=lambda s: s.label(),
)
@pytest.mark.parametrize("H", [1, 3, 10, 13, 100])
def test_discretize_masses_sum_to_one(spec, H):
    seg = discretize(spec, H)
    assert abs(sum(seg.masses) - 1.0) <= 1e-12
    assert all(m >= 0.0 for m in seg.masses)


def test_discretize_uniform_density_recovery():
    # P(i) * H recovers the flat density exactly at every resolution
    for H in (10, 100, 1000):
        seg = discretize(UNIFORM, H)
        assert max(abs(m * H - 1.0) for m in seg.masses) < 1e-9


@pytest.mark.parametrize("H", [2.5, 2.0])
def test_discretize_takes_an_integer_count(H):
    # 2.5 used to fail on "need exactly H masses", and 2.0 built two segments
    with pytest.raises(TypeError, match=r"^H must be an integer, got 2\.[05]$"):
        discretize(UNIFORM, H)
    assert discretize(UNIFORM, np.int64(4)) == discretize(UNIFORM, 4)


@pytest.mark.parametrize(
    "name, call",
    [
        ("k", lambda: alpha(True)),
        ("k_max", lambda: verify_alpha_bound(True)),
        ("samples", lambda: SimulationConfig("cs", UNIFORM, n=True, samples=True, seed=0)),
        ("n", lambda: SimulationConfig("cs", UNIFORM, n=True, samples=10, seed=0)),
        ("n", lambda: sum_delay_lower_bound(UNIFORM, True, 10)),
        ("H", lambda: max_delay_lower_bound(UNIFORM, 2, True)),
        ("H", lambda: discretize(UNIFORM, True)),
        ("count", lambda: sample(UNIFORM, True, seed=1)),
        (
            "integration_grid_size",
            lambda: myerson_payment(cs_allocate, 0, TypeProfile((0.9, 0.8)), True),
        ),
    ],
    ids=["alpha", "verify_alpha_bound", "samples", "n", "sum_bound", "max_bound", "discretize",
         "sample", "myerson_payment"],
)
def test_a_bool_is_not_a_count(name, call):
    # each of these ran as 1: alpha(True) gave 1.0, and the Myerson payment 0.9
    with pytest.raises(TypeError, match=f"^{name} must be an integer, got True$"):
        call()


def test_segmented_distribution_validation():
    with pytest.raises(ValueError):
        SegmentedDistribution(H=0, delta=1.0, masses=())
    with pytest.raises(ValueError):
        SegmentedDistribution(H=2, delta=0.5, masses=(0.7, 0.7))
    with pytest.raises(ValueError):
        SegmentedDistribution(H=2, delta=0.5, masses=(1.2, -0.2))
