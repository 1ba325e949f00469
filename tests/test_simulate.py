"""Tests for the seeded Monte Carlo estimators.

Statistical checks use fixed seeds, so every assertion here is
deterministic; tolerances are multiples of the standard error.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polya_urn import (
    BetaParams,
    DomainError,
    EstimateWithCI,
    RngSeed,
    UrnConfig,
    beta_cdf_rational,
    definetti_estimator,
    equalization_probability,
    estimate_equalization,
    first_passage_dp,
    limit_fraction_samples,
    sample_beta_order_statistics,
)
from polya_urn.simulate import _ruin_values

SEED = RngSeed(20260810)


def z_against(p_hat: float, reference: float, n: int) -> float:
    se = math.sqrt(reference * (1.0 - reference) / n)
    return (p_hat - reference) / se


class TestRngSeed:
    def test_key_layout(self):
        assert RngSeed(5, 3).philox_key() == (3 << 64) | 5

    def test_validation(self):
        with pytest.raises(DomainError):
            RngSeed(-1)
        with pytest.raises(DomainError):
            RngSeed(2**64)
        with pytest.raises(DomainError):
            RngSeed(0, -2)

    def test_with_stream(self):
        assert RngSeed(9, 1).with_stream(4) == RngSeed(9, 5)

    def test_same_key_same_stream(self):
        a = RngSeed(123, 7).generator().random(8)
        b = RngSeed(123, 7).generator().random(8)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngSeed(123, 0).generator().random(8)
        b = RngSeed(123, 1).generator().random(8)
        assert not np.array_equal(a, b)


class TestEstimateWithCI:
    def test_validation(self):
        with pytest.raises(DomainError):
            EstimateWithCI(1.5, 0.0, (1.5, 1.5), 10)
        with pytest.raises(DomainError):
            EstimateWithCI(0.5, -0.1, (0.4, 0.6), 10)
        with pytest.raises(DomainError):
            EstimateWithCI(0.5, 0.01, (0.6, 0.7), 10)
        with pytest.raises(DomainError):
            EstimateWithCI(0.5, 0.9, (0.0, 1.0), 100)  # impossible std err

    def test_z_score(self):
        est = EstimateWithCI(0.5, 0.01, (0.48, 0.52), 2500)
        assert est.z_score(0.48) == pytest.approx(2.0)


class TestEstimateEqualization:
    @pytest.mark.parametrize(
        "horizon, reference",
        [(0, 0.0), (1, 1 / 3), (3, 2 / 5)],
    )
    def test_short_horizons_match_dp(self, horizon, reference):
        est = estimate_equalization(UrnConfig(2, 1), 0, horizon, 10**6, SEED, 4)
        assert abs(est.z_score(reference)) < 4

    def test_reproducible_across_calls(self):
        a = estimate_equalization(UrnConfig(3, 2), 0, 50, 40_000, SEED, 8)
        b = estimate_equalization(UrnConfig(3, 2), 0, 50, 40_000, SEED, 8)
        assert a == b

    def test_single_sample_is_degenerate(self):
        est = estimate_equalization(UrnConfig(2, 1), 0, 5, 1, SEED)
        assert est.p_hat in (0.0, 1.0)
        assert est.std_err == 0.0
        assert est.degenerate

    def test_start_on_target(self):
        est = estimate_equalization(UrnConfig(4, 4), 0, 10, 100, SEED)
        assert est.p_hat == 1.0 and est.degenerate

    def test_more_streams_than_samples(self):
        est = estimate_equalization(UrnConfig(2, 1), 0, 20, 3, SEED, n_streams=8)
        assert est.n_samples == 3

    def test_validation(self):
        with pytest.raises(DomainError):
            estimate_equalization(UrnConfig(2, 1), 0, 10, 0, SEED)
        with pytest.raises(DomainError):
            estimate_equalization(UrnConfig(2, 1), 0, 10, 5, SEED, n_streams=0)
        with pytest.raises(DomainError):
            estimate_equalization(UrnConfig(2, 1), 0, -1, 5, SEED)

    def test_oracle_agreement_moderate(self):
        config = UrnConfig(3, 2)
        est = estimate_equalization(config, 0, 200, 10**5, SEED, 4)
        reference = float(first_passage_dp(config, 0, 200).cumulative)
        assert abs(est.z_score(reference)) < 4

    @pytest.mark.parametrize("b, w", [(2, 1), (3, 2), (4, 1), (5, 3)])
    def test_disjoint_streams_agree_statistically(self, b, w):
        """Two-sample proportion test at the 1e-4 level (|z| < 3.891)."""
        config = UrnConfig(b, w)
        n = 10**5
        lhs = estimate_equalization(config, 0, 100, n, RngSeed(20260810, 0))
        rhs = estimate_equalization(config, 0, 100, n, RngSeed(20260810, 1000))
        pooled = (lhs.p_hat + rhs.p_hat) / 2
        z = (lhs.p_hat - rhs.p_hat) / math.sqrt(pooled * (1 - pooled) * 2 / n)
        assert abs(z) < 3.891


class TestBetaOrderStatistic:
    def test_single_uniform_case(self):
        rng_a = RngSeed(11).generator()
        rng_b = RngSeed(11).generator()
        draws = sample_beta_order_statistics(BetaParams(1, 1), 5, rng_a)
        assert np.array_equal(draws, rng_b.random(5))

    def test_selects_bth_smallest_of_each_row(self):
        draws = sample_beta_order_statistics(BetaParams(3, 2), 100, RngSeed(11).generator())
        rows = RngSeed(11).generator().random((100, 4))
        assert np.array_equal(draws, np.sort(rows, axis=1)[:, 2])

    def test_mean_matches_beta(self):
        rng = SEED.generator()
        n = 200_000
        draws = sample_beta_order_statistics(BetaParams(3, 2), n, rng)
        se = draws.std(ddof=1) / math.sqrt(n)
        assert abs(draws.mean() - 0.6) < 4 * se

    def test_cdf_at_half_matches_rational(self):
        rng = SEED.generator()
        n = 200_000
        draws = sample_beta_order_statistics(BetaParams(3, 2), n, rng)
        reference = float(beta_cdf_rational(BetaParams(3, 2), "1/2"))
        assert abs(z_against(float((draws < 0.5).mean()), reference, n)) < 4


class TestDefinettiEstimator:
    @pytest.mark.parametrize("b, w", [(2, 1), (3, 2)])
    def test_matches_exact_value(self, b, w):
        config = UrnConfig(b, w)
        est = definetti_estimator(config, 10**5, SEED)
        assert abs(est.z_score(float(equalization_probability(config)))) < 4

    def test_requires_majority(self):
        with pytest.raises(DomainError):
            definetti_estimator(UrnConfig(2, 2), 100, SEED)
        with pytest.raises(DomainError):
            definetti_estimator(UrnConfig(1, 3), 100, SEED)

    def test_reproducible(self):
        a = definetti_estimator(UrnConfig(5, 3), 50_000, SEED)
        b = definetti_estimator(UrnConfig(5, 3), 50_000, SEED)
        assert a == b

    def test_single_sample_degenerate(self):
        est = definetti_estimator(UrnConfig(2, 1), 1, SEED)
        assert est.std_err == 0.0 and est.degenerate

    @given(st.lists(st.floats(1e-9, 1 - 1e-9), min_size=1, max_size=50), st.integers(1, 9))
    @settings(max_examples=100, deadline=None)
    def test_every_summand_lies_in_unit_interval(self, ps, excess):
        values = _ruin_values(np.array(ps), excess)
        assert np.all(values >= 0.0) and np.all(values <= 1.0)
        below_half = np.array(ps) <= 0.5
        assert np.all(values[below_half] == 1.0)


class TestLimitFraction:
    def test_zero_steps(self):
        fractions = limit_fraction_samples(UrnConfig(1, 1), 0, 3, SEED.generator())
        assert np.array_equal(fractions, [0.5, 0.5, 0.5])

    def test_mean_is_martingale_limit(self):
        rng = SEED.generator()
        fractions = limit_fraction_samples(UrnConfig(2, 1), 1000, 100_000, rng)
        se = fractions.std(ddof=1) / math.sqrt(fractions.size)
        assert abs(float(fractions.mean()) - 2 / 3) < 4 * se

    def test_limit_law_cdf_at_half(self):
        """P(fraction < 1/2) nears the Beta(3,2) CDF 5/16; 5 sigma for finite n."""
        rng = SEED.generator()
        fractions = limit_fraction_samples(UrnConfig(3, 2), 1000, 100_000, rng)
        reference = 5 / 16
        assert abs(z_against(float((fractions < 0.5).mean()), reference, fractions.size)) < 5

    def test_validation(self):
        with pytest.raises(DomainError):
            limit_fraction_samples(UrnConfig(2, 1), -1, 5, SEED.generator())
        with pytest.raises(DomainError):
            limit_fraction_samples(UrnConfig(2, 1), 5, 0, SEED.generator())
