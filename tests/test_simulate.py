"""Tests for the seeded Monte Carlo estimators.

Statistical checks use fixed seeds, so every assertion here is
deterministic; tolerances are multiples of the standard error.
"""

import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polya_urn import (
    DomainError,
    EstimateWithCI,
    RngSeed,
    UrnConfig,
    beta_cdf_rational,
    definetti_estimator,
    equalization_probability,
    estimate_equalization,
    first_passage_dp,
)
from polya_urn import simulate
from polya_urn.simulate import _first_passage_hit_count, _ruin_values

from oracles import beta_by_order_statistics, limit_fraction_samples

SEED = RngSeed(20260810)


def z_against(p_hat: float, reference: float, n: int) -> float:
    se = math.sqrt(reference * (1.0 - reference) / n)
    return (p_hat - reference) / se


class TestRngSeed:
    def test_key_layout(self):
        expected = np.random.Generator(np.random.Philox(key=(3 << 64) | 5)).random(8)
        assert np.array_equal(RngSeed(5).generator(3).random(8), expected)

    def test_validation(self):
        with pytest.raises(DomainError):
            RngSeed(-1)
        with pytest.raises(DomainError):
            RngSeed(2**64)
        with pytest.raises(DomainError):
            RngSeed(True)
        with pytest.raises(DomainError):
            RngSeed(0).generator(-1)
        with pytest.raises(DomainError):
            RngSeed(0).generator(2**64)

    def test_same_key_same_stream(self):
        a = RngSeed(123).generator(7).random(8)
        b = RngSeed(123).generator(7).random(8)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngSeed(123).generator(0).random(8)
        b = RngSeed(123).generator(1).random(8)
        assert not np.array_equal(a, b)


class TestEstimateWithCI:
    def test_validation(self):
        invalid = [
            (0, 0, 0),  # no samples
            (10, 11, 5),  # total above n
            (10, 5, 6),  # total_sq above total
            (10, 5, -1),  # negative total_sq
            (10, -1, -1),  # negative total
            (10, math.nan, 0),
            (10, 5, math.nan),
        ]
        for n, total, total_sq in invalid:
            with pytest.raises(DomainError):
                EstimateWithCI(n, total, total_sq)

    def test_rounding_slack(self):
        """Sums a relative 1e-13 past their bounds are summation rounding, not errors."""
        est = EstimateWithCI(10, 10 * (1 + 1e-13), 10 * (1 + 2e-13))
        assert est.p_hat == 1.0

    def test_z_score(self):
        # mean 0.5 and unbiased variance 624.75/2499, so std_err = sqrt(1e-4)
        est = EstimateWithCI(2500, 1250, 1249.75)
        assert est.z_score(0.48) == pytest.approx(2.0)

    @given(
        n=st.integers(1, 10**9),
        mean=st.floats(0.0, 1.0),
        frac=st.floats(0.0, 1.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_derived_interval_is_consistent(self, n, mean, frac):
        """Any valid sums yield the clamped Wald pair and the sampling bound on std_err.

        The interval is derived, so a check that it brackets p_hat has
        nothing to catch.
        """
        total = mean * n
        est = EstimateWithCI(n, total, frac * total)
        p, se = est.p_hat, est.std_err
        lo, hi = est.ci95
        assert (lo, hi) == (max(0.0, p - simulate._Z95 * se), min(1.0, p + simulate._Z95 * se))
        assert 0.0 <= lo <= p <= hi <= 1.0
        assert est.degenerate == (se == 0.0)
        if n == 1:
            assert se == 0.0
        else:
            assert se**2 <= p * (1.0 - p) / (n - 1) + 1e-12


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

    def test_effective_samples_equals_hit_count(self):
        est = estimate_equalization(UrnConfig(2, 1), 0, 5, 100, SEED)
        hits = est.total
        assert hits > 0 and est.total_sq == hits and est.p_hat == hits / 100
        assert est.effective_samples == hits

    def test_std_err_is_the_sample_standard_error_of_hits(self):
        """0/1 values have unbiased sample variance n p(1-p)/(n-1)."""
        n = 1000
        est = estimate_equalization(UrnConfig(5, 3), 0, 30, n, SEED)
        p = est.p_hat
        assert 0.0 < p < 1.0
        assert est.std_err == pytest.approx(math.sqrt(p * (1.0 - p) / (n - 1)), rel=1e-12)

    def test_more_streams_than_samples(self):
        est = estimate_equalization(UrnConfig(2, 1), 0, 20, 3, SEED, n_streams=8)
        assert est.n_samples == 3
        # streams past the third get no samples, however many there are
        most = estimate_equalization(UrnConfig(2, 1), 0, 20, 3, SEED, n_streams=2**64 - 1)
        assert est == most == estimate_equalization(UrnConfig(2, 1), 0, 20, 3, SEED, 3)

    def test_validation(self):
        for n in (0, -1):
            with pytest.raises(DomainError, match="n_samples must be >= 1"):
                estimate_equalization(UrnConfig(2, 1), 0, 10, n, SEED)
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
        lhs = estimate_equalization(config, 0, 100, n, SEED).p_hat
        rhs = _first_passage_hit_count(config, 0, 100, n, SEED.generator(1000)) / n
        pooled = (lhs + rhs) / 2
        z = (lhs - rhs) / math.sqrt(pooled * (1 - pooled) * 2 / n)
        assert abs(z) < 3.891


class TestBetaOrderStatistic:
    def test_single_uniform_case(self):
        rng_a = RngSeed(11).generator()
        rng_b = RngSeed(11).generator()
        draws = beta_by_order_statistics(1, 1, 5, rng_a)
        assert np.array_equal(draws, rng_b.random(5))

    def test_selects_bth_smallest_of_each_row(self):
        draws = beta_by_order_statistics(3, 2, 100, RngSeed(11).generator())
        rows = RngSeed(11).generator().random((100, 4))
        assert np.array_equal(draws, np.sort(rows, axis=1)[:, 2])

    def test_mean_matches_beta(self):
        rng = SEED.generator()
        n = 200_000
        draws = beta_by_order_statistics(3, 2, n, rng)
        se = draws.std(ddof=1) / math.sqrt(n)
        assert abs(draws.mean() - 0.6) < 4 * se

    def test_cdf_at_half_matches_rational(self):
        rng = SEED.generator()
        n = 200_000
        draws = beta_by_order_statistics(3, 2, n, rng)
        reference = float(beta_cdf_rational(UrnConfig(3, 2), "1/2"))
        assert abs(z_against(float((draws < 0.5).mean()), reference, n)) < 4


class TestDefinettiEstimator:
    @pytest.mark.parametrize("b, w", [(2, 1), (3, 2)])
    def test_matches_exact_value(self, b, w):
        config = UrnConfig(b, w)
        est = definetti_estimator(config, 10**5, SEED)
        assert abs(est.z_score(float(equalization_probability(config)))) < 4

    def test_needs_a_sample(self):
        for n in (0, -1):
            with pytest.raises(DomainError, match="n_samples must be >= 1"):
                definetti_estimator(UrnConfig(2, 1), n, SEED)

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

    @pytest.mark.parametrize("chunk_rows", [7, simulate._CHUNK_ROWS])
    @pytest.mark.parametrize("b, w", [(2, 1), (5, 3), (50, 30)])
    def test_consumes_one_beta_draw_per_sample(self, monkeypatch, chunk_rows, b, w):
        """The estimate is the mean over one ``Generator.beta`` call, at any chunk size."""
        monkeypatch.setattr(simulate, "_CHUNK_ROWS", chunk_rows)
        n = 10_000
        est = definetti_estimator(UrnConfig(b, w), n, SEED)
        expected = float(_ruin_values(SEED.generator().beta(b, w, n), b - w).mean())
        assert est.p_hat == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("b, w", [(2, 1), (50, 30), (500, 300)])
    def test_effective_samples_is_kish(self, b, w):
        """(sum v)^2 / sum v^2 over the same ``Generator.beta`` draws the mean uses."""
        n = 10_000
        est = definetti_estimator(UrnConfig(b, w), n, SEED)
        values = _ruin_values(SEED.generator().beta(b, w, n), b - w)
        kish = values.sum() ** 2 / np.square(values).sum()
        assert est.effective_samples == pytest.approx(kish, rel=1e-9)
        assert 0 < est.effective_samples <= n * (1 + 1e-12)

    def test_effective_samples_zero_when_every_value_is(self):
        est = definetti_estimator(UrnConfig(3000, 2), 1000, SEED)
        assert est.p_hat == 0.0 and est.effective_samples == 0.0

    @pytest.mark.parametrize("b, w", [(3, 2), (50, 30)])
    def test_agrees_with_order_statistic_oracle(self, b, w):
        """Two-sample test against ruin values over order-statistic Beta draws."""
        n = 10**5
        est = definetti_estimator(UrnConfig(b, w), n, SEED)
        rng = SEED.generator(1000)
        values = _ruin_values(beta_by_order_statistics(b, w, n, rng), b - w)
        oracle_se = values.std(ddof=1) / math.sqrt(n)
        z = (est.p_hat - values.mean()) / math.hypot(est.std_err, oracle_se)
        assert abs(z) < 4

    def test_cost_does_not_grow_with_urn_size(self):
        """10^5 samples at b + w = 8000; order statistics would draw 8*10^8 uniforms."""
        start = time.monotonic()
        definetti_estimator(UrnConfig(5000, 3000), 10**5, SEED)
        assert time.monotonic() - start < 3.0

    @given(
        st.lists(st.sampled_from([0.0, 0.5]) | st.floats(1e-9, 1 - 1e-9), min_size=1, max_size=50),
        st.integers(1, 3000),
    )
    @example([0.0, 0.5], 1)
    @example([0.0, 0.1, 0.5], 2998)
    @settings(max_examples=100, deadline=None)
    def test_every_summand_lies_in_unit_interval(self, ps, excess):
        """p = 0 divides by zero and small p overflow at large excess; neither warns."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = _ruin_values(np.array(ps), excess)
        assert np.all(values >= 0.0) and np.all(values <= 1.0)
        below_half = np.array(ps) <= 0.5
        assert np.all(values[below_half] == 1.0)


class TestLimitFraction:
    def test_zero_steps(self):
        fractions = limit_fraction_samples(1, 1, 0, 3, SEED.generator())
        assert np.array_equal(fractions, [0.5, 0.5, 0.5])

    def test_mean_is_martingale_limit(self):
        rng = SEED.generator()
        fractions = limit_fraction_samples(2, 1, 1000, 100_000, rng)
        se = fractions.std(ddof=1) / math.sqrt(fractions.size)
        assert abs(float(fractions.mean()) - 2 / 3) < 4 * se

    def test_limit_law_cdf_at_half(self):
        """P(fraction < 1/2) nears the Beta(3,2) CDF 5/16; 5 sigma for finite n."""
        rng = SEED.generator()
        fractions = limit_fraction_samples(3, 2, 1000, 100_000, rng)
        reference = 5 / 16
        assert abs(z_against(float((fractions < 0.5).mean()), reference, fractions.size)) < 5
