"""Tests for the seeded Monte Carlo estimators.

Statistical checks use fixed seeds, so every assertion here is
deterministic; tolerances are multiples of the standard error.
"""

import functools
import math
import time
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polya_urn import (
    DomainError,
    EstimateWithCI,
    ResourceLimitError,
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

from oracles import (
    beta_by_order_statistics,
    direct_step_hits_by_levels,
    direct_step_hits_by_path,
    limit_fraction_samples,
)

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

    def test_a_non_int_seed_is_named_by_its_repr(self):
        with pytest.raises(DomainError, match=r"^seed must be a 64-bit unsigned int, got True$"):
            RngSeed(True)

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

    @pytest.mark.parametrize(
        "config, horizon",
        [(UrnConfig(2**63, 1), 0), (UrnConfig(2**63 - 3, 2**64), 3), (UrnConfig(1, 1), 2**63 - 1)],
    )
    def test_path_state_past_int64_refused_before_any_draw(self, monkeypatch, config, horizon):
        def drew(*args):
            raise AssertionError("drew paths")

        monkeypatch.setattr(simulate, "_first_passage_hit_count", drew)
        with pytest.raises(ResourceLimitError, match=r"int64 path-state limit .* 2\^63 - 1$"):
            estimate_equalization(config, 0, horizon, 2, SEED)

    def test_horizon_past_the_memory_budget_refused_before_any_draw(self, monkeypatch):
        """One stream's hit counts take 8 bytes a draw; 10^12 draws would raise
        MemoryError on allocating them."""
        def drew(*args):
            raise AssertionError("drew paths")

        monkeypatch.setattr(simulate, "_first_passage_hit_count", drew)
        refusal = r"^horizon 1000000000000 needs ~8000000000008 bytes"
        with pytest.raises(ResourceLimitError, match=refusal):
            estimate_equalization(UrnConfig(2, 1), 0, 10**12, 10, SEED)

    def test_path_state_at_the_int64_limit(self):
        # b + horizon = 2^63 - 1: every path's b + blacks still fits an int64
        config = UrnConfig(2**63 - 4, 2**63 - 5)
        est = estimate_equalization(config, 0, 3, 4000, SEED)
        reference = float(first_passage_dp(config, 0, 3).cumulative)
        assert abs(est.z_score(reference)) < 4

    def test_oracle_agreement_moderate(self):
        config = UrnConfig(3, 2)
        est = estimate_equalization(config, 0, 200, 10**5, SEED, 4)
        reference = float(first_passage_dp(config, 0, 200).cumulative)
        assert abs(est.z_score(reference)) < 4

    @pytest.mark.parametrize("target", [-2, 4])
    @pytest.mark.parametrize("extra", [0, 1, 197])
    def test_pruning_edges_match_dp(self, target, extra):
        """Dropping paths out of reach keeps P(tau <= horizon) unbiased.

        Targets 3 below and 3 above S0 = 1, at horizons 3 (only the straight
        run hits), 4 and 200.
        """
        config = UrnConfig(3, 2)
        horizon = abs(config.initial_excess - target) + extra
        est = estimate_equalization(config, target, horizon, 10**5, SEED, 2)
        reference = float(first_passage_dp(config, target, horizon).cumulative)
        assert 0.0 < reference < 1.0
        assert abs(est.z_score(reference)) < 4

    @pytest.mark.parametrize("b, w", [(2, 1), (3, 2), (4, 1), (5, 3)])
    def test_disjoint_streams_agree_statistically(self, b, w):
        """Two-sample proportion test against the per-path oracle at the 1e-4
        level (|z| < 3.891)."""
        config = UrnConfig(b, w)
        n = 10**5
        lhs = estimate_equalization(config, 0, 100, n, SEED).p_hat
        rhs = sum(direct_step_hits_by_path(b, w, 0, 100, n, SEED.generator(1000))) / n
        pooled = (lhs + rhs) / 2
        z = (lhs - rhs) / math.sqrt(pooled * (1 - pooled) * 2 / n)
        assert abs(z) < 3.891


def oracle_total(oracle, b, w, target, horizon, n_samples, n_streams, seed):
    """Hits summed over the blocks, block t of ``oracle`` on Philox key t * 2^64 + seed."""
    base, rem = divmod(n_samples, n_streams)
    return sum(
        sum(oracle(
            b, w, target, horizon, base + (t < rem),
            np.random.Generator(np.random.Philox(key=(t << 64) | seed)),
        ))
        for t in range(min(n_streams, n_samples))
    )


_KERNEL_CASES = dict(
    b=st.one_of(st.integers(1, 6), st.just(2**31 - 5), st.just(2**53 + 1)),
    w=st.integers(1, 6),
    offset=st.integers(-4, 4),
    horizon=st.integers(0, 30),
    n_streams=st.integers(1, 6),
    seed=st.integers(0, 2**64 - 1),
)


class TestDirectKernel:
    """The level-count kernel draws and decides as the oracles do."""

    @settings(max_examples=60, deadline=None)
    @given(
        n_samples=st.integers(1, 6 * 10**5),
        few_paths=st.sampled_from([0, simulate._FEW_PATHS]),
        **_KERNEL_CASES,
    )
    # past 2^53, float64 rounds b + blacks; one stream of 10^5 paths at h = 30;
    # 40 paths end in lists
    @example(
        b=3, w=2, offset=-1, horizon=30, n_samples=10**5, n_streams=1, seed=1, few_paths=0
    )
    @example(
        b=2**53 + 1, w=3, offset=6, horizon=30, n_samples=40, n_streams=3, seed=5, few_paths=0
    )
    @example(
        b=3, w=2, offset=-1, horizon=30, n_samples=40, n_streams=1, seed=3,
        few_paths=simulate._FEW_PATHS,
    )
    def test_hits_equal_the_full_width_level_oracle(
        self, b, w, offset, horizon, n_samples, n_streams, seed, few_paths
    ):
        """Trimming the window to its live levels draws nothing the full width
        would not, since a zero count draws nothing, so every step's hits are
        equal; so are those of the last ``_FEW_PATHS`` paths, stepped by path."""
        target = b - w + offset
        oracle = functools.partial(direct_step_hits_by_levels, few_paths=few_paths)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulate, "_FEW_PATHS", few_paths)
            step_hits = _first_passage_hit_count(
                UrnConfig(b, w), target, horizon, n_samples, RngSeed(seed).generator()
            )
            est = estimate_equalization(
                UrnConfig(b, w), target, horizon, n_samples, RngSeed(seed), n_streams
            )
        assert step_hits == oracle(b, w, target, horizon, n_samples, RngSeed(seed).generator())
        assert est.total == oracle_total(oracle, b, w, target, horizon, n_samples, n_streams, seed)

    @pytest.mark.parametrize("n_streams", [2, 3])
    def test_large_streams_match_the_level_oracle(self, n_streams):
        """Two streams of about 2^16 paths, or three of about 43,700, stepped
        at the default ``_FEW_PATHS`` as the level-count oracle steps them; the
        size is a literal, so tuning another route's constants cannot resize
        this test."""
        n = 2 * 65536 + 3
        est = estimate_equalization(UrnConfig(5, 3), 0, 25, n, SEED, n_streams)
        oracle = functools.partial(direct_step_hits_by_levels, few_paths=simulate._FEW_PATHS)
        assert est.total == oracle_total(oracle, 5, 3, 0, 25, n, n_streams, SEED.seed)

    @settings(max_examples=60, deadline=None)
    @given(n_samples=st.integers(1, simulate._FEW_PATHS), **_KERNEL_CASES)
    @example(b=3, w=2, offset=2, horizon=30, n_samples=5, n_streams=1, seed=2)
    def test_few_paths_total_equals_the_per_path_oracle(
        self, b, w, offset, horizon, n_samples, n_streams, seed
    ):
        """Every stream holds at most ``_FEW_PATHS`` paths, so each steps them
        all in Python lists, which draw and decide as the per-path oracle does."""
        target = b - w + offset
        est = estimate_equalization(
            UrnConfig(b, w), target, horizon, n_samples, RngSeed(seed), n_streams
        )
        assert est.total == oracle_total(
            direct_step_hits_by_path, b, w, target, horizon, n_samples, n_streams, seed
        )

    @pytest.mark.parametrize("few_paths", [3, simulate._FEW_PATHS])
    def test_three_paths_take_the_doubles_of_one_call_in_order(self, monkeypatch, few_paths):
        """A list step's L paths take the doubles of one ``random(L)`` call,
        path i the i-th, in every stream of at most ``_FEW_PATHS`` paths.

        From (2, 1), one draw reaches target 2 iff it is black, so the hits
        of the first 1, 2 and 3 paths of a fresh stream give each path's
        decision.  Paths on levels 2, 3 and 4, of which only path 2 can
        reach level 5, tell this order from the reversed one, which key 2
        decides differently.
        """
        monkeypatch.setattr(simulate, "_FEW_PATHS", few_paths)
        key = 2
        doubles = np.random.Generator(np.random.Philox(key=key)).random(4).tolist()
        by_hand = [int(u < 2 / 3) for u in doubles[:3]]  # u < b / (b + w)
        assert by_hand != by_hand[::-1]
        decisions = []
        for paths in (1, 2, 3):
            rng = np.random.Generator(np.random.Philox(key=key))
            step_hits = _first_passage_hit_count(UrnConfig(2, 1), 2, 1, paths, rng)
            decisions.append(step_hits[1] - sum(decisions))
        assert decisions == by_hand
        # the 3-path step took exactly 3 doubles
        assert rng.random() == doubles[3]

        hits = [0, 0]
        rng = np.random.Generator(np.random.Philox(key=key))
        simulate._list_steps(iter([(0, 6.0, (5, None))]), [2, 3, 4], 1, rng.random, hits)
        assert hits[1] == by_hand[2]  # u < 4 / 6 from the third double

    def test_lists_round_path_state_as_numpy_does(self):
        """Past 2^53, float64 rounds b + blacks, in lists as in the window's
        ``held / size``.

        held = 2^53 + 1 rounds to 2^53, so at size 2^54 the path's
        probability is exactly 0.5 and u = 0.5 draws white, where an exact
        compare would draw black and hit level 2^53 + 2.
        """
        held, level = 2**53 + 1, 2**53 + 2
        assert np.int64(held) / 2.0**54 == 0.5 < Fraction(held, 2**54)

        def random(size):
            return np.full(size, 0.5)

        hits = [0, 0]
        simulate._list_steps(iter([(0, 2.0**54, (level, None))]), [held], 1, random, hits)
        assert hits == [0, 0]

    def test_unreachable_target_draws_nothing(self):
        """A target further than the horizon from S0 returns no hits before any draw."""
        rng = SEED.generator()
        before = rng.bit_generator.state
        assert _first_passage_hit_count(UrnConfig(2, 1), -300, 250, 10**6, rng) == [0] * 251
        np.testing.assert_equal(rng.bit_generator.state, before)

    def test_block_memory_is_a_few_bytes_a_path(self):
        """A few int64 and float64 arrays of at most horizon + 1 levels, the
        horizon + 1 hit counts and numpy's fixed buffers (about 17 KiB at
        the first draw): a bound in the horizon that does not grow with the
        paths."""
        horizon = 200
        for paths in (10**4, 10**8):
            rng = SEED.generator()
            tracemalloc.start()
            try:
                _first_passage_hit_count(UrnConfig(5, 3), 0, horizon, paths, rng)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 64 * (horizon + 1) + 32 * 1024


def dkw_tail(step_hits: list[int], pmf, n: int) -> float:
    """2 exp(-2 n D^2), D the Kolmogorov distance between the empirical
    cumulative of min(tau, horizon + 1) over n paths and the exact one.

    Both cumulatives reach 1 at horizon + 1, so D is their largest gap at
    0..horizon; by the DKW inequality with Massart's constant (Ann. Probab.
    18, 1990) the tail bounds P(D_n >= D) for a sampler of the true law.
    """
    gap = hits = 0
    exact = Fraction(0)
    for count, p in zip(step_hits, pmf, strict=True):
        hits += count
        exact += p
        gap = max(gap, abs(Fraction(hits, n) - exact))
    return 2 * math.exp(-2 * n * float(gap) ** 2)


# (b, w, target, horizon): targets on both sides of S0, horizons at the
# pruning edges |S0 - m| (only the straight run hits) and |S0 - m| + 1, and
# far past them
_LAWS = [
    (3, 2, -2, 3), (3, 2, -2, 4), (3, 2, -2, 200),
    (3, 2, 4, 3), (3, 2, 4, 4), (3, 2, 4, 200),
    (5, 3, -2, 4), (5, 3, -2, 5), (5, 3, 0, 200), (50, 30, -4, 300),
    (2, 1, 0, 2001),
]


class TestFirstPassageLaw:
    """The whole law of min(tau, horizon + 1), not only P(tau <= horizon)."""

    @pytest.mark.parametrize(
        "sampler",
        [
            direct_step_hits_by_path,
            lambda b, w, *rest: _first_passage_hit_count(UrnConfig(b, w), *rest),
        ],
        ids=["per-path oracle", "kernel"],
    )
    @pytest.mark.parametrize("b, w, target, horizon", _LAWS)
    def test_per_step_hits_follow_the_dp_pmf(self, b, w, target, horizon, sampler):
        n = 20_000 if horizon > 1000 else 10**5
        pmf = first_passage_dp(UrnConfig(b, w), target, horizon).hit_pmf
        step_hits = sampler(b, w, target, horizon, n, SEED.generator())
        assert len(step_hits) == horizon + 1
        assert dkw_tail(step_hits, pmf, n) > 1e-6


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

    @pytest.mark.parametrize("b, w", [(3, 5), (1, 4), (2, 9), (2, 3)])
    def test_matches_exact_value_without_a_majority(self, b, w):
        """The one ruin formula answers b < w too, with the color-swapped urn's value."""
        config = UrnConfig(b, w)
        est = definetti_estimator(config, 2 * 10**6, SEED)
        assert abs(est.z_score(float(equalization_probability(config)))) < 4

    @pytest.mark.parametrize("k", [1, 4, 50])
    def test_a_tie_estimates_exactly_one(self, k):
        est = definetti_estimator(UrnConfig(k, k), 1000, SEED)
        assert est.p_hat == 1.0 and est.degenerate and est.ci95 == (1.0, 1.0)

    @pytest.mark.parametrize("b", [2**1024 - 2**970, 2**1100], ids=["2^1024-2^970", "2^1100"])
    def test_b_past_the_float_range_refused_before_any_draw(self, monkeypatch, b):
        """The rule ``cost.check`` applies for the CLI, with the same message."""
        def drew(*args):
            raise AssertionError("drew Beta variates")

        monkeypatch.setattr(RngSeed, "generator", drew)
        with pytest.raises(
            ResourceLimitError,
            match=rf"^b = {b} exceeds the float range of the de Finetti estimator, below 2\^1024$",
        ):
            definetti_estimator(UrnConfig(b, 3), 10, SEED)

    def test_b_at_the_float_range_runs(self):
        # the largest int that float() rounds to the largest finite float
        est = definetti_estimator(UrnConfig(2**1024 - 2**970 - 1, 3), 10, SEED)
        assert est.p_hat == 0.0

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

    @pytest.mark.timing
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
