"""Tests for the exact first-passage pmf and the sequence-enumeration oracles."""

import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polya_urn import (
    DomainError,
    DPTable,
    ResourceLimitError,
    UrnConfig,
    cost,
    equalization_probability,
    first_passage_dp,
)
from polya_urn.cost import estimate_dp_memory_bytes, max_feasible_horizon

from oracles import (
    black_count_pmfs_by_stepping,
    enumerate_sequences,
    first_passage_pmf_by_paths,
    first_passage_pmf_by_recursion,
    sequence_probability_by_stepping,
)

SMALL_CONFIGS = [
    UrnConfig(b, w) for total in range(2, 7) for b in range(1, total) for w in [total - b]
]


class TestFirstPassageDP:
    def test_one_step_hit(self):
        table = first_passage_dp(UrnConfig(2, 1), 0, 1)
        assert table.hit_pmf == (Fraction(0), Fraction(1, 3))
        assert table.cumulative == Fraction(1, 3)

    def test_three_step_table(self):
        table = first_passage_dp(UrnConfig(2, 1), 0, 3)
        assert table.horizon == len(table.hit_pmf) - 1 == 3
        assert table.hit_pmf[3] == Fraction(1, 15)  # the single B,W,W path
        assert table.cumulative == Fraction(2, 5)

    def test_starts_on_target(self):
        table = first_passage_dp(UrnConfig(2, 1), 1, 0)
        assert table.hit_pmf == (Fraction(1),)
        assert table.cumulative == 1

    def test_equal_start_equalizes_at_zero(self):
        table = first_passage_dp(UrnConfig(3, 3), 0, 10)
        assert table.hit_pmf[0] == 1
        assert all(p == 0 for p in table.hit_pmf[1:])

    def test_horizon_zero_off_target(self):
        table = first_passage_dp(UrnConfig(2, 1), 0, 0)
        assert table.cumulative == 0

    def test_negative_horizon_rejected(self):
        with pytest.raises(DomainError):
            first_passage_dp(UrnConfig(2, 1), 0, -1)

    @pytest.mark.parametrize("config", SMALL_CONFIGS, ids=str)
    def test_matches_path_enumeration(self, config):
        """DP and brute-force path walking agree exactly through n = 14."""
        oracle = first_passage_pmf_by_paths(config.black, config.white, 0, 14)
        table = first_passage_dp(config, 0, 14)
        assert list(table.hit_pmf) == oracle

    @pytest.mark.parametrize("target", [-1, -2, 2, 3])
    def test_general_levels_match_path_enumeration(self, target):
        for config in [UrnConfig(2, 1), UrnConfig(2, 2), UrnConfig(1, 3)]:
            oracle = first_passage_pmf_by_paths(config.black, config.white, target, 12)
            table = first_passage_dp(config, target, 12)
            assert list(table.hit_pmf) == oracle

    @pytest.mark.parametrize(
        "b, w, target, horizon",
        [(b, w, t, 41) for b in range(1, 8) for w in range(1, 8) for t in range(-7, 8)]
        + [(2, 1, 0, 300), (3, 9, 5, 300), (4, 6, -9, 301), (50, 30, -4, 300), (5, 3, 12, 299)]
        + [(500, 300, 0, 300), (2000, 1999, 0, 200), (2, 1, -150, 301)],
    )
    def test_matches_recursion_oracle(self, b, w, target, horizon):
        """Hitting-time formula and the O(h^2) forward recursion agree exactly."""
        table = first_passage_dp(UrnConfig(b, w), target, horizon)
        assert list(table.hit_pmf) == first_passage_pmf_by_recursion(b, w, target, horizon)

    @pytest.mark.parametrize("target", [-10**7, 10**7])
    def test_target_out_of_reach_is_all_zero(self, target):
        """A target farther than the horizon is never hit, and costs nothing."""
        table = first_passage_dp(UrnConfig(2, 1), target, 10)
        assert table.hit_pmf == (Fraction(0),) * 11
        assert table.cumulative == 0

    def test_far_target_long_horizon_is_fast(self):
        """An unreachable target at a 2e6 horizon validates its zeros in under 3 s."""
        start = time.monotonic()
        table = first_passage_dp(UrnConfig(2, 1), -10**7, 2 * 10**6)
        assert table.cumulative == 0
        assert time.monotonic() - start < 3.0

    def test_large_urn_pmf_is_fast(self):
        """The pmf of a million-ball urn to horizon 4000 takes well under 3 s."""
        start = time.monotonic()
        table = first_passage_dp(UrnConfig(500001, 500000), 0, 4000)
        assert 0 < table.cumulative < 1
        assert time.monotonic() - start < 3.0

    def test_parity(self):
        table = first_passage_dp(UrnConfig(2, 1), 0, 11)
        assert all(table.hit_pmf[n] == 0 for n in range(0, 12, 2))
        table = first_passage_dp(UrnConfig(5, 3), 0, 11)
        assert all(table.hit_pmf[n] == 0 for n in range(1, 12, 2))

    def test_cumulative_nondecreasing_across_horizons(self):
        short = first_passage_dp(UrnConfig(3, 2), 0, 40)
        long = first_passage_dp(UrnConfig(3, 2), 0, 80)
        assert long.hit_pmf[: 41] == short.hit_pmf
        assert long.cumulative >= short.cumulative

    @pytest.mark.parametrize("b, w", [(2, 1), (3, 2), (5, 3)])
    def test_converges_to_exact_from_below(self, b, w):
        config = UrnConfig(b, w)
        exact = equalization_probability(config).value
        table = first_passage_dp(config, 0, 120)
        previous_gap = None
        for n in (30, 60, 120):
            cum = sum(table.hit_pmf[: n + 1])
            assert cum < exact
            gap = exact - cum
            if previous_gap is not None:
                assert gap < previous_gap
            previous_gap = gap


class TestDPTableValidation:
    def test_repr_names_the_urn_and_target_only(self):
        """No pmf term in the repr, so a table of huge terms still has one."""
        table = first_passage_dp(UrnConfig(500001, 500000), 0, 4000)
        assert repr(table) == "DPTable(config=UrnConfig(black=500001, white=500000), target_diff=0)"

    def test_empty_pmf_rejected(self):
        with pytest.raises(DomainError):
            DPTable(UrnConfig(2, 1), 0, ())

    def test_parity_violation_rejected(self):
        with pytest.raises(DomainError):
            DPTable(UrnConfig(2, 1), 0, (Fraction(0), Fraction(0), Fraction(1, 3)))

    def test_negative_term_rejected(self):
        with pytest.raises(DomainError, match=r"^P\(tau=1\) must be >= 0, got -1/3$"):
            DPTable(UrnConfig(2, 1), 0, (Fraction(0), Fraction(-1, 3)))

    def test_mass_above_one_rejected(self):
        with pytest.raises(DomainError):
            DPTable(UrnConfig(2, 1), 0, (Fraction(0), Fraction(2)))


class TestMemoryBudget:
    def test_budget_exceeded_names_feasible_horizon(self):
        with pytest.raises(ResourceLimitError, match="largest feasible horizon"):
            first_passage_dp(UrnConfig(2, 1), 0, 10**7)

    def test_feasible_horizon_is_consistent(self, monkeypatch):
        monkeypatch.setattr(cost, "MEMORY_BUDGET_BYTES", 100_000)
        config = UrnConfig(2, 1)
        n = max_feasible_horizon(config)
        assert estimate_dp_memory_bytes(config, n) <= 100_000
        assert estimate_dp_memory_bytes(config, n + 1) > 100_000
        first_passage_dp(config, 0, n)  # runs
        with pytest.raises(ResourceLimitError, match=f"largest feasible horizon is ~{n}$"):
            first_passage_dp(config, 0, n + 1)

    def test_budget_check_refuses_what_first_passage_dp_refuses(self, monkeypatch):
        monkeypatch.setattr(cost, "MEMORY_BUDGET_BYTES", 100_000)
        config = UrnConfig(5, 3)
        n = max_feasible_horizon(config)
        cost.check("dp", config, n)  # fits: returns quietly
        with pytest.raises(ResourceLimitError) as checked:
            cost.check("dp", config, n + 1)
        with pytest.raises(ResourceLimitError) as computed:
            first_passage_dp(config, 0, n + 1)
        assert str(checked.value) == str(computed.value)

    @given(st.integers(1, 400), st.integers(1, 400), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_estimate_grows_with_total(self, total, more, horizon):
        """One budget check at a sweep's largest b + w covers every smaller urn."""
        small = estimate_dp_memory_bytes(UrnConfig(total, 1), horizon)
        assert small <= estimate_dp_memory_bytes(UrnConfig(total + more, 1), horizon)
        assert small == estimate_dp_memory_bytes(UrnConfig(1, total), horizon)

    @pytest.mark.parametrize(
        "b, w, target, horizon",
        [
            (2, 1, 0, 0),
            (7, 1, 3, 5),
            (2, 1, 0, 2000),
            (3, 9, 5, 700),
            (6, 12, -53, 973),
            (50, 30, -4, 1500),
            (5, 3, 200, 1000),
            (500, 300, 0, 1000),
        ],
    )
    def test_estimate_bounds_traced_peak(self, b, w, target, horizon):
        config = UrnConfig(b, w)
        tracemalloc.start()
        try:
            first_passage_dp(config, target, horizon)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= estimate_dp_memory_bytes(config, horizon)


class TestEnumerateSequences:
    def test_zero_steps(self):
        seqs = enumerate_sequences(4, 4, 0)
        assert len(seqs) == 1
        assert seqs[0].draws == ""
        assert seqs[0].probability == 1

    def test_single_step(self):
        seqs = {s.draws: s.probability for s in enumerate_sequences(2, 1, 1)}
        assert seqs == {"B": Fraction(2, 3), "W": Fraction(1, 3)}

    def test_two_steps_exhibit_exchangeability(self):
        seqs = {s.draws: s.probability for s in enumerate_sequences(2, 1, 2)}
        assert seqs["BB"] == Fraction(1, 2)
        assert seqs["BW"] == seqs["WB"] == Fraction(1, 6)
        assert seqs["WW"] == Fraction(1, 6)

    @pytest.mark.parametrize("config", SMALL_CONFIGS, ids=str)
    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_probabilities_sum_to_one(self, config, n):
        seqs = enumerate_sequences(config.black, config.white, n)
        assert len(seqs) == 2**n
        assert sum(s.probability for s in seqs) == 1

    @given(
        st.integers(1, 5),
        st.integers(1, 5),
        st.text(alphabet="BW", min_size=0, max_size=10),
    )
    @settings(max_examples=80, deadline=None)
    def test_each_sequence_matches_stepped_product(self, b, w, draws):
        """Any sequence's probability equals the step-by-step product."""
        seqs = {s.draws: s.probability for s in enumerate_sequences(b, w, len(draws))}
        assert seqs[draws] == sequence_probability_by_stepping(b, w, draws)

    @pytest.mark.parametrize("config", SMALL_CONFIGS, ids=str)
    def test_exchangeability_up_to_ten_steps(self, config):
        for n in range(11):
            by_count: dict[int, Fraction] = {}
            for seq in enumerate_sequences(config.black, config.white, n):
                blacks = seq.draws.count("B")
                if blacks in by_count:
                    assert seq.probability == by_count[blacks]
                else:
                    by_count[blacks] = seq.probability


class TestMarginalBlackDistribution:
    def test_one_step(self):
        assert black_count_pmfs_by_stepping(2, 1, 1)[1] == {
            0: Fraction(1, 3),
            1: Fraction(2, 3),
        }

    def test_two_steps(self):
        assert black_count_pmfs_by_stepping(2, 1, 2)[2] == {
            0: Fraction(1, 6),
            1: Fraction(1, 3),
            2: Fraction(1, 2),
        }

    def test_matches_enumeration_grouping(self):
        pmfs = black_count_pmfs_by_stepping(3, 2, 7)
        for n in range(8):
            pmf = pmfs[n]
            grouped: dict[int, Fraction] = {k: Fraction(0) for k in range(n + 1)}
            for seq in enumerate_sequences(3, 2, n):
                grouped[seq.draws.count("B")] += seq.probability
            assert pmf == grouped

    @pytest.mark.parametrize("config", SMALL_CONFIGS + [UrnConfig(5, 3), UrnConfig(1, 7)], ids=str)
    def test_sums_to_one(self, config):
        pmfs = black_count_pmfs_by_stepping(config.black, config.white, 20)
        for n in (0, 1, 5, 20):
            assert sum(pmfs[n].values()) == 1

    def test_black_fraction_is_a_martingale(self):
        """E[B_n / N_n] stays exactly b/(b+w) at every step."""
        for config in [UrnConfig(2, 1), UrnConfig(3, 4), UrnConfig(5, 3)]:
            b, t = config.black, config.total
            pmfs = black_count_pmfs_by_stepping(b, config.white, 25)
            for n in (1, 2, 7, 25):
                pmf = pmfs[n]
                mean = sum(p * Fraction(b + k, t + n) for k, p in pmf.items())
                assert mean == Fraction(b, t)
