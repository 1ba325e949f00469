"""Acceptance suite: one test per criterion, at the stated tolerance.

Each criterion gets a PASS/FAIL line in the terminal summary (see
conftest.py).  Stated runtime ceilings are asserted with a monotonic clock
around the criterion body; those tests carry the ``timing`` marker.
"""

import subprocess
import sys
import time
from fractions import Fraction

import pytest

from polya_urn import (
    RngSeed,
    UrnConfig,
    beta_cdf_rational,
    chernoff_bound,
    definetti_estimator,
    equalization_probability,
    equalization_probability_binomial,
    equalization_probability_complement,
    estimate_equalization,
    first_passage_dp,
)

from oracles import (
    beta_cdf_by_polynomial_integration,
    black_count_pmfs_by_stepping,
    enumerate_sequences,
)

SEED = RngSeed(20260810)

MC_GRID = [(2, 1), (3, 2), (4, 1), (5, 3)]


def configs_with_total_at_most(limit: int) -> list[UrnConfig]:
    return [
        UrnConfig(b, total - b)
        for total in range(2, limit + 1)
        for b in range(1, total)
    ]


def first_hit_step(draws: str, start_excess: int, target: int) -> int | None:
    if start_excess == target:
        return 0
    s = start_excess
    for i, d in enumerate(draws):
        s += 1 if d == "B" else -1
        if s == target:
            return i + 1
    return None


@pytest.mark.timing
def test_criterion_01_triple_identity():
    """All three closed forms agree exactly for 3,540 pairs with b+w <= 120."""
    start = time.monotonic()
    pairs = 0
    for total in range(3, 121):
        for w in range(1, (total + 1) // 2):
            b = total - w
            config = UrnConfig(b, w)
            theorem = equalization_probability(config)
            assert theorem == equalization_probability_binomial(config)
            assert theorem == equalization_probability_complement(config)
            pairs += 1
    assert pairs == 3540
    assert time.monotonic() - start < 10.0


def test_criterion_02_small_exact_values():
    """Frozen small values, each confirmed by two independent oracles."""
    frozen = {
        (2, 1): Fraction(1, 2),
        (3, 1): Fraction(1, 4),
        (3, 2): Fraction(5, 8),
        (4, 2): Fraction(3, 8),
        (5, 3): Fraction(29, 64),
    }
    for (b, w), expected in frozen.items():
        config = UrnConfig(b, w)
        assert equalization_probability(config).value == expected
        # oracle 1: symbolic polynomial integration of the beta density
        assert 2 * beta_cdf_by_polynomial_integration(b, w, Fraction(1, 2)) == expected
        # oracle 2: exact DP converges to the value from below
        table = first_passage_dp(config, 0, 400)
        c200, c400 = sum(table.hit_pmf[:201]), table.cumulative
        assert c200 < c400 < expected
        assert expected - c400 < Fraction(1, 100)


@pytest.mark.timing
def test_criterion_03_dp_vs_enumeration():
    """DP and sequence enumeration agree exactly, b+w <= 6, horizons <= 14."""
    start = time.monotonic()
    for config in configs_with_total_at_most(6):
        table = first_passage_dp(config, 0, 14)
        hit_mass = [Fraction(0)] * 15
        for seq in enumerate_sequences(config.black, config.white, 14):
            hit = first_hit_step(seq.draws, config.initial_excess, 0)
            if hit is not None:
                hit_mass[hit] += seq.probability
        cumulative = Fraction(0)
        for n in range(15):
            cumulative += hit_mass[n]
            assert sum(table.hit_pmf[: n + 1]) == cumulative
    assert time.monotonic() - start < 60.0


@pytest.mark.timing
def test_criterion_04_exchangeability():
    """Order never matters, and each length's probabilities sum to 1."""
    start = time.monotonic()
    for config in configs_with_total_at_most(6):
        for n in range(15):
            total = Fraction(0)
            by_count: dict[int, Fraction] = {}
            for seq in enumerate_sequences(config.black, config.white, n):
                total += seq.probability
                blacks = seq.draws.count("B")
                if blacks in by_count:
                    assert seq.probability == by_count[blacks]
                else:
                    by_count[blacks] = seq.probability
            assert total == 1
    assert time.monotonic() - start < 60.0


def test_criterion_05_martingale():
    """E[black fraction] equals b/(b+w) exactly for n <= 50, b+w <= 8."""
    for config in configs_with_total_at_most(8):
        b, t = config.black, config.total
        expected = Fraction(b, t)
        pmfs = black_count_pmfs_by_stepping(b, config.white, 50)
        for n in range(51):
            pmf = pmfs[n]
            mean = sum(p * Fraction(b + k, t + n) for k, p in pmf.items())
            assert mean == expected


@pytest.mark.timing
def test_criterion_06_convergence_from_below():
    """DP cumulative sits below the exact value with a shrinking gap."""
    start = time.monotonic()
    for b, w in [(2, 1), (3, 2), (5, 3)]:
        config = UrnConfig(b, w)
        exact = equalization_probability(config).value
        table = first_passage_dp(config, 0, 200)
        running = Fraction(0)
        for n in range(201):
            running += table.hit_pmf[n]
            assert running <= exact
        assert running == table.cumulative
        for n_small in (25, 50, 100):
            gap_small = exact - sum(table.hit_pmf[: n_small + 1])
            gap_large = exact - sum(table.hit_pmf[: 2 * n_small + 1])
            assert gap_large < gap_small
    assert time.monotonic() - start < 120.0


@pytest.mark.timing
def test_criterion_07_mc_agreement():
    """Direct MC (1e6 paths, horizon 200) within 4 sigma of the DP value."""
    start = time.monotonic()
    for b, w in MC_GRID:
        config = UrnConfig(b, w)
        est = estimate_equalization(config, 0, 200, 10**6, SEED, n_streams=4)
        reference = float(first_passage_dp(config, 0, 200).cumulative)
        assert abs(est.z_score(reference)) < 4.0
    assert time.monotonic() - start < 120.0


@pytest.mark.timing
def test_criterion_08_definetti_agreement():
    """Mixture estimator (1e6 draws) within 4 sigma of the exact value."""
    start = time.monotonic()
    for b, w in MC_GRID:
        config = UrnConfig(b, w)
        est = definetti_estimator(config, 10**6, SEED)
        reference = float(equalization_probability(config))
        assert abs(est.z_score(reference)) < 4.0
    assert time.monotonic() - start < 60.0


def test_criterion_09_chernoff_validity():
    """Bound dominates the exact value on 1 <= w < b <= 40; tight twice."""
    for b in range(2, 41):
        for w in range(1, b):
            config = UrnConfig(b, w)
            exact = equalization_probability(config)
            bound = chernoff_bound(config, exact)  # construction enforces >=
            assert Fraction(bound.value) >= exact.value
    assert chernoff_bound(UrnConfig(2, 1)).value == 0.5
    assert Fraction(chernoff_bound(UrnConfig(2, 1)).value) == Fraction(1, 2)
    assert Fraction(chernoff_bound(UrnConfig(3, 1)).value) == Fraction(1, 4)


def test_criterion_10_pearson_identity_general_x():
    """Binomial tail sum equals the integrated density for b, w <= 20."""
    xs = [Fraction(1, 10), Fraction(1, 3), Fraction(1, 2), Fraction(9, 10)]
    for b in range(1, 21):
        for w in range(1, 21):
            config = UrnConfig(b, w)
            for x in xs:
                assert (
                    beta_cdf_rational(config, x).value
                    == beta_cdf_by_polynomial_integration(b, w, x)
                )


def test_criterion_11_reproducibility():
    """Two identical `simulate` invocations emit byte-identical output."""
    args = [
        sys.executable, "-m", "polya_urn.cli",
        "simulate", "--b", "5", "--w", "3", "--samples", "200000",
        "--seed", "20260810", "--streams", "4", "--horizon", "200",
    ]
    first = subprocess.run(args, capture_output=True)
    second = subprocess.run(args, capture_output=True)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stderr == second.stderr
