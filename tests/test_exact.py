"""Tests for the exact closed forms.

Expected values marked "by integration" were computed with the independent
polynomial-integration oracle in oracles.py and frozen here.
"""

import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polya_urn import (
    DomainError,
    ExactProbability,
    UrnConfig,
    beta_cdf_rational,
    chernoff_bound,
    equalization_probability,
    equalization_probability_binomial,
    equalization_probability_complement,
    normal_approximation,
)
from polya_urn.exact import equalization_sweep
from polya_urn.output import rational_str

from oracles import beta_cdf_by_polynomial_integration


class TestDomainTypes:
    def test_urn_config_requires_positive_counts(self):
        for bad in [(0, 1), (1, 0), (-2, 3)]:
            with pytest.raises(DomainError):
                UrnConfig(*bad)
        with pytest.raises(DomainError):
            UrnConfig(1.5, 1)

    def test_urn_config_allows_large_counts(self):
        cfg = UrnConfig(7_000, 5_000)
        assert cfg.total == 12_000
        assert cfg.initial_excess == 2_000

    def test_swapped(self):
        assert UrnConfig(3, 2).swapped() == UrnConfig(2, 3)

    def test_exact_probability_is_canonical(self):
        p = ExactProbability(Fraction(4, 8))
        assert p.value.numerator == 1 and p.value.denominator == 2
        assert p == ExactProbability(Fraction(1, 2))
        assert str(p) == "1/2"
        assert float(p) == 0.5

    def test_exact_probability_str_has_no_digit_limit(self):
        p = ExactProbability(Fraction(1, 2**20000))
        num, den = str(p).split("/")
        assert str(p) == rational_str(p.value) and num == "1" and len(den) > 6000
        # read back in 1000-digit chunks, below the int-from-string limit
        value = 0
        for i in range(0, len(den), 1000):
            value = value * 10 ** len(den[i : i + 1000]) + int(den[i : i + 1000])
        assert value == 2**20000

    def test_exact_probability_repr_is_its_rational(self):
        assert repr(equalization_probability(UrnConfig(5, 3))) == "ExactProbability(29/64)"

    def test_exact_probability_repr_has_no_digit_limit(self):
        p = equalization_probability(UrnConfig(20000, 3))
        assert repr(p) == f"ExactProbability({p})" and len(repr(p)) > 6000

    def test_exact_probability_range(self):
        with pytest.raises(DomainError):
            ExactProbability(Fraction(3, 2))
        with pytest.raises(DomainError):
            ExactProbability(Fraction(-1, 2))

    @given(
        st.fractions(-2, 3)
        | st.integers(-3, 3)
        | st.integers(1, 3000).flatmap(
            lambda m: st.sampled_from([-1, 0, 1, 2**m - 1, 2**m, 2**m + 1]).map(
                lambda k: Fraction(k, 2**m)
            )
        )
    )
    @example(Fraction(2**2000 + 1, 2**2000))
    @example(Fraction(-1, 2**2000))
    @settings(max_examples=300, deadline=None)
    def test_exact_probability_rejects_exactly_outside_the_unit_interval(self, value):
        """The integer bound check agrees with Fraction's comparison, ints too."""
        if 0 <= value <= 1:
            assert ExactProbability(value).value == value
        else:
            with pytest.raises(DomainError, match="must lie in"):
                ExactProbability(value)

    def test_exact_probability_rejects_float(self):
        with pytest.raises(TypeError):
            ExactProbability(0.5)


class TestBetaCdfRational:
    @pytest.mark.parametrize(
        "b, w, x, expected",
        [
            (2, 1, Fraction(1, 2), Fraction(1, 4)),
            (3, 2, Fraction(1, 2), Fraction(5, 16)),
            (1, 1, Fraction(7, 10), Fraction(7, 10)),
        ],
    )
    def test_values(self, b, w, x, expected):
        assert beta_cdf_rational(UrnConfig(b, w), x).value == expected

    @pytest.mark.parametrize("b, w", [(1, 1), (2, 1), (5, 3), (4, 7)])
    def test_endpoints(self, b, w):
        assert beta_cdf_rational(UrnConfig(b, w), 0).value == 0
        assert beta_cdf_rational(UrnConfig(b, w), 1).value == 1

    def test_domain(self):
        with pytest.raises(DomainError):
            beta_cdf_rational(UrnConfig(2, 2), Fraction(3, 2))
        with pytest.raises(DomainError):
            beta_cdf_rational(UrnConfig(2, 2), -1)

    def test_float_arguments_refused(self):
        with pytest.raises(TypeError):
            beta_cdf_rational(UrnConfig(2, 2), 0.5)

    def test_non_rational_string_refused(self):
        with pytest.raises(DomainError, match="^x is not a rational number: 'abc'$"):
            beta_cdf_rational(UrnConfig(3, 2), "abc")

    @pytest.mark.parametrize("b", range(1, 7))
    @pytest.mark.parametrize("w", range(1, 7))
    @pytest.mark.parametrize(
        "x", [Fraction(1, 10), Fraction(1, 3), Fraction(1, 2), Fraction(9, 10)]
    )
    def test_matches_polynomial_integration(self, b, w, x):
        got = beta_cdf_rational(UrnConfig(b, w), x).value
        assert got == beta_cdf_by_polynomial_integration(b, w, x)

    @pytest.mark.parametrize("k", [1, 2, 5, 17, 40])
    def test_symmetric_shape_is_half(self, k):
        assert beta_cdf_rational(UrnConfig(k, k), Fraction(1, 2)).value == Fraction(1, 2)

    @given(
        st.integers(1, 8),
        st.integers(1, 8),
        st.fractions(min_value=0, max_value=1, max_denominator=50),
    )
    @settings(max_examples=60, deadline=None)
    def test_oracle_agreement_property(self, b, w, x):
        got = beta_cdf_rational(UrnConfig(b, w), x).value
        assert got == beta_cdf_by_polynomial_integration(b, w, x)


class TestEqualizationProbability:
    @pytest.mark.parametrize(
        "b, w, expected",
        [
            (2, 1, Fraction(1, 2)),
            (3, 1, Fraction(1, 4)),
            (3, 2, Fraction(5, 8)),
            (4, 2, Fraction(3, 8)),
            (5, 3, Fraction(29, 64)),
        ],
    )
    def test_small_values(self, b, w, expected):
        assert equalization_probability(UrnConfig(b, w)).value == expected
        # independent route: integrate the density polynomial, double it
        assert 2 * beta_cdf_by_polynomial_integration(b, w, Fraction(1, 2)) == expected

    def test_equal_start_is_certain(self):
        assert equalization_probability(UrnConfig(5, 5)).value == 1

    def test_minority_black_swaps_colors(self):
        assert equalization_probability(UrnConfig(2, 3)) == equalization_probability(
            UrnConfig(3, 2)
        )

    @pytest.mark.parametrize(
        "fn",
        [equalization_probability_binomial, equalization_probability_complement],
    )
    def test_sum_forms_require_majority(self, fn):
        with pytest.raises(DomainError):
            fn(UrnConfig(2, 2))
        with pytest.raises(DomainError):
            fn(UrnConfig(2, 3))

    @pytest.mark.parametrize(
        "route, label",
        [
            (equalization_probability_binomial, "the head-sum form"),
            (equalization_probability_complement, "the complement form"),
            (normal_approximation, "the normal approximation"),
            (chernoff_bound, "the Chernoff bound"),
        ],
    )
    def test_majority_message_names_the_route(self, route, label):
        message = f"^{label} requires black > white, got black=2, white=3$"
        with pytest.raises(DomainError, match=message):
            route(UrnConfig(2, 3))

    @pytest.mark.parametrize(
        "b, w, expected",
        [(3, 1, Fraction(1, 4)), (4, 2, Fraction(3, 8)), (5, 3, Fraction(29, 64))],
    )
    def test_binomial_form_values(self, b, w, expected):
        assert equalization_probability_binomial(UrnConfig(b, w)).value == expected

    @pytest.mark.parametrize(
        "b, w, expected",
        [(2, 1, Fraction(1, 2)), (3, 2, Fraction(5, 8)), (3, 1, Fraction(1, 4))],
    )
    def test_complement_form_values(self, b, w, expected):
        assert equalization_probability_complement(UrnConfig(b, w)).value == expected

    def test_triple_identity_small_grid(self):
        for total in range(3, 61):
            for w in range(1, (total + 1) // 2):
                b = total - w
                cfg = UrnConfig(b, w)
                p = equalization_probability(cfg)
                assert p == equalization_probability_binomial(cfg)
                assert p == equalization_probability_complement(cfg)

    @given(st.integers(2, 200), st.integers(1, 199))
    @settings(max_examples=80, deadline=None)
    def test_triple_identity_property(self, b, w):
        if w >= b:
            return
        cfg = UrnConfig(b, w)
        p = equalization_probability(cfg)
        assert p == equalization_probability_binomial(cfg)
        assert p == equalization_probability_complement(cfg)

    def test_range_strictly_inside_unit_interval(self):
        for b in range(2, 25):
            for w in range(1, b):
                p = equalization_probability(UrnConfig(b, w)).value
                assert 0 < p < 1

    def test_monotone_decreasing_in_black(self):
        for w in range(1, 12):
            for b in range(w + 1, w + 12):
                assert (
                    equalization_probability(UrnConfig(b + 1, w)).value
                    < equalization_probability(UrnConfig(b, w)).value
                )

    def test_monotone_increasing_in_white(self):
        for b in range(3, 15):
            for w in range(1, b - 1):
                assert (
                    equalization_probability(UrnConfig(b, w + 1)).value
                    > equalization_probability(UrnConfig(b, w)).value
                )

    def test_sweep_matches_the_per_pair_forms(self):
        """Columns starting at b = w + 1, mid-range (b_lo 9 and 14) and at large w
        far below b_lo (b_lo 200), and the steps below."""
        for b_range, w_range in (
            ((1, 30), (3, 12)),
            ((9, 30), (3, 12)),
            ((14, 20), (3, 12)),
            ((200, 203), (1, 60)),
        ):
            (b_lo, b_hi), (w_lo, w_hi) = b_range, w_range
            got = list(equalization_sweep(b_range, w_range))
            pairs = [(b, w) for b in range(b_lo, b_hi + 1) for w in range(w_lo, w_hi + 1) if w < b]
            assert [(c.black, c.white) for c, _ in got] == pairs
            for config, probability in got:
                assert probability == equalization_probability(config)
                assert probability == equalization_probability_binomial(config)
                assert probability == equalization_probability_complement(config)

    def test_sweep_holds_no_pascal_row(self):
        """Two integers of about n bits per w column, not the n + 1 of a row."""
        tracemalloc.start()
        try:
            list(equalization_sweep((20001, 20001), (19999, 19999)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20

    @pytest.mark.parametrize(
        "b_range, w_range", [((0, 5), (1, 2)), ((2, 5), (1, 2.0)), ((True, 5), (1, 2))]
    )
    def test_sweep_bounds_are_positive_ints(self, b_range, w_range):
        with pytest.raises(DomainError):
            next(equalization_sweep(b_range, w_range))

    def test_exact_at_two_thousand_balls(self):
        cfg = UrnConfig(1001, 999)
        p = equalization_probability(cfg)
        assert p == equalization_probability_binomial(cfg)
        assert p == equalization_probability_complement(cfg)
        # lowest terms of a dyadic rational: the denominator stays a power of two
        den = p.value.denominator
        assert den & (den - 1) == 0 and den.bit_length() <= 1999
        assert 0 < p.value < 1
