"""Tests for the normal approximation and the Chernoff bound."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from polya_urn import (
    ApproxResult,
    DomainError,
    ExactProbability,
    UrnConfig,
    chernoff_bound,
    equalization_probability,
    normal_approximation,
)
from polya_urn.approx import _standard_normal_cdf

from oracles import normal_cdf_by_quadrature


class TestStandardNormalCdf:
    def test_center(self):
        assert _standard_normal_cdf(0.0) == 0.5

    def test_known_quantile(self):
        assert _standard_normal_cdf(1.96) == pytest.approx(0.9750021, abs=1e-7)

    @pytest.mark.parametrize("z", [-8, -5, -2.5, -1, -0.1, 0.3, 1.644853, 3, 6, 8])
    def test_against_quadrature_oracle(self, z):
        assert abs(_standard_normal_cdf(z) - normal_cdf_by_quadrature(z)) <= 1e-10

    @given(st.floats(-12, 12))
    @settings(max_examples=200, deadline=None)
    def test_symmetry(self, z):
        assert _standard_normal_cdf(z) + _standard_normal_cdf(-z) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_strictly_increasing(self):
        grid = [i / 4 for i in range(-32, 33)]
        values = [_standard_normal_cdf(z) for z in grid]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestApproxResult:
    def test_errors_filled_when_reference_given(self):
        exact = ExactProbability(Fraction(1, 2))
        res = ApproxResult(0.52, "approximation", exact)
        assert res.abs_error == pytest.approx(0.02)
        assert res.rel_error == pytest.approx(0.04)

    def test_errors_absent_without_reference(self):
        res = ApproxResult(0.52, "approximation")
        assert res.abs_error is None and res.rel_error is None

    def test_reference_below_float_range(self):
        """A reference that underflows float keeps abs_error but has no rel_error."""
        res = ApproxResult(0.25, "approximation", ExactProbability(Fraction(1, 2**1100)))
        assert res.abs_error == res.value
        assert res.rel_error is None

    def test_upper_bound_below_exact_rejected(self):
        with pytest.raises(DomainError):
            ApproxResult(0.4, "upper_bound", ExactProbability(Fraction(1, 2)))

    def test_value_range(self):
        with pytest.raises(DomainError):
            ApproxResult(1.2, "approximation")

    def test_kind_checked(self):
        with pytest.raises(DomainError):
            ApproxResult(0.5, "lower_bound")

    @given(
        exact=st.fractions(0, 1)
        # dyadic values, held exactly by a float down to 2^-1074, and below it
        | st.integers(0, 1200).flatmap(
            lambda m: st.integers(0, 2**m).map(lambda k: Fraction(k, 2**m))
        ),
        steps=st.integers(-3, 3),
    )
    @example(exact=Fraction(1, 2**1999), steps=0)  # approx --b 2000 --w 1
    @example(exact=Fraction(1, 2**1999), steps=1)
    @example(exact=Fraction(1, 2**1074), steps=0)
    @example(exact=Fraction(1, 2**1074), steps=-1)
    @example(exact=Fraction(1, 3), steps=0)
    @example(exact=Fraction(1), steps=0)
    @settings(max_examples=500, deadline=None)
    def test_upper_bound_check_is_the_fraction_comparison(self, exact, steps):
        """The integer cross-multiplied check refuses exactly the floats whose
        exact binary value lies below the reference: float(exact) and its
        neighbours, some equal to a dyadic reference."""
        value = float(exact)
        for _ in range(abs(steps)):
            value = math.nextafter(value, math.copysign(math.inf, steps))
        assume(0.0 <= value <= 1.0)
        reference = ExactProbability(exact)
        if Fraction(value) < exact:
            with pytest.raises(DomainError, match="fell below the exact value"):
                ApproxResult(value, "upper_bound", reference)
        else:
            assert ApproxResult(value, "upper_bound", reference).value == value
        # an approximation may fall on either side
        ApproxResult(value, "approximation", reference)


class TestNormalApproximation:
    def test_smallest_case(self):
        """(2,1): 2 Phi(-1/sqrt(2)), about 0.4795 against the exact 0.5."""
        res = normal_approximation(UrnConfig(2, 1))
        expected = 2.0 * normal_cdf_by_quadrature(-1.0 / math.sqrt(2.0))
        assert res.value == pytest.approx(expected, abs=1e-10)
        assert res.kind == "approximation"

    def test_requires_majority(self):
        with pytest.raises(DomainError):
            normal_approximation(UrnConfig(3, 3))
        with pytest.raises(DomainError):
            normal_approximation(UrnConfig(2, 5))

    def test_slim_majority_tends_to_one(self):
        values = [
            normal_approximation(UrnConfig(w + 1, w)).value for w in (2, 10, 100, 500)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert 0.97 < values[-1] < 1.0

    def test_error_shrinks_with_size(self):
        small = normal_approximation(UrnConfig(2, 1), equalization_probability(UrnConfig(2, 1)))
        large = normal_approximation(UrnConfig(6, 5), equalization_probability(UrnConfig(6, 5)))
        assert large.rel_error < small.rel_error

    def test_error_nonincreasing_along_slim_family(self):
        """rel error along (2k, 2k-1), k = 1..20, within a 5% slack band."""
        previous = None
        for k in range(1, 21):
            config = UrnConfig(2 * k, 2 * k - 1)
            res = normal_approximation(config, equalization_probability(config))
            if previous is not None:
                assert res.rel_error <= previous * 1.05
            previous = res.rel_error

    def test_always_inside_unit_interval(self):
        for b in range(2, 30):
            for w in range(1, b):
                assert 0.0 < normal_approximation(UrnConfig(b, w)).value < 1.0


class TestChernoffBound:
    @pytest.mark.parametrize("b, expected", [(2, 0.5), (3, 0.25), (9, 2.0**-8)])
    def test_single_white_is_tight(self, b, expected):
        """At w=1 the bound 2^(1-n) equals the exact probability exactly."""
        config = UrnConfig(b, 1)
        res = chernoff_bound(config, equalization_probability(config))
        assert res.value == expected
        assert Fraction(res.value) == equalization_probability(config).value

    def test_kind(self):
        assert chernoff_bound(UrnConfig(5, 3)).kind == "upper_bound"

    @pytest.mark.parametrize("b", [1075, 1076])
    def test_single_white_at_the_smallest_double(self, b):
        """2^(1-n) at n = 1074 is the smallest double and equals the exact
        value; past it the bound rounds up to that double, above the exact
        value (``tests/test_cli.py`` runs b = 2000)."""
        config = UrnConfig(b, 1)
        res = chernoff_bound(config, equalization_probability(config))
        assert res.value == math.ulp(0.0)
        assert Fraction(res.value) >= equalization_probability(config).value

    def test_weak_regime_clamps_to_one(self):
        res = chernoff_bound(UrnConfig(5, 3))
        assert res.value == 1.0
        assert Fraction(1) >= equalization_probability(UrnConfig(5, 3)).value

    def test_requires_majority(self):
        with pytest.raises(DomainError):
            chernoff_bound(UrnConfig(4, 4))

    def test_dominates_exact_on_grid(self):
        for b in range(2, 26):
            for w in range(1, b):
                config = UrnConfig(b, w)
                # construction re-checks value >= exact via exact comparison
                chernoff_bound(config, equalization_probability(config))
