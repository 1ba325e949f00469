"""Exact closed forms for the urn equalization probability.

An urn holds ``black`` and ``white`` balls; each draw returns the ball plus
one more of the same color.  The probability that the counts are ever equal
has three algebraically identical closed forms, all computed here in exact
rational arithmetic:

* ``equalization_probability`` -- twice the Beta(b, w) CDF at 1/2, with the
  CDF expanded as a binomial tail sum over ``n = b + w - 1`` fair-coin
  tosses (Pearson's identity for integer shape parameters);
* ``equalization_probability_binomial`` -- the head sum
  ``2^-(b+w-2) * sum_{j<=w-1} C(b+w-1, j)``;
* ``equalization_probability_complement`` -- one minus the middle block
  ``2^-(b+w-1) * sum_{w<=j<=b-1} C(b+w-1, j)``.

Each sums a stretch of row n = b + w - 1 of Pascal's triangle.  Since
C(n, j) = C(n, n - j) and n - b = w - 1, the tail over j >= b is the same w
terms as the head over j < w, and the middle block is 2^n less both, so on
one row the three forms are one number.  ``equalization_sweep`` uses that to
tabulate a whole (b, w) range: it carries the head sum down each w column by
Pascal's rule, (b, w) and (b + 1, w) sitting on adjacent rows, starting its
first column with the head-sum form's own loop and each further column from
the one before, while the three functions above stay independent of each
other for cross-checking.

Everything is a pure function of its inputs; all returned values are
immutable and reduced to lowest terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .errors import DomainError
from .output import _dataclass_repr, int_str, rational_str

__all__ = [
    "UrnConfig",
    "ExactProbability",
    "beta_cdf_rational",
    "equalization_probability",
    "equalization_probability_binomial",
    "equalization_probability_complement",
    "equalization_sweep",
]


def _require_positive_int(value: object, name: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise DomainError(f"{name} must be an int, got {type(value).__name__}")
    if value < 1:
        raise DomainError(f"{name} must be >= 1, got {int_str(value)}")
    return value


@dataclass(frozen=True, slots=True)
class UrnConfig:
    """Initial urn contents: ``black`` and ``white`` ball counts, both >= 1."""

    black: int
    white: int

    __repr__ = _dataclass_repr

    def __post_init__(self) -> None:
        _require_positive_int(self.black, "black")
        _require_positive_int(self.white, "white")

    @property
    def total(self) -> int:
        return self.black + self.white

    @property
    def initial_excess(self) -> int:
        """Starting value of the excess process S = black - white."""
        return self.black - self.white

    def swapped(self) -> "UrnConfig":
        """The color-relabelled urn (white for black)."""
        return UrnConfig(black=self.white, white=self.black)


@dataclass(frozen=True, slots=True)
class ExactProbability:
    """An arbitrary-precision rational in [0, 1], stored in lowest terms.

    ``Fraction`` canonicalizes on construction, so equality between two
    ``ExactProbability`` values is structural.
    """

    value: Fraction

    def __post_init__(self) -> None:
        if isinstance(self.value, float):
            raise TypeError("ExactProbability requires a Fraction or int, not float")
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", Fraction(self.value))
        # a Fraction's denominator is positive: integer compares, no Fraction ones
        if not 0 <= self.value.numerator <= self.value.denominator:
            raise DomainError(f"probability must lie in [0, 1], got {rational_str(self.value)}")

    def __float__(self) -> float:
        return float(self.value)

    def __str__(self) -> str:
        return rational_str(self.value)

    def __repr__(self) -> str:
        return f"ExactProbability({self})"


def _as_exact_fraction(x: object, name: str = "x") -> Fraction:
    if isinstance(x, float):
        raise TypeError(
            f"{name} must be an exact rational (Fraction, int, or string like '1/2'); "
            "floats carry binary rounding and are refused"
        )
    try:
        return Fraction(x)  # type: ignore[arg-type]
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{name} is not a rational number: {x!r}") from exc


def beta_cdf_rational(config: UrnConfig, x: Fraction | int | str) -> ExactProbability:
    """Beta(b, w) CDF at rational ``x``, exactly, with b = black and w = white.

    Beta(black, white) is the law of the urn's limiting black fraction
    (Eggenberger and Polya, 1923).  For integer shapes the CDF equals the
    probability that at least ``b`` of ``n = b + w - 1`` independent
    Bernoulli(x) trials succeed:

        F(x) = sum_{j=b}^{n} C(n, j) x^j (1-x)^(n-j)

    evaluated term by term in integer arithmetic over the common denominator
    ``q^n`` (with x = p/q in lowest terms).
    """
    frac = _as_exact_fraction(x)
    if not 0 <= frac <= 1:
        raise DomainError(f"x must lie in [0, 1], got {rational_str(frac)}")
    if frac == 0:
        return ExactProbability(Fraction(0))
    if frac == 1:
        return ExactProbability(Fraction(1))
    b, w = config.black, config.white
    n = b + w - 1
    p, q = frac.numerator, frac.denominator
    qp = q - p
    coeff = math.comb(n, b)
    x_pow = p**b
    y_pow = qp ** (n - b)
    total = 0
    for j in range(b, n + 1):
        total += coeff * x_pow * y_pow
        if j < n:
            coeff = coeff * (n - j) // (j + 1)
            x_pow *= p
            y_pow //= qp
    return ExactProbability(Fraction(total, q**n))


def equalization_probability(config: UrnConfig) -> ExactProbability:
    """Probability the urn ever holds equal black and white counts.

    For black > white this is twice the Beta(black, white) CDF at 1/2.  An
    urn already equal counts as equalized (probability 1), and black < white
    is handled by relabelling the colors.
    """
    b, w = config.black, config.white
    if b == w:
        return ExactProbability(Fraction(1))
    if b < w:
        return equalization_probability(config.swapped())
    cdf_half = beta_cdf_rational(config, Fraction(1, 2))
    return ExactProbability(2 * cdf_half.value)


def _require_strict_majority(config: UrnConfig, label: str) -> tuple[int, int]:
    """``(black, white)``, or a DomainError naming ``label`` unless black > white."""
    if config.black <= config.white:
        raise DomainError(
            f"{label} requires black > white, got black={int_str(config.black)}, "
            f"white={int_str(config.white)}"
        )
    return config.black, config.white


def equalization_probability_binomial(config: UrnConfig) -> ExactProbability:
    """Head-sum form: ``2^-(b+w-2) * sum_{j=0}^{w-1} C(b+w-1, j)``.

    Sums w terms, so it is the cheap form when white is small.
    """
    b, w = _require_strict_majority(config, "the head-sum form")
    return ExactProbability(Fraction(_head_start(b + w - 1, w)[0], 2 ** (b + w - 2)))


def equalization_probability_complement(config: UrnConfig) -> ExactProbability:
    """Complement form: ``1 - 2^-(b+w-1) * sum_{j=w}^{b-1} C(b+w-1, j)``.

    Sums b - w terms, so it is the cheap form when the majority is slim.
    """
    b, w = _require_strict_majority(config, "the complement form")
    n = b + w - 1
    coeff = math.comb(n, w)
    total = 0
    for j in range(w, b):
        total += coeff
        coeff = coeff * (n - j) // (j + 1)
    return ExactProbability(1 - Fraction(total, 2 ** (b + w - 1)))


def _head_start(n: int, w: int) -> list[int]:
    """Column state ``[head, C(n, w-1)]`` on row n: the sum of C(n, j) over
    j < w, streamed term by term, and its last term."""
    head = coeff = 1
    for j in range(1, w):
        coeff = coeff * (n + 1 - j) // j
        head += coeff
    return [head, coeff]


def equalization_sweep(
    b_range: tuple[int, int], w_range: tuple[int, int]
) -> Iterator[tuple[UrnConfig, ExactProbability]]:
    """The equalization probability of every (b, w) in the ranges with w < b.

    Yields ``(config, probability)`` in b-major order, the value that
    ``equalization_probability``, ``_binomial`` and ``_complement`` each give.
    The first w column starts with the w-term head sum over row n = b + w - 1
    at its first b; from (b, w) to (b + 1, w), Pascal's rule
    C(n+1, j) = C(n, j) + C(n, j-1) gives

        head <- 2 head - C(n, w-1),  C(n+1, w-1) = C(n, w-1) (n+1)/(n+2-w).

    The same rule on the diagonal, from (b, w) on row n to (b, w + 1) on row
    n + 1, starts each further column from the one before at the same b:

        head(n+1, w+1) = 2 head + C(n, w),  C(n+1, w) = C(n, w) (n+1)/(n+1-w).

    So each pair and each column start but the first costs a few
    big-integer operations, and a slice of a b range costs no more to start
    than its first column; the state is two integers per w column, and the
    probability is ``head / 2^(n-1)``.
    """
    (b_lo, b_hi), (w_lo, w_hi) = b_range, w_range
    for value, name in ((b_lo, "b_lo"), (b_hi, "b_hi"), (w_lo, "w_lo"), (w_hi, "w_hi")):
        _require_positive_int(value, name)
    columns: dict[int, list[int]] = {}
    for b in range(b_lo, b_hi + 1):
        for w in range(w_lo, min(w_hi, b - 1) + 1):
            n = b + w - 1
            state = columns.get(w)
            if state is not None:
                # Pascal's rule from row n - 1 at b - 1 to row n at b
                head, edge = state
                state[:] = 2 * head - edge, edge * n // (n + 1 - w)
            elif w == w_lo:
                state = columns[w] = _head_start(n, w)
            else:
                # along the diagonal from column w - 1, on row n - 1 at this b
                head, edge = columns[w - 1]
                last = edge * (n + 1 - w) // (w - 1)
                state = columns[w] = [2 * head + last, last * n // (n + 1 - w)]
            yield UrnConfig(b, w), ExactProbability(Fraction(state[0], 1 << (n - 1)))
