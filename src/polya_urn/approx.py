"""Asymptotic approximations and bounds for the equalization probability.

Both start from the coin-toss form: the equalization probability equals
twice the chance of at most w-1 heads in n = b+w-1 fair tosses.  The normal
approximation applies the central limit theorem to that binomial tail with
a continuity correction; the Chernoff form bounds it with the exponential
large-deviation rate, which is a guaranteed upper bound at every n.  Both
work in floats, so each refuses an n past the float range with
``ResourceLimitError`` before any float conversion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Optional

from .cost import _check_float
from .errors import DomainError
from .exact import ExactProbability, UrnConfig, _require_strict_majority

__all__ = [
    "ApproxResult",
    "normal_approximation",
    "chernoff_bound",
]


@dataclass(frozen=True, slots=True)
class ApproxResult:
    """An approximate value or bound, optionally compared to the exact answer.

    ``kind`` records the relationship: an ``upper_bound`` is guaranteed to
    dominate the exact probability (checked on construction when the exact
    reference is attached); an ``approximation`` may fall on either side.
    The read-only properties ``abs_error`` and ``rel_error`` compare
    ``value`` with ``exact_ref``; both are None without a reference, and
    ``rel_error`` is also None when the reference underflows float.
    """

    value: float
    kind: Literal["approximation", "upper_bound"]
    exact_ref: Optional[ExactProbability] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.value <= 1.0:
            raise DomainError(f"value must lie in [0, 1], got {self.value}")
        if self.kind not in ("approximation", "upper_bound"):
            raise DomainError(f"unknown kind {self.kind!r}")
        if self.exact_ref is None or self.kind != "upper_bound":
            return
        # as_integer_ratio is the float's exact binary value p/q, and both
        # denominators are positive, so p/q < P/Q iff p Q < P q, exactly
        num, den = self.value.as_integer_ratio()
        ref = self.exact_ref.value
        if num * ref.denominator < ref.numerator * den:
            raise DomainError(
                f"upper bound {self.value} fell below the exact value "
                f"{self.exact_ref}"
            )

    @property
    def abs_error(self) -> Optional[float]:
        return None if self.exact_ref is None else abs(self.value - float(self.exact_ref))

    @property
    def rel_error(self) -> Optional[float]:
        exact_float = 0.0 if self.exact_ref is None else float(self.exact_ref)
        return self.abs_error / exact_float if exact_float else None


def _standard_normal_cdf(z: float) -> float:
    """Standard normal CDF via the complementary error function.

    ``Phi(z) = erfc(-z / sqrt(2)) / 2``; the erfc route keeps full accuracy
    in the lower tail, well inside the 1e-10 absolute target on |z| <= 8.
    """
    return 0.5 * math.erfc(-float(z) / math.sqrt(2.0))


def normal_approximation(
    config: UrnConfig, exact_ref: Optional[ExactProbability] = None
) -> ApproxResult:
    """Central-limit estimate of the equalization probability.

    With n = b+w-1 tosses, the tail P(heads <= w-1) is approximated by
    ``Phi((w - 1 + 1/2 - n/2) / (sqrt(n)/2))``, the half outside the count
    being the usual continuity correction, and doubled.
    """
    b, w = _require_strict_majority(config, "the normal approximation")
    n = b + w - 1
    _check_float("n = b + w - 1", n, "the normal approximation")
    z = (w - 0.5 - n / 2.0) / (math.sqrt(n) / 2.0)
    value = 2.0 * _standard_normal_cdf(z)
    return ApproxResult(min(1.0, value), "approximation", exact_ref)


def _kl_to_fair(a: float) -> float:
    """KL divergence D(a || 1/2) of a Bernoulli(a) from a fair coin."""
    return a * math.log(2.0 * a) + (1.0 - a) * math.log(2.0 * (1.0 - a))


def chernoff_bound(
    config: UrnConfig, exact_ref: Optional[ExactProbability] = None
) -> ApproxResult:
    """Exponential upper bound ``2 exp(-n D((w-1)/n || 1/2))``, clamped to 1.

    Valid for every n since (w-1)/n <= 1/2 whenever b > w.  At w = 1 the rate
    is exactly log 2 and the bound ``2^(1-n)`` coincides with the exact
    probability, so that case is computed as an exact power of two.
    """
    b, w = _require_strict_majority(config, "the Chernoff bound")
    n = b + w - 1
    _check_float("n = b + w - 1", n, "the Chernoff bound")
    if w == 1:
        value = 2.0 ** (1 - n)
    else:
        a = (w - 1) / n
        value = 2.0 * math.exp(-n * _kl_to_fair(a))
    # a float upper bound rounds up: one that underflows to 0.0 becomes the
    # smallest positive double, which still dominates the exact probability
    return ApproxResult(min(1.0, max(value, math.ulp(0.0))), "upper_bound", exact_ref)
