"""Exact finite-horizon first-passage probabilities for the urn.

The excess process S_n = black_n - white_n moves +1 with probability
``black/total`` and -1 otherwise, the counts growing by one ball per draw.
``first_passage_dp`` computes the exact distribution of the first time S
hits a target level from the hitting-time theorem (van der Hofstad & Keane,
"An elementary proof of the hitting time theorem", Amer. Math. Monthly 115,
2008): of the C(n, k) paths with k up-steps that end d = |S_0 - m| away
from their start after n steps, exactly d/n reach that level first at step
n.  The draws are exchangeable, so every such path has the same weight and

    P(tau = n) = d/n * C(n, k) * b^(k) * w^(n-k) / (b+w)^(n)
               = d/n * C(b+k-1, k) * C(w+n-k-1, n-k) / C(b+w+n-1, n),

with ``x^(k)`` the rising factorial.

All probabilities are exact ``Fraction`` values.  Consecutive non-zero terms
(n -> n+2, k -> k+1) differ by a ratio of small integers, so the pmf costs
one ``Fraction`` product per term; each product reduces against the small
ratio only, never by a gcd of two big integers.  Before any of it,
``cost.check("dp", ...)`` refuses a horizon whose estimated memory is over
the budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import cost
from .errors import DomainError
from .exact import UrnConfig
from .output import _dataclass_repr, rational_str

__all__ = ["DPTable", "first_passage_dp"]


@dataclass(frozen=True)
class DPTable:
    """First-passage distribution of S to ``target_diff`` up to a horizon.

    ``hit_pmf[n]`` is the exact P(tau = n) for n = 0..horizon, so the
    read-only property ``horizon`` is ``len(hit_pmf) - 1``; ``cumulative``,
    the sum that validates the pmf on construction, is P(tau <= horizon).
    """

    config: UrnConfig
    target_diff: int
    hit_pmf: tuple[Fraction, ...] = field(repr=False)
    cumulative: Fraction = field(init=False, repr=False)

    __repr__ = _dataclass_repr

    def __post_init__(self) -> None:
        if not self.hit_pmf:
            raise DomainError("hit_pmf must hold P(tau = 0), got no entries")
        total = Fraction(0)
        parity = abs(self.config.initial_excess - self.target_diff) % 2
        for n, p in enumerate(self.hit_pmf):
            if not p:  # passes every check and adds nothing; far targets are all zeros
                continue
            if p < 0:
                raise DomainError(f"P(tau={n}) must be >= 0, got {rational_str(p)}")
            if n % 2 != parity:
                raise DomainError(
                    f"P(tau={n}) must vanish: S moves by 1 per step, so tau has "
                    f"the parity of |S_0 - target| = {parity}"
                )
            total += p
        if total > 1:
            raise DomainError(f"hit probabilities sum to {rational_str(total)} > 1")
        object.__setattr__(self, "cumulative", total)

    @property
    def horizon(self) -> int:
        return len(self.hit_pmf) - 1


def first_passage_dp(config: UrnConfig, target_diff: int, horizon: int) -> DPTable:
    """Exact P(tau = n) for n <= horizon, tau the first time S hits the target.

    With d = |S_0 - m| and k = (n + m - S_0)/2 black draws, the hitting-time
    theorem gives

        P(tau = n) = d/n * C(n, k) * b^(k) * w^(n-k) / (b+w)^(n)

    for n >= d of the parity of d, and 0 otherwise.  The first term is at
    n = d, with k = 0 below S_0 and k = d above it, where it reduces to

        P(tau = d) = C(b+k-1, k) * C(w+d-k-1, d-k) / C(b+w+d-1, d);

    each step n -> n+2, k -> k+1 multiplies the term by

        n(n+1)(b+k)(w+n-k) / ((k+1)(n-k+1)(b+w+n)(b+w+n+1)).

    If the urn starts on the target, tau = 0.

    The target may be any integer, including negative levels ("ever k more
    white than black").  Each P(tau = n) is then a closed-form term, but no
    untruncated closed form is exported; this function and the direct Monte
    Carlo estimator are the supported routes.

    A horizon whose estimated footprint exceeds the memory budget is refused
    with ``ResourceLimitError`` before any work, by ``cost.check("dp", ...)``.
    """
    cost.check("dp", config, horizon)

    b, w = config.black, config.white
    s0 = config.initial_excess
    m = target_diff
    pmf: list[Fraction] = [Fraction(0)] * (horizon + 1)

    if s0 == m:
        pmf[0] = Fraction(1)
        return DPTable(config, m, tuple(pmf))

    d = abs(s0 - m)
    if d > horizon:
        # the target is out of reach; the start term alone would cost O(d)
        return DPTable(config, m, tuple(pmf))
    k = 0 if m < s0 else d
    t = b + w
    p = Fraction(math.comb(b + k - 1, k) * math.comb(w + d - k - 1, d - k), math.comb(t + d - 1, d))
    for n in range(d, horizon + 1, 2):
        pmf[n] = p
        p *= Fraction(n * (n + 1) * (b + k) * (w + n - k), (k + 1) * (n - k + 1) * (t + n) * (t + n + 1))
        k += 1

    return DPTable(config, m, tuple(pmf))
