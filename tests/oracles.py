"""Independent oracles used by the tests.

These deliberately avoid the code paths they check: the beta CDF oracle
integrates the density polynomial term by term instead of summing binomial
tails; the first-passage oracles walk every draw sequence, or step a
forward recursion over (step, black draws), instead of evaluating the
hitting-time formula; the normal CDF oracle integrates the density by
high-precision quadrature instead of calling erfc.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath


def beta_cdf_by_polynomial_integration(b: int, w: int, x: Fraction) -> Fraction:
    """Exact Beta(b, w) CDF at rational x by expanding and integrating.

    (1-p)^(w-1) expands binomially, so the CDF is

        norm * sum_{i=0}^{w-1} C(w-1, i) (-1)^i x^(b+i) / (b+i)

    with norm = (b+w-1)! / ((b-1)! (w-1)!), all in rational arithmetic.
    """
    norm = Fraction(math.factorial(b + w - 1), math.factorial(b - 1) * math.factorial(w - 1))
    total = Fraction(0)
    for i in range(w):
        term = Fraction(math.comb(w - 1, i) * x ** (b + i), b + i)
        total += -term if i % 2 else term
    return norm * total


def first_passage_pmf_by_paths(
    black: int, white: int, target: int, n_max: int
) -> list[Fraction]:
    """Exact P(tau = n), n <= n_max, by enumerating every draw path."""
    pmf = [Fraction(0)] * (n_max + 1)

    def walk(b: int, w: int, step: int, prob: Fraction) -> None:
        if b - w == target:
            pmf[step] += prob
            return
        if step == n_max:
            return
        total = b + w
        walk(b + 1, w, step + 1, prob * Fraction(b, total))
        walk(b, w + 1, step + 1, prob * Fraction(w, total))

    walk(black, white, 0, Fraction(1))
    return pmf


def first_passage_pmf_by_recursion(
    black: int, white: int, target: int, horizon: int
) -> list[Fraction]:
    """Exact P(tau = n), n <= horizon, by an O(horizon^2) forward recursion.

    State (n, k) is "k black draws after n steps", reachable with S never
    having touched the target before step n; S(n, k) = S_0 + 2k - n.  A state
    sitting on the target contributes its mass to P(tau = n) and is pruned
    from further transitions.  Row n keeps integer numerators over the common
    denominator ``prod_{i<n} (black + white + i)``.
    """
    b, w = black, white
    s0 = b - w
    m = target
    pmf: list[Fraction] = [Fraction(0)] * (horizon + 1)

    if s0 == m:
        pmf[0] = Fraction(1)
        return pmf

    # numerators[k] / denom = P(n steps, k black draws, target untouched)
    numerators: list[int] = [1]
    denom = 1
    for n in range(horizon + 1):
        hit_twice_k = m - s0 + n  # S(n, k) == m  <=>  2k == m - s0 + n
        if hit_twice_k % 2 == 0 and 0 <= hit_twice_k // 2 < len(numerators):
            k = hit_twice_k // 2
            if numerators[k]:
                pmf[n] = Fraction(numerators[k], denom)
                numerators[k] = 0
        if n == horizon:
            break
        nxt = [0] * (n + 2)
        for k, mass in enumerate(numerators):
            if mass:
                nxt[k + 1] += mass * (b + k)
                nxt[k] += mass * (w + n - k)
        numerators = nxt
        denom *= b + w + n

    return pmf


def sequence_probability_by_stepping(black: int, white: int, draws: str) -> Fraction:
    """Exact probability of one draw sequence by stepping the urn counts."""
    prob = Fraction(1)
    b, w = black, white
    for d in draws:
        total = b + w
        if d == "B":
            prob *= Fraction(b, total)
            b += 1
        else:
            prob *= Fraction(w, total)
            w += 1
    return prob


def normal_cdf_by_quadrature(z: float, dps: int = 30) -> float:
    """Standard normal CDF by high-precision quadrature of the density."""
    with mpmath.workdps(dps):
        density = lambda t: mpmath.exp(-t * t / 2) / mpmath.sqrt(2 * mpmath.pi)
        if z <= 0:
            value = mpmath.quad(density, [mpmath.mpf("-inf"), z])
        else:
            value = 1 - mpmath.quad(density, [z, mpmath.mpf("inf")])
        return float(value)

