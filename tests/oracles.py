"""Independent oracles used by the tests.

These deliberately avoid the code paths they check, and import nothing from
``polya_urn``: the beta CDF oracle integrates the density polynomial term
by term instead of summing binomial tails; the first-passage oracles walk
every draw sequence, or step a forward recursion over (step, black draws),
instead of evaluating the hitting-time formula; the sequence and
black-count oracles multiply the urn's per-draw probabilities instead of
assuming exchangeability; the limit-fraction sampler steps simulated urns
draw by draw; the per-path direct hit counter holds the excess of every live
path of a stream in one array, draws each step's doubles in one call and
drops paths by their distance from the target, and the level-count one
keeps every level of black draws, zeros included, instead of a window
trimmed to its live levels; the Beta sampler takes order statistics of
uniforms instead of ratios of gamma variates; the normal CDF oracle
integrates the density by high-precision quadrature instead of calling
erfc; the ``num/den`` parser reads the digits a chunk at a time
instead of through ``Decimal``.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import NamedTuple

import mpmath
import numpy as np


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


class DrawSequence(NamedTuple):
    """One draw sequence ('B'/'W' per draw) and its exact probability."""

    draws: str
    probability: Fraction


def enumerate_sequences(black: int, white: int, n: int) -> list[DrawSequence]:
    """All 2^n draw sequences of length n with exact probabilities.

    Walks the draw tree: each draw multiplies the path's numerator by the
    count of the colour drawn and its denominator by the current total, so
    every sequence gets its own product, reduced once at the leaf.  No
    sequence's probability is taken from another's, so exchangeability is
    something callers can check, not something this assumes.
    """
    level = [("", black, white, 1, 1)]
    for _ in range(n):
        nxt = []
        for draws, b, w, num, den in level:
            total = b + w
            nxt.append((draws + "B", b + 1, w, num * b, den * total))
            nxt.append((draws + "W", b, w + 1, num * w, den * total))
        level = nxt
    return [DrawSequence(draws, Fraction(num, den)) for draws, _, _, num, den in level]


def black_count_pmfs_by_stepping(
    black: int, white: int, n_max: int
) -> list[dict[int, Fraction]]:
    """Exact pmf of the number of black draws after n steps, for n = 0..n_max.

    One forward pass over the urn's Markov chain: from k blacks after n
    draws, the next draw is black with probability (black + k)/(total + n).
    """
    total = black + white
    pmfs = [{0: Fraction(1)}]
    for n in range(n_max):
        nxt = {k: Fraction(0) for k in range(n + 2)}
        for k, p in pmfs[-1].items():
            p_black = Fraction(black + k, total + n)
            nxt[k + 1] += p * p_black
            nxt[k] += p * (1 - p_black)
        pmfs.append(nxt)
    return pmfs


def limit_fraction_samples(
    black: int, white: int, n_steps: int, n_runs: int, rng: np.random.Generator
) -> np.ndarray:
    """Black-ball fraction after n_steps draws, for n_runs independent urns."""
    blacks = np.zeros(n_runs, dtype=np.int64)
    for n in range(n_steps):
        blacks += rng.random(n_runs) < (black + blacks) / (black + white + n)
    return (black + blacks) / (black + white + n_steps)


def direct_step_hits_by_path(
    black: int, white: int, target: int, horizon: int, n_samples: int, rng: np.random.Generator
) -> list[int]:
    """Paths, of n_samples, whose excess first hits ``target`` at draw n, for n = 0..horizon.

    Every live path's excess is held at once.  Draw n takes L doubles for
    the L live paths in one ``rng.random(L)`` call, path i the i-th, and a
    path draws black when its double is below (black + its black draws) /
    urn size in float64.  Wherever the excess can equal the target, paths
    on it are hit and counted, and paths further from it than the draws
    left are dropped uncounted, so the next draw is only for the rest; a
    target out of reach from the start draws nothing.
    """
    s0 = black - white
    hits = [0] * (horizon + 1)
    if s0 == target:
        hits[0] = n_samples
    elif abs(s0 - target) <= horizon:
        excess = np.full(n_samples, s0, dtype=np.int64)
        _step_paths(black, white, target, horizon, excess, 0, hits, rng)
    return hits


def _step_paths(
    black: int, white: int, target: int, horizon: int, excess: np.ndarray, start: int,
    hits: list[int], rng: np.random.Generator,
) -> None:
    """Draws start..horizon - 1 of the paths whose excess is ``excess``, by path."""
    s0 = black - white
    for n in range(start, horizon):
        if excess.size == 0:
            break
        blacks = (excess - s0 + n) // 2
        u = rng.random(excess.size)
        excess = excess + np.where(u < (black + blacks) / float(black + white + n), 1, -1)
        if (excess[0] - target) % 2:  # every path's excess has the same parity
            continue
        draws_left = horizon - (n + 1)
        on_target = excess == target
        hits[n + 1] = int(on_target.sum())
        excess = excess[~on_target & (np.abs(excess - target) <= draws_left)]


def direct_step_hits_by_levels(
    black: int, white: int, target: int, horizon: int, n_samples: int, rng: np.random.Generator,
    few_paths: int = 0,
) -> list[int]:
    """``direct_step_hits_by_path``'s hits, with the paths held as counts by
    black draws until ``few_paths`` or fewer are live.

    counts[k] is the number of live paths with k black draws; after draw n
    all n + 2 levels are kept, zeros included, and none is ever trimmed.
    Draw n moves every level with one ``rng.binomial(counts, p)`` call, p[k]
    = (black + k) / (black + white + n) in float64, and a level's black
    draws move up one level.  Wherever the excess can equal the target, the
    level on it is counted and zeroed, and so are the levels further from
    it than the draws left, uncounted; if then ``few_paths`` or fewer paths
    are live, they step on by path, in ascending order of excess, as
    ``direct_step_hits_by_path`` steps them.  A target out of reach from the
    start draws nothing.
    """
    s0 = black - white
    if n_samples <= few_paths or s0 == target or abs(s0 - target) > horizon:
        return direct_step_hits_by_path(black, white, target, horizon, n_samples, rng)
    hits = [0] * (horizon + 1)
    counts = np.array([n_samples], dtype=np.int64)
    for n in range(horizon):
        blacks = rng.binomial(counts, (black + np.arange(n + 1)) / float(black + white + n))
        counts = np.concatenate([counts - blacks, [0]]) + np.concatenate([[0], blacks])
        excess = s0 + 2 * np.arange(n + 2) - (n + 1)
        if (excess[0] - target) % 2:  # every level's excess has the same parity
            continue
        on_target = excess == target
        hits[n + 1] = int(counts[on_target].sum())
        counts[on_target | (np.abs(excess - target) > horizon - (n + 1))] = 0
        if counts.sum() <= few_paths:
            paths = np.repeat(excess, counts)
            _step_paths(black, white, target, horizon, paths, n + 1, hits, rng)
            break
    return hits


def beta_by_order_statistics(
    b: int, w: int, size: int, rng: np.random.Generator
) -> np.ndarray:
    """``size`` Beta(b, w) draws, each the b-th smallest of b+w-1 uniforms.

    The uniforms come from one ``rng.random((size, b+w-1))`` call, row by
    row, and selection uses ``np.partition`` (introselect, expected linear)
    rather than a full sort.
    """
    u = rng.random((size, b + w - 1))
    return np.partition(u, b - 1, axis=1)[:, b - 1]


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


_DIGIT_CHUNK = 1000  # under int()'s limit of 4,300 digits a string


def parse_rational(text: str) -> Fraction:
    """Read a ``num/den`` string with integer parts of any length."""
    parts = text.split("/")
    if len(parts) != 2 or not all(re.fullmatch(r"-?[0-9]+", part) for part in parts):
        raise ValueError(f"expected 'num/den' with integer parts, got {text!r}")
    num, den = map(_int_by_chunks, parts)
    return Fraction(num, den)


def _int_by_chunks(text: str) -> int:
    digits = text.lstrip("-")
    value = 0
    for start in range(0, len(digits), _DIGIT_CHUNK):
        chunk = digits[start : start + _DIGIT_CHUNK]
        value = value * 10 ** len(chunk) + int(chunk)
    return -value if text.startswith("-") else value
