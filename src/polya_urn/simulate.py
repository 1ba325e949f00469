"""Seeded Monte Carlo for the urn process.

Two estimators, one sampler each:

* direct simulation of the urn until the excess S = black - white hits a
  target level or a horizon runs out (``estimate_equalization``): every
  path with the same number of black draws is in the same state, so each
  stream holds its live paths as counts over a window of levels and moves
  them a step with one binomial draw per level, drops the paths that hit
  or can no longer hit, and steps its last few live paths one by one in
  Python lists, each drawing one ``Generator.random`` double;
* a two-stage mixture estimator with no horizon truncation
  (``definetti_estimator``): draw the urn's limiting black fraction p from
  Beta(b, w) with ``Generator.beta``, one variate per sample at a cost
  independent of b + w, then average the classical ruin probability
  min(1, ((1-p)/p)^(b-w)) of the biased walk the urn behaves like
  conditionally on p.

Both return an ``EstimateWithCI`` of the sums of the values they average (0/1
hits, or ruin probabilities), so one standard error and one effective sample
size serve both.

Determinism contract: every estimate is a pure function of its parameters,
its ``RngSeed`` and, for direct simulation, ``n_streams``.  Randomness comes
from the Philox 4x64 counter-based generator; stream t of seed s is keyed
``t * 2^64 + s``, so distinct streams are independent, and identical inputs
give bit-identical results on every platform.  Streams run one after
another and their hits are summed as exact ints.  ``Generator.binomial`` and
``Generator.beta`` fall under numpy's stream-compatibility policy (NEP 19),
so a numpy release may change their streams; the de Finetti estimate's Beta
chunks consume a stream exactly as one large ``rng.beta`` call does, so it
does not depend on the chunk size.

numpy is imported only inside the functions that draw or hold random
numbers, so importing this module, or building an ``RngSeed``, does not
load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .cost import _FEW_PATHS, _check_beta_shapes, check_path_state
from .errors import DomainError
from .exact import UrnConfig
from .output import int_str

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "RngSeed",
    "EstimateWithCI",
    "estimate_equalization",
    "definetti_estimator",
]

_UINT64_MAX = 2**64 - 1

# two-sided 95% normal quantile for Wald intervals
_Z95 = 1.959963984540054

# rows per chunk of Beta draws: chunking bounds memory, and the draws equal
# one large ``rng.beta`` call, so no estimate depends on the chunk size
_CHUNK_ROWS = 1 << 16


@dataclass(frozen=True, slots=True)
class RngSeed:
    """A 64-bit seed naming a family of independent Philox streams.

    ``generator(t)`` is stream t, keyed ``t * 2^64 + seed``, so every
    (seed, stream) pair names a distinct, independent stream.
    """

    seed: int

    def __post_init__(self) -> None:
        # bool is an int subclass: RngSeed(True) would silently act as seed 1
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise DomainError(f"seed must be a 64-bit unsigned int, got {self.seed!r}")
        if not 0 <= self.seed <= _UINT64_MAX:
            raise DomainError(f"seed must be a 64-bit unsigned int, got {int_str(self.seed)}")

    def generator(self, stream: int = 0) -> np.random.Generator:
        if not 0 <= stream <= _UINT64_MAX:
            raise DomainError(f"stream must be a 64-bit unsigned int, got {int_str(stream)}")
        import numpy as np

        return np.random.Generator(np.random.Philox(key=(stream << 64) | self.seed))


@dataclass(frozen=True, slots=True)
class EstimateWithCI:
    """Monte Carlo estimate stored as the sums of its averaged values v in [0, 1].

    ``total`` is sum v and ``total_sq`` sum v^2: both are the hit count of a
    direct estimate, which averages 0/1 hits.  The rest are read-only
    properties: ``p_hat`` is the mean; ``std_err`` is sqrt(s^2/n), s^2 the
    unbiased sample variance (0 for one sample); ``ci95`` is the Wald 95%
    interval p_hat +/- z * std_err clamped to [0, 1], collapsing to p_hat when
    ``degenerate`` (zero standard error); ``effective_samples`` is the Kish
    size total^2 / total_sq (0 when every v is 0), below which a few draws
    carry the mean and the standard error means nothing.  Values in [0, 1]
    give 0 <= total_sq <= total <= n, so std_err^2 <= p_hat(1-p_hat)/(n-1).
    """

    n_samples: int
    total: float
    total_sq: float

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise DomainError(f"n_samples must be >= 1, got {int_str(self.n_samples)}")
        # summation rounding may carry a sum a relative 1e-12 past its bound
        slack = 1 + 1e-12
        if not (0.0 <= self.total_sq <= self.total * slack and self.total <= self.n_samples * slack):
            shown = f"n_samples={int_str(self.n_samples)}, total={self.total}, total_sq={self.total_sq}"
            raise DomainError(f"need 0 <= total_sq <= total <= n_samples, got EstimateWithCI({shown})")

    @property
    def p_hat(self) -> float:
        return min(1.0, self.total / self.n_samples)

    @property
    def std_err(self) -> float:
        n = self.n_samples
        if n < 2:
            return 0.0
        mean = self.total / n
        variance = max(0.0, (self.total_sq - n * mean * mean) / (n - 1))
        return math.sqrt(variance / n)

    @property
    def effective_samples(self) -> float:
        return self.total * self.total / self.total_sq if self.total_sq else 0.0

    @property
    def ci95(self) -> tuple[float, float]:
        half = _Z95 * self.std_err
        return max(0.0, self.p_hat - half), min(1.0, self.p_hat + half)

    @property
    def degenerate(self) -> bool:
        return self.std_err == 0.0

    def z_score(self, reference: float) -> float:
        """Standardized distance of the estimate from a reference value."""
        if self.degenerate:
            return math.inf if self.p_hat != reference else 0.0
        return (self.p_hat - reference) / self.std_err


def _first_passage_hit_count(
    config: UrnConfig,
    target_diff: int,
    horizon: int,
    n_samples: int,
    rng: np.random.Generator,
) -> list[int]:
    """Hits of one block of paths (one RNG stream) at each draw n = 0..horizon.

    Every path that has drawn u blacks in n draws is in the same state, so
    the live paths are int64 counts over a window of consecutive held values
    b + u, the lowest ``low``.  Step n moves the whole window with one
    ``rng.binomial(counts, held / (b + w + n))`` call: each level's black
    draws move up one level.  numpy draws nothing for a zero count, so the
    window's zeros do not change the stream.

    Where S - m is even, the target level's paths are counted as hits and
    removed, and so, uncounted, are the levels with |S - m| above the draws
    left, since they can no longer hit; the window is then trimmed to its
    non-zero levels.  A target further than ``horizon`` from S0 draws
    nothing.  Once ``_FEW_PATHS`` or fewer paths are live they step one by
    one, in ascending held order, in Python lists (``_list_steps``).
    """
    import numpy as np

    b, w = config.black, config.white
    s0 = config.initial_excess
    hits = [0] * (horizon + 1)
    if s0 == target_diff:
        hits[0] = n_samples
        return hits
    if abs(s0 - target_diff) > horizon:
        return hits
    # a path's excess cannot pass the target without sitting on it, so it
    # stays on its starting side, and only that side's edge of the band of
    # held values that can still hit drops paths
    side = 1 if s0 > target_diff else -1

    def schedule():
        """Per step, its index, the urn size and the test after its draw:
        None, or the hit level and the drop edge (None when no path can be past it)."""
        for n in range(horizon):
            # S = s0 + 2 * blacks - (n + 1), so when need is even S - m is
            # 2 * (held - level): a path hits at level, and can still hit in
            # the draws left iff |held - level| <= reach, so the paths kept
            # are those strictly between level and edge, or on edge
            need = target_diff - s0 + n + 1
            test = None
            if need % 2 == 0:
                level, reach = b + need // 2, (horizon - n - 1) // 2
                edge = level + side * reach
                # held lies in [b, b + n + 1]: skip a test no path can meet
                prune = b < edge if side < 0 else edge < b + n + 1
                if prune or 0 <= need <= 2 * (n + 1):
                    test = level, edge if prune else None
            yield n, float(b + w + n), test

    steps = schedule()
    counts, low = np.array([n_samples], dtype=np.int64), b
    # a stream of at most _FEW_PATHS paths steps them in lists from the start
    for n, size, test in steps if n_samples > _FEW_PATHS else ():
        blacks = rng.binomial(counts, np.arange(low, low + counts.size) / size)
        counts = np.append(counts - blacks, 0)
        counts[1:] += blacks
        if test is None:
            continue
        level, edge = test
        if low <= level < low + counts.size:
            hits[n + 1] = int(counts[level - low])
            counts[level - low] = 0
        if edge is not None:
            if side > 0:
                counts[max(0, edge + 1 - low):] = 0
            else:
                counts[:max(0, edge - low)] = 0
        nonzero = np.flatnonzero(counts)
        if nonzero.size == 0:
            return hits
        low += int(nonzero[0])
        counts = counts[nonzero[0]:nonzero[-1] + 1]
        if counts.sum() <= _FEW_PATHS:
            break
    held = np.repeat(np.arange(low, low + counts.size), counts).tolist()
    _list_steps(steps, held, side, rng.random, hits)
    return hits


def _list_steps(steps, held: list, side: int, random, hits: list) -> None:
    """Add to ``hits`` those of the live paths ``held`` over the rest of
    ``steps``, stepped in Python lists.

    Step n takes one ``random(L)`` call for its L live paths: path i gets
    the i-th double u and draws black iff u < held / (b + w + n), the
    float64 probability the window passes to ``Generator.binomial``.
    """
    for n, size, test in steps:
        if not held:
            break
        held = [h + (u < h / size) for h, u in zip(held, random(len(held)).tolist())]
        if test is not None:
            level, edge = test
            kept = [h for h in held if h != level]
            hits[n + 1] = len(held) - len(kept)
            if edge is not None:
                kept = [h for h in kept if (h - edge) * side <= 0]
            held = kept


def estimate_equalization(
    config: UrnConfig,
    target_diff: int,
    horizon: int,
    n_samples: int,
    seed: RngSeed,
    n_streams: int = 1,
) -> EstimateWithCI:
    """Estimate P(tau <= horizon) by direct simulation.

    Samples are split as evenly as possible over ``n_streams`` blocks, block
    t drawing from stream ``seed.generator(t)``, one block after another.
    Note the estimand is the truncated P(tau <= horizon), not
    P(tau < infinity); compare ``first_passage_dp`` for the truncation gap,
    or ``definetti_estimator`` for the untruncated probability.  Raises
    ``ResourceLimitError`` before any draw when the paths cannot be
    represented (``cost.check_path_state``): b + horizon or a stream's path
    count past int64, a stream's per-draw hit counts past the memory
    budget, or, with the target in reach, an urn size past the float range.
    """
    if n_streams < 1:
        raise DomainError(f"n_streams must be >= 1, got {int_str(n_streams)}")
    if horizon < 0:
        raise DomainError(f"horizon must be >= 0, got {int_str(horizon)}")
    base, rem = divmod(n_samples, n_streams)
    check_path_state(config, target_diff, horizon, base + (1 if rem else 0))
    # streams past the n_samples-th get an empty block and draw nothing, and
    # n_samples < 1 draws nothing and is refused by EstimateWithCI
    hits = sum(
        sum(_first_passage_hit_count(
            config, target_diff, horizon, base + (t < rem), seed.generator(t)
        ))
        for t in range(min(n_streams, n_samples))
    )
    return EstimateWithCI(n_samples, hits, hits)


def _ruin_values(p: np.ndarray, excess: int) -> np.ndarray:
    """min(1, ((1-p)/p)^excess) per sample, the biased-walk ruin probability."""
    import numpy as np

    # p = 0 divides by zero and p < 1/2 may overflow: both give inf, clamped to 1
    with np.errstate(divide="ignore", over="ignore"):
        return np.minimum(1.0, ((1.0 - p) / p) ** excess)


def definetti_estimator(
    config: UrnConfig, n_samples: int, seed: RngSeed
) -> EstimateWithCI:
    """Estimate P(tau < infinity) with no horizon truncation.

    The urn's draws are exchangeable, so conditionally on the limiting black
    fraction p the excess performs a biased random walk from b - w, whose
    probability of ever reaching 0 is min(1, ((1-p)/p)^(b-w)).  Averaging
    that over p ~ Beta(b, w) gives the equalization probability, 1 at b = w
    and the color-swapped urn's at b < w.  It draws from stream 0 of
    ``seed``.  Raises ``ResourceLimitError`` before any draw when b or w, a
    Beta shape, is past the float range.
    """
    import numpy as np

    _check_beta_shapes(config)
    b, w = config.black, config.white
    rng = seed.generator()
    total = total_sq = 0.0
    # n_samples < 1 draws nothing and is refused by EstimateWithCI
    for start in range(0, n_samples, _CHUNK_ROWS):
        values = _ruin_values(rng.beta(b, w, min(_CHUNK_ROWS, n_samples - start)), b - w)
        total += float(values.sum())
        total_sq += float(np.square(values).sum())
    return EstimateWithCI(n_samples, total, total_sq)
