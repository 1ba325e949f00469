"""Seeded Monte Carlo for the urn process.

Two estimators, one sampler each:

* direct simulation of the urn until the excess S = black - white hits a
  target level or a horizon runs out (``estimate_equalization``);
* a two-stage mixture estimator with no horizon truncation
  (``definetti_estimator``): draw the urn's limiting black fraction p from
  Beta(b, w) with ``Generator.beta``, one variate per sample at a cost
  independent of b + w, then average the classical ruin probability
  min(1, ((1-p)/p)^(b-w)) of the biased walk the urn behaves like
  conditionally on p.

Determinism contract: every estimate is a pure function of its parameters,
its ``RngSeed`` and, for direct simulation, ``n_streams``.  Randomness comes
from the Philox 4x64 counter-based generator; stream t of seed s is keyed
``t * 2^64 + s``, so distinct streams are independent, and identical inputs
give bit-identical results on every platform, regardless of how the sample
blocks would be scheduled.

numpy is imported only inside the functions that draw or hold random
numbers, so importing this module, or building an ``RngSeed``, never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .errors import DomainError, ResourceLimitError
from .exact import UrnConfig, _require_strict_majority

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

# rows per Beta block: chunking bounds memory, and the draws equal one large
# ``rng.beta`` call, so the estimate does not depend on the chunk size
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
        seed = self.seed
        if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed <= _UINT64_MAX:
            raise DomainError(f"seed must be a 64-bit unsigned int, got {seed!r}")

    def generator(self, stream: int = 0) -> np.random.Generator:
        if not 0 <= stream <= _UINT64_MAX:
            raise DomainError(f"stream must be a 64-bit unsigned int, got {stream!r}")
        import numpy as np

        return np.random.Generator(np.random.Philox(key=(stream << 64) | self.seed))


@dataclass(frozen=True, slots=True)
class EstimateWithCI:
    """Monte Carlo point estimate with its Wald standard error.

    Two read-only properties derive from these fields: ``ci95`` is the Wald
    95% interval p_hat +/- z * std_err clamped to [0, 1], and ``degenerate``
    flags a zero standard error (for instance a single Bernoulli draw, or
    every sample hitting), where the interval collapses to p_hat.
    ``effective_samples`` is the Kish effective sample size (sum v)^2 / sum v^2
    of the averaged values v, 0 when every v (or every v^2) is 0; a few
    dominant draws make it small, and then the standard error means nothing.
    Only ``definetti_estimator`` sets it: a direct estimate averages 0/1 hits,
    whose effective sample size is just the hit count.
    """

    p_hat: float
    std_err: float
    n_samples: int
    effective_samples: Optional[float] = None

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise DomainError(f"n_samples must be >= 1, got {self.n_samples}")
        if not 0.0 <= self.p_hat <= 1.0:
            raise DomainError(f"p_hat must lie in [0, 1], got {self.p_hat}")
        if self.std_err < 0.0:
            raise DomainError(f"std_err must be >= 0, got {self.std_err}")
        if self.n_samples >= 2:
            # sampling values in [0,1]: s^2/n is at most p(1-p)/(n-1)
            bound = self.p_hat * (1.0 - self.p_hat) / (self.n_samples - 1)
            if self.std_err**2 > bound + 1e-12:
                raise DomainError(
                    f"std_err={self.std_err} exceeds the binomial-sampling bound"
                )

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
) -> int:
    """Vectorized hit count over one block of paths (one RNG stream)."""
    import numpy as np

    b, w = config.black, config.white
    s0 = config.initial_excess
    if s0 == target_diff:
        return n_samples
    blacks = np.zeros(n_samples, dtype=np.int64)
    hits = 0
    for n in range(horizon):
        u = rng.random(blacks.shape[0])
        blacks += u < (b + blacks) / (b + w + n)
        s = s0 + 2 * blacks - (n + 1)
        absorbed = s == target_diff
        n_absorbed = int(absorbed.sum())
        if n_absorbed:
            hits += n_absorbed
            blacks = blacks[~absorbed]
            if blacks.size == 0:
                break
    return hits


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
    t drawing from stream ``seed.generator(t)``; the result depends only on
    (parameters, seed, n_streams), never on scheduling.  Note the estimand is
    the truncated P(tau <= horizon), not P(tau < infinity); compare
    ``first_passage_dp`` for the truncation gap, or ``definetti_estimator``
    for the untruncated probability.  Raises ``ResourceLimitError`` when a
    stream's paths cannot be allocated.
    """
    if n_samples < 1:
        raise DomainError(f"n_samples must be >= 1, got {n_samples}")
    if n_streams < 1:
        raise DomainError(f"n_streams must be >= 1, got {n_streams}")
    if horizon < 0:
        raise DomainError(f"horizon must be >= 0, got {horizon}")
    base, rem = divmod(n_samples, n_streams)
    hits = 0
    # streams past the n_samples-th get an empty block and draw nothing
    for t in range(min(n_streams, n_samples)):
        block = base + (1 if t < rem else 0)
        try:
            hits += _first_passage_hit_count(config, target_diff, horizon, block, seed.generator(t))
        except (MemoryError, ValueError) as exc:
            # numpy's failed allocation, or its ValueError for sizes past its limits
            raise ResourceLimitError(f"cannot allocate {block} paths in one stream: {exc}") from exc
    p_hat = hits / n_samples
    std_err = math.sqrt(p_hat * (1.0 - p_hat) / n_samples)
    return EstimateWithCI(p_hat, std_err, n_samples)


def _ruin_values(p: np.ndarray, excess: int) -> np.ndarray:
    """min(1, ((1-p)/p)^excess) per sample, the biased-walk ruin probability."""
    import numpy as np

    values = np.ones(p.shape[0])
    favored = p > 0.5
    ratio = (1.0 - p[favored]) / p[favored]
    values[favored] = ratio**excess
    return values


def definetti_estimator(
    config: UrnConfig, n_samples: int, seed: RngSeed
) -> EstimateWithCI:
    """Estimate P(tau < infinity) with no horizon truncation.

    The urn's draws are exchangeable, so conditionally on the limiting black
    fraction p the excess performs a biased random walk from b - w, whose
    probability of ever reaching 0 is min(1, ((1-p)/p)^(b-w)).  Averaging
    that over p ~ Beta(b, w) gives the equalization probability.  It draws
    from stream 0 of ``seed``.
    """
    import numpy as np

    b, w = _require_strict_majority(config, "the de Finetti estimator")
    if n_samples < 1:
        raise DomainError(f"n_samples must be >= 1, got {n_samples}")
    excess = b - w
    rng = seed.generator()
    total = 0.0
    total_sq = 0.0
    remaining = n_samples
    while remaining:
        rows = min(_CHUNK_ROWS, remaining)
        values = _ruin_values(rng.beta(b, w, rows), excess)
        total += float(values.sum())
        total_sq += float(np.square(values).sum())
        remaining -= rows
    mean = total / n_samples
    if n_samples >= 2:
        variance = max(0.0, (total_sq - n_samples * mean * mean) / (n_samples - 1))
        std_err = math.sqrt(variance / n_samples)
    else:
        std_err = 0.0
    effective = total * total / total_sq if total_sq else 0.0
    return EstimateWithCI(min(1.0, mean), std_err, n_samples, effective)
