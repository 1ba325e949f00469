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

Both return an ``EstimateWithCI`` of the sums of the values they average (0/1
hits, or ruin probabilities), so one standard error and one effective sample
size serve both.

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
from typing import TYPE_CHECKING

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
            raise DomainError(f"n_samples must be >= 1, got {self.n_samples}")
        # summation rounding may carry a sum a relative 1e-12 past its bound
        slack = 1 + 1e-12
        if not (0.0 <= self.total_sq <= self.total * slack and self.total <= self.n_samples * slack):
            raise DomainError(f"need 0 <= total_sq <= total <= n_samples, got {self}")

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
        # S = s0 + 2 * blacks - (n + 1) hits the target iff 2 * blacks == need
        need = target_diff - s0 + n + 1
        if need % 2:
            continue
        absorbed = blacks == need // 2
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
    if n_streams < 1:
        raise DomainError(f"n_streams must be >= 1, got {n_streams}")
    if horizon < 0:
        raise DomainError(f"horizon must be >= 0, got {horizon}")
    base, rem = divmod(n_samples, n_streams)
    hits = 0
    # streams past the n_samples-th get an empty block and draw nothing, and
    # n_samples < 1 draws nothing and is refused by EstimateWithCI
    for t in range(min(n_streams, n_samples)):
        block = base + (1 if t < rem else 0)
        try:
            hits += _first_passage_hit_count(config, target_diff, horizon, block, seed.generator(t))
        except (MemoryError, ValueError) as exc:
            # numpy's failed allocation, or its ValueError for sizes past its limits
            raise ResourceLimitError(f"cannot allocate {block} paths in one stream: {exc}") from exc
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
    that over p ~ Beta(b, w) gives the equalization probability.  It draws
    from stream 0 of ``seed``.
    """
    import numpy as np

    b, w = _require_strict_majority(config, "the de Finetti estimator")
    rng = seed.generator()
    total = total_sq = 0.0
    # n_samples < 1 draws nothing and is refused by EstimateWithCI
    for start in range(0, n_samples, _CHUNK_ROWS):
        values = _ruin_values(rng.beta(b, w, min(_CHUNK_ROWS, n_samples - start)), b - w)
        total += float(values.sum())
        total_sq += float(np.square(values).sum())
    return EstimateWithCI(n_samples, total, total_sq)
