"""Seeded Monte Carlo for the urn process.

Two estimators, one sampler each:

* direct simulation of the urn until the excess S = black - white hits a
  target level or a horizon runs out (``estimate_equalization``);
* a two-stage mixture estimator with no horizon truncation
  (``definetti_estimator``): draw the urn's limiting black fraction p from
  Beta(b, w) via order statistics of uniforms
  (``sample_beta_order_statistics``), then average the classical ruin
  probability min(1, ((1-p)/p)^(b-w)) of the biased walk the urn behaves
  like conditionally on p.

``limit_fraction_samples`` runs urns for a fixed number of draws and returns
their black-ball fractions, whose law tends to Beta(b, w).

Determinism contract: every estimate is a pure function of its parameters
and an ``RngSeed``.  Randomness comes from the Philox 4x64 counter-based
generator keyed by ``stream_id * 2^64 + seed``; distinct stream ids give
independent streams, and identical inputs give bit-identical results on
every platform, regardless of how the sample blocks would be scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .exact import BetaParams, UrnConfig, _require_strict_majority

__all__ = [
    "RngSeed",
    "EstimateWithCI",
    "estimate_equalization",
    "sample_beta_order_statistics",
    "definetti_estimator",
    "limit_fraction_samples",
]

_UINT64_MAX = 2**64 - 1

# two-sided 95% normal quantile for Wald intervals
_Z95 = 1.959963984540054

# cap on elements per random block so chunking stays memory-bounded while
# consuming the stream identically to one large draw
_CHUNK_ELEMENTS = 4_194_304


@dataclass(frozen=True, slots=True)
class RngSeed:
    """Seed plus stream id selecting one Philox stream.

    The 128-bit Philox key is ``stream_id * 2^64 + seed``, so every
    (seed, stream_id) pair names a distinct, independent stream.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int) or not 0 <= self.seed <= _UINT64_MAX:
            raise DomainError(f"seed must be a 64-bit unsigned int, got {self.seed!r}")
        if not isinstance(self.stream_id, int) or not 0 <= self.stream_id <= _UINT64_MAX:
            raise DomainError(
                f"stream_id must be a 64-bit unsigned int, got {self.stream_id!r}"
            )

    def philox_key(self) -> int:
        return (self.stream_id << 64) | self.seed

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=self.philox_key()))

    def with_stream(self, offset: int) -> "RngSeed":
        return RngSeed(self.seed, self.stream_id + offset)


@dataclass(frozen=True, slots=True)
class EstimateWithCI:
    """Monte Carlo point estimate with Wald standard error and 95% CI.

    ``degenerate`` flags a zero standard error (for instance a single
    Bernoulli draw, or every sample hitting), where the interval collapses.
    """

    p_hat: float
    std_err: float
    ci95: tuple[float, float]
    n_samples: int
    degenerate: bool = False

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise DomainError(f"n_samples must be >= 1, got {self.n_samples}")
        if not 0.0 <= self.p_hat <= 1.0:
            raise DomainError(f"p_hat must lie in [0, 1], got {self.p_hat}")
        if self.std_err < 0.0:
            raise DomainError(f"std_err must be >= 0, got {self.std_err}")
        lo, hi = self.ci95
        if not lo <= self.p_hat <= hi:
            raise DomainError(f"CI {self.ci95} must bracket p_hat={self.p_hat}")
        if self.n_samples >= 2:
            # sampling values in [0,1]: s^2/n is at most p(1-p)/(n-1)
            bound = self.p_hat * (1.0 - self.p_hat) / (self.n_samples - 1)
            if self.std_err**2 > bound + 1e-12:
                raise DomainError(
                    f"std_err={self.std_err} exceeds the binomial-sampling bound"
                )

    def z_score(self, reference: float) -> float:
        """Standardized distance of the estimate from a reference value."""
        if self.std_err == 0.0:
            return math.inf if self.p_hat != reference else 0.0
        return (self.p_hat - reference) / self.std_err


def _wald_estimate(p_hat: float, std_err: float, n_samples: int) -> EstimateWithCI:
    lo = max(0.0, p_hat - _Z95 * std_err)
    hi = min(1.0, p_hat + _Z95 * std_err)
    return EstimateWithCI(p_hat, std_err, (lo, hi), n_samples, std_err == 0.0)


def _first_passage_hit_count(
    config: UrnConfig,
    target_diff: int,
    horizon: int,
    n_samples: int,
    rng: np.random.Generator,
) -> int:
    """Vectorized hit count over one block of paths (one RNG stream)."""
    if n_samples == 0:
        return 0
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
    t drawing from stream ``seed.with_stream(t)``; the result depends only on
    (parameters, seed, n_streams), never on scheduling.  Note the estimand is
    the truncated P(tau <= horizon), not P(tau < infinity); compare
    ``first_passage_dp`` for the truncation gap, or ``definetti_estimator``
    for the untruncated probability.
    """
    if n_samples < 1:
        raise DomainError(f"n_samples must be >= 1, got {n_samples}")
    if n_streams < 1:
        raise DomainError(f"n_streams must be >= 1, got {n_streams}")
    if horizon < 0:
        raise DomainError(f"horizon must be >= 0, got {horizon}")
    base, rem = divmod(n_samples, n_streams)
    hits = 0
    for t in range(n_streams):
        block = base + (1 if t < rem else 0)
        hits += _first_passage_hit_count(
            config, target_diff, horizon, block, seed.with_stream(t).generator()
        )
    p_hat = hits / n_samples
    std_err = math.sqrt(p_hat * (1.0 - p_hat) / n_samples)
    return _wald_estimate(p_hat, std_err, n_samples)


def sample_beta_order_statistics(
    params: BetaParams, size: int, rng: np.random.Generator
) -> np.ndarray:
    """``size`` Beta(b, w) draws, each the b-th smallest of b+w-1 uniforms.

    The uniforms come from one ``rng.random((size, b+w-1))`` call, row by
    row, and selection uses ``np.partition`` (introselect, expected linear)
    rather than a full sort.
    """
    u = rng.random((size, params.b + params.w - 1))
    return np.partition(u, params.b - 1, axis=1)[:, params.b - 1]


def _ruin_values(p: np.ndarray, excess: int) -> np.ndarray:
    """min(1, ((1-p)/p)^excess) per sample, the biased-walk ruin probability."""
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
    that over p ~ Beta(b, w) gives the equalization probability.
    """
    b, w = _require_strict_majority(config, "the de Finetti estimator")
    if n_samples < 1:
        raise DomainError(f"n_samples must be >= 1, got {n_samples}")
    params = BetaParams(b, w)
    excess = b - w
    rng = seed.generator()
    chunk_rows = max(1, _CHUNK_ELEMENTS // (b + w - 1))
    total = 0.0
    total_sq = 0.0
    remaining = n_samples
    while remaining:
        rows = min(chunk_rows, remaining)
        values = _ruin_values(sample_beta_order_statistics(params, rows, rng), excess)
        total += float(values.sum())
        total_sq += float(np.square(values).sum())
        remaining -= rows
    mean = total / n_samples
    if n_samples >= 2:
        variance = max(0.0, (total_sq - n_samples * mean * mean) / (n_samples - 1))
        std_err = math.sqrt(variance / n_samples)
    else:
        std_err = 0.0
    return _wald_estimate(min(1.0, mean), std_err, n_samples)


def limit_fraction_samples(
    config: UrnConfig, n_steps: int, n_runs: int, rng: np.random.Generator
) -> np.ndarray:
    """Black-ball fraction after n_steps draws, for n_runs independent urns."""
    if n_steps < 0:
        raise DomainError(f"n_steps must be >= 0, got {n_steps}")
    if n_runs < 1:
        raise DomainError(f"n_runs must be >= 1, got {n_runs}")
    b, w = config.black, config.white
    blacks = np.zeros(n_runs, dtype=np.int64)
    for n in range(n_steps):
        blacks += rng.random(n_runs) < (b + blacks) / (b + w + n)
    return (b + blacks) / (b + w + n_steps)

