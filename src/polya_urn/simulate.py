"""Seeded Monte Carlo for the urn process.

Two estimators, one sampler each:

* direct simulation of the urn until the excess S = black - white hits a
  target level or a horizon runs out (``estimate_equalization``): each
  stream's paths are stepped in place, a cache-sized chunk at a time, and
  blocks of at least a chunk run up to min(streams, CPUs) streams at once
  on threads, since numpy releases the GIL while it draws and compares;
  a path-step draws half a raw Philox word, a path stops drawing once it
  hits or can no longer hit, and a stream's last few live paths are
  stepped in Python lists, where a numpy call costs more than its work;
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
give bit-identical results on every platform.  Streams that run at once
share no state, each block's hits are an exact int, and chunked draws consume
a stream exactly as one draw of the whole block does, so the result does not
depend on how the blocks are scheduled, on the chunk size or on whether
arrays or lists hold the paths.  Direct simulation cuts each word into
32-bit halves by mask and shift, so byte order does not matter either; 32
bits bias a draw by under 2^-32.

numpy is imported only inside the functions that draw or hold random
numbers, and ``concurrent.futures`` only when streams run on a thread pool, so
importing this module, or building an ``RngSeed``, loads neither.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .cost import check_path_state
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

# rows per chunk of Beta draws or of direct-simulation paths: chunking bounds
# memory and keeps a step's buffers in cache, and the draws equal one large
# ``rng.beta`` or ``random_raw`` call, so no estimate depends on the chunk
# size; it must be even, so that no chunk but the last splits a word
_CHUNK_ROWS = 1 << 16

# direct simulation draws one 32-bit half of a Philox word per path-step
_HALF_MASK = 0xFFFFFFFF
_HALF_SCALE = 2.0**-32

# at or below this many live paths a step costs less in Python lists than in
# numpy calls, each of which costs about a microsecond however short its array
_FEW_PATHS = 24


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


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _first_passage_hit_count(
    config: UrnConfig,
    target_diff: int,
    horizon: int,
    n_samples: int,
    rng: np.random.Generator,
) -> int:
    """Hit count over one block of paths (one RNG stream).

    Each live path holds b + blacks, and the live paths keep their order.
    Step n takes ceil(L/2) ``random_raw`` words for its L live paths: path
    i gets r, the low 32 bits of word i // 2 for even i and the high 32
    bits for odd i, and draws black iff r * (b + w + n) * 2^-32 < held, in
    float64.  Scaling by 2^-32 is exact, so one float64 compare serves
    int32 and int64 path state.

    Where S - m is even, paths on the target are counted as hits, and paths
    with |S - m| above the draws left are dropped uncounted, since they can
    no longer hit; a target further than ``horizon`` from S0 draws nothing.
    While more than ``_FEW_PATHS`` paths are live they are stepped in numpy
    arrays (``_array_steps``), and then in Python lists (``_list_steps``);
    both apply the same rule to the same words.
    """
    import numpy as np

    # an odd chunk would split a word across chunks and change the stream
    assert _CHUNK_ROWS % 2 == 0, f"_CHUNK_ROWS must be even, got {_CHUNK_ROWS}"
    b, w = config.black, config.white
    s0 = config.initial_excess
    if s0 == target_diff:
        return n_samples
    if abs(s0 - target_diff) > horizon:
        return 0
    # a path's excess cannot pass the target without sitting on it, so it
    # stays on its starting side, and only that side's edge of the band of
    # held values that can still hit drops paths
    side = 1 if s0 > target_diff else -1

    def schedule():
        """Per step, the urn size times 2^-32 and the test after its draw:
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
            yield (b + w + n) * _HALF_SCALE, test

    steps = schedule()
    raw = rng.bit_generator.random_raw
    if n_samples > _FEW_PATHS:
        dtype = np.int64 if b + horizon >= 2**31 else np.int32
        hits, held = _array_steps(steps, np.full(n_samples, b, dtype=dtype), side, raw)
    else:
        hits, held = 0, [b] * n_samples
    return hits + _list_steps(steps, held, side, raw)


def _array_steps(steps, held: np.ndarray, side: int, raw) -> tuple[int, list]:
    """Hits over ``steps`` until ``_FEW_PATHS`` or fewer paths are live, and
    the live paths' held values then, as a list.

    ``held`` is front-packed and walked ``_CHUNK_ROWS`` at a time through
    buffers allocated once; every chunk but the last is even, so the chunks
    take the words one draw of every live path would, and the count does
    not depend on the chunk size.  Dropped paths are packed out of ``held``
    in the same pass, so memory stays at ``held`` plus a few chunk-sized
    buffers.
    """
    import numpy as np

    rows = min(held.size, _CHUNK_ROWS)
    # one spare half takes the unused high half of an odd chunk's last word
    halves, u = np.empty(rows + 1, dtype=np.uint64), np.empty(rows)
    up, near = np.empty(rows, dtype=bool), np.empty(rows, dtype=bool)
    # uint64 operands and outputs keep the split off numpy's casting loops,
    # so the one cast to float64 is in the multiply
    mask, shift = np.uint64(_HALF_MASK), np.uint64(32)
    within = np.less_equal if side > 0 else np.greater_equal

    def chunks(live: int) -> list:
        # a block of at most one chunk is one view of each buffer, rebuilt
        # only when paths are dropped, so its steps do no slicing
        return [
            (lo, held[lo:lo + k], halves[:k], halves[0:k:2], halves[1:k + 1:2],
             u[:k], up[:k], near[:k])
            for lo in range(0, live, _CHUNK_ROWS)
            for k in (min(_CHUNK_ROWS, live - lo),)
        ]

    live, hits = held.size, 0
    views = chunks(live)
    for scale, test in steps:
        kept = 0
        for lo, held_k, halves_k, low, high, u_k, up_k, near_k in views:
            words = raw(low.size)
            np.bitwise_and(words, mask, low)
            np.right_shift(words, shift, high)
            # freed now, not when the next chunk's words are already drawn
            del words
            np.multiply(halves_k, scale, u_k)
            np.less(u_k, held_k, up_k)
            held_k += up_k
            if test is None:
                continue
            level, edge = test
            np.not_equal(held_k, level, up_k)
            survivors = int(np.count_nonzero(up_k))
            hits += up_k.size - survivors
            if edge is not None:
                within(held_k, edge, near_k)
                up_k &= near_k
                survivors = int(np.count_nonzero(up_k))
            if survivors < up_k.size:
                held[kept:kept + survivors] = held_k[up_k]
            elif kept < lo:
                held[kept:kept + survivors] = held_k
            kept += survivors
        if test is not None and kept < live:
            live = kept
            if live <= _FEW_PATHS:
                break
            views = chunks(live)
    return hits, held[:live].tolist()


def _list_steps(steps, held: list, side: int, raw) -> int:
    """Hits of the live paths ``held`` over the rest of ``steps``, in lists."""
    hits = 0
    for scale, test in steps:
        if not held:
            break
        words = raw((len(held) + 1) // 2).tolist()
        halves = [half for word in words for half in (word & _HALF_MASK, word >> 32)]
        # float(h): numpy compares a float64 with int path state in float64
        held = [h + (r * scale < float(h)) for h, r in zip(held, halves)]
        if test is not None:
            level, edge = test
            kept = [h for h in held if h != level]
            hits += len(held) - len(kept)
            if edge is not None:
                kept = [h for h in kept if (h - edge) * side <= 0]
            held = kept
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
    t drawing from stream ``seed.generator(t)``.  When every block holds at
    least ``_CHUNK_ROWS`` paths, up to min(n_streams, usable CPUs) blocks run
    at once on a thread pool; smaller blocks run one after another.  Hits are
    summed as ints, so the result depends only on (parameters, seed,
    n_streams), never on scheduling.  Note the estimand is the truncated
    P(tau <= horizon), not P(tau < infinity); compare ``first_passage_dp``
    for the truncation gap, or ``definetti_estimator`` for the untruncated
    probability.  Raises ``ResourceLimitError`` before any draw when
    b + horizon does not fit the int64 path state or a stream's paths do not
    fit the memory budget (``cost.check_path_state``), and when a stream's
    paths cannot be allocated; the other workers then start no new block.
    """
    if n_streams < 1:
        raise DomainError(f"n_streams must be >= 1, got {n_streams}")
    if horizon < 0:
        raise DomainError(f"horizon must be >= 0, got {horizon}")
    base, rem = divmod(n_samples, n_streams)
    check_path_state(config, horizon, base + (1 if rem else 0))
    # streams past the n_samples-th get an empty block and draw nothing, and
    # n_samples < 1 draws nothing and is refused by EstimateWithCI
    n_blocks = min(n_streams, n_samples)
    # a block below one chunk is bound by per-step interpreter work, which
    # holds the GIL, so only blocks of a chunk or more share out the streams
    workers = min(n_blocks, _usable_cpus()) if base >= _CHUNK_ROWS else 1
    stop = threading.Event()

    def count(first: int) -> int:
        """Hits of blocks first, first + workers, ... until told to stop."""
        hits = 0
        for t in range(first, n_blocks, workers):
            if stop.is_set():
                break
            block = base + (1 if t < rem else 0)
            try:
                hits += _first_passage_hit_count(
                    config, target_diff, horizon, block, seed.generator(t)
                )
            except (MemoryError, ValueError) as exc:
                stop.set()
                # numpy's failed allocation, or its ValueError for sizes past its limits
                raise ResourceLimitError(
                    f"cannot allocate {block} paths in one stream: {exc}"
                ) from exc
        return hits

    if workers == 1:
        hits = count(0)
    else:
        from concurrent.futures import ThreadPoolExecutor

        # numpy releases the GIL while it fills and compares a chunk, and hit
        # counts are exact ints, so the sum does not depend on scheduling
        with ThreadPoolExecutor(workers) as pool:
            try:
                futures = [pool.submit(count, first) for first in range(workers)]
                hits = sum(future.result() for future in futures)
            finally:
                # a failed worker or an interrupt: start no new block before the pool joins
                stop.set()
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
