"""What each route may cost, decided from its parameters before it runs.

The answer reduces to b + w - 1 fair coin tosses, so every route's cost
follows from its parameters.  ``estimate`` gives each route, keyed by the
CLI's method names, one integer estimate, and ``check`` refuses with
``ResourceLimitError`` a run whose estimate is over its route's limit, and
returns the estimate of a run it admits:

* ``dp``: its memory in bytes, against ``MEMORY_BUDGET_BYTES``.  Its time is
  not modelled: the exact sum that validates its pmf reduces unpredictably
  ((2, 1) at horizon 10^5 takes 0.3 s at target 0 and 5 s at target -50,000
  on a 2-vCPU Xeon VM, while an upper bound says hours).
* every other route: work units, against ``WORK_CEILING``.  A unit is about
  a nanosecond of the route's work on that VM; the estimates count path
  steps, samples and squared row lengths and never read a clock, so a
  refusal depends only on the parameters.  The ceiling bounds work summed
  over every CPU that does it, not wall time: a ``sweep`` that splits its b
  range across the CPUs it may use does about the same work, in less time,
  and is refused or admitted alike.

``first_passage_dp`` refuses its horizon by ``check("dp", ...)``.
``check_path_state`` is separate: it is the library's check that direct
simulation can represent its paths, and ``estimate_equalization`` refuses only
that; likewise ``definetti_estimator`` refuses only Beta shapes that are not
finite floats (``_check_beta_shapes``), and ``normal_approximation`` and
``chernoff_bound`` only an n = b + w - 1 that is not (``_check_float``); the
CLI checks the work too.  Every estimate is non-decreasing in b, w, horizon,
samples, streams and pairs, and so is every representation bound but the
urn-size float, which depends on the target's reach; that one needs w past
2^1023, which no sweep pair (w < b <= 2^63) has.  So one check at a sweep's
largest pair, with its pair count, covers the whole sweep.
"""

from __future__ import annotations

import bisect
import math

from .errors import DomainError, ResourceLimitError
from .exact import UrnConfig
from .output import int_str

__all__ = [
    "MEMORY_BUDGET_BYTES",
    "WORK_CEILING",
    "estimate",
    "check",
    "estimate_dp_memory_bytes",
    "max_feasible_horizon",
    "check_path_state",
]

MEMORY_BUDGET_BYTES = 256 * 1024 * 1024

# about ten seconds: the closed forms stay admitted up to b + w of about
# 1.4 * 10^5, past ``exact --b 50001 --w 49999`` (about 3 s)
WORK_CEILING = 10**10

_INT64_MAX = 2**63 - 1

# the least int that float() rounds to infinity, halfway between the largest
# float, 2^1024 - 2^971, and 2^1024
_FLOAT_OVERFLOW = 2**1024 - 2**970

# Work units, set on that VM with room to spare.  Direct simulation, per
# stream and step: 15-20 us of numpy calls in a stream of more than
# _FEW_PATHS paths, however few are live, and 2-7 us in a stream of at most
# _FEW_PATHS, which steps them in Python lists, one ``Generator.random``
# call a step, and never forms a window of levels (1.8-1.9 us a step for 1
# live path, 3.1-3.2 us for 10, 5.0-6.5 us for 24); 3-5 ns a level of the
# window, which spreads like the step index n; 30-40 ns a non-zero level,
# of which there are at most min(n + 1, paths); and a binomial draw by
# inversion takes a few ns per unit of its mean, which numpy keeps at or
# below 30 (above, a draw takes constant time), so at most 8 a path and
# 240 a level.  Setup is 12-25 us a stream.
_STEP, _LIST_STEP, _BLOCK_SETUP = 25_000, 10_000, 50_000
_WINDOW_LEVEL, _LIVE_LEVEL, _MEAN_UNIT = 6, 35, 8
_INVERSION_MEAN = 30
# at or below this many live paths a direct step costs less in Python lists
# than in numpy calls, each of which costs about a microsecond however short
# its array; ``simulate`` steps by it and ``_direct`` charges by it
_FEW_PATHS = 24
# de Finetti: 70-200 ns a sample, slowest near b, w of a few thousand
_SAMPLE = 250
# Closed forms on row n = b + w - 1: one direct form took 0.2-0.5 ns per n^2,
# and a sweep's w column start, a w-term head sum, is the same work as the
# binomial form; each further pair of a sweep, mostly rendering its n-bit
# rationals, 0.01 ns per n^2.  _RECORD is one row of a pair: each
# method's ``_closed_forms`` charges it once a pair, and a sweep sums its
# methods' estimates, so the grid workload's five methods pay it five times
# a pair; ``identity-check`` charges it once per form.  The grid's five rows
# a pair (three closed forms, normal and Chernoff, written as CSV with one
# write a pair, each row filled into its method's template) took 23-26 us a
# pair at best in process on one CPU, its sweep step included; so the 250 us
# the grid is charged a pair, 50 us a row, leaves room to spare.
_RECORD = 50_000


def _direct_sum(n: int) -> int:
    return n * n // 2


def _closed_forms(config: UrnConfig, horizon: int, samples: int, streams: int, pairs: int) -> int:
    """At most min(pairs, w) w column starts, each a w-term head sum (the
    same work as one direct form), and the pairs carried down the columns
    (``exact.equalization_sweep``); one pair is one direct sum."""
    n = config.total - 1
    return min(pairs, config.white) * _direct_sum(n) + pairs * (n * n // 64 + _RECORD)


def _capped_sum(rate: int, cap: int, horizon: int) -> int:
    """sum of min(rate * j, cap) over j = 1..horizon."""
    k = min(horizon, cap // rate)
    return rate * k * (k + 1) // 2 + (horizon - k) * cap


def _direct(config: UrnConfig, horizon: int, samples: int, streams: int, pairs: int) -> int:
    """Each stream's steps through the whole horizon: step j - 1 moves at
    most min(j, paths) non-zero levels, whose draws' means sum to at most
    the paths, and a window of at most j levels; summed over the streams,
    at most min(blocks * j, samples) non-zero levels, and windows, with
    their numpy steps, only in the streams of more than _FEW_PATHS paths."""
    blocks = min(streams, samples)
    windows = min(streams, samples // (_FEW_PATHS + 1))
    return pairs * (
        horizon * (blocks * _LIST_STEP + windows * (_STEP - _LIST_STEP))
        + windows * _WINDOW_LEVEL * horizon * (horizon + 1) // 2
        + _LIVE_LEVEL * _capped_sum(blocks, samples, horizon)
        + _MEAN_UNIT * _capped_sum(_INVERSION_MEAN * blocks, samples, horizon)
        + blocks * _BLOCK_SETUP
    )


_ESTIMATES = {
    # the approximations are O(1) once they have the exact value
    **dict.fromkeys(("exact", "binomial", "complement", "normal", "chernoff"), _closed_forms),
    # dp's memory is freed between pairs, so it does not grow with their count
    "dp": lambda config, horizon, *_: estimate_dp_memory_bytes(config, horizon),
    "mc": _direct,
    "definetti": lambda config, horizon, samples, streams, pairs: pairs * samples * _SAMPLE,
    # three direct sums per pair, each at most the largest pair's
    "identity-check": lambda config, horizon, samples, streams, pairs: (
        3 * pairs * (_direct_sum(config.total - 1) + _RECORD)
    ),
}


def estimate(
    method: str,
    config: UrnConfig,
    horizon: int = 0,
    samples: int = 1,
    streams: int = 1,
    pairs: int = 1,
) -> int:
    """The cost of ``method`` over ``pairs`` urns no larger than ``config``:
    bytes of memory for ``dp``, work units for every other method."""
    return _ESTIMATES[method](config, horizon, samples, streams, pairs)


def check(
    method: str,
    config: UrnConfig,
    horizon: int = 0,
    samples: int = 1,
    streams: int = 1,
    pairs: int = 1,
    target: int = 0,
) -> int:
    """Refuse with ``ResourceLimitError``, before any work, a run of ``method``
    over its limit, or whose Monte Carlo state cannot be represented: direct
    simulation's paths to ``target``, or de Finetti's Beta(b, w) shapes.
    Samples or streams below 1 and a negative horizon are refused first, with
    ``DomainError``.  Return the admitted run's ``estimate``."""
    counts = (("samples", samples, 1), ("streams", streams, 1), ("horizon", horizon, 0))
    for name, value, least in counts:
        if value < least:
            raise DomainError(f"{name} must be >= {least}, got {int_str(value)}")
    if method == "mc":
        check_path_state(config, target, horizon, -(-samples // streams))
    elif method == "definetti":
        _check_beta_shapes(config)
    need = estimate(method, config, horizon, samples, streams, pairs)
    limit = MEMORY_BUDGET_BYTES if method == "dp" else WORK_CEILING
    if need <= limit:
        return need
    if method == "dp":
        raise ResourceLimitError(
            f"horizon {int_str(horizon)} needs ~{int_str(need)} bytes, over the budget of "
            f"{int_str(limit)}; largest feasible horizon is ~{max_feasible_horizon(config)}"
        )
    raise ResourceLimitError(
        f"{method} needs ~{int_str(need)} work units, over the work ceiling of {int_str(limit)}"
    )


def _int_bytes(bits: float) -> int:
    """Upper bound on the size of a CPython int of this bit length.

    CPython stores ints in 30-bit digits of 4 bytes each, behind a header of
    at most 28 bytes.
    """
    return 28 + 4 * math.ceil(max(bits, 1.0) / 30)


def _log_sizes(t: int, n: int) -> tuple[float, float]:
    """ln of the rising factorial t^(n) = Gamma(t + n) / Gamma(t), and ln of
    n * C(t + n - 1, n), from lgammas below t + n = 2^22.

    Past that the lgamma differences lose the digits that grow with t and n.
    Upper bounds take their place, t^(n) <= N^n and C(N, k) <= (e N)^k with
    N = t + n - 1 and k = min(n, t - 1): products of factors that grow with t
    and n, so that rounding cannot make them shrink, and no float overflows.
    """
    if t + n < 1 << 22:
        return (
            math.lgamma(t + n) - math.lgamma(t),
            math.lgamma(t + n) - math.lgamma(n) - math.lgamma(t),
        )
    ln_top = math.log(t + n - 1)
    n = min(n, 1 << 1000)  # far past any budget
    return n * ln_top, min(n, t - 1) * (1 + ln_top) + math.log(n)


def estimate_dp_memory_bytes(config: UrnConfig, horizon: int) -> int:
    """Upper bound on the peak memory of ``first_passage_dp`` at this horizon.

    The working state is the current term, the small step ratio and the
    running sum that validates the pmf.  Every term's denominator divides
    n * (total)^(n), so the sum's divides lcm(1..horizon) * (total)^(horizon)
    <= ((total)^(horizon))^2; each step's product and each addition hold a
    few temporaries below the square of horizon * (total)^(horizon).  The pmf
    holds at most ceil(horizon / 2) non-zero terms.  Each reduces to

        d * C(b+k-1, k) * C(w+n-k-1, n-k) / (n * C(total+n-1, n)),

    whose denominator, and so (the term being <= 1) whose numerator too, is
    below horizon * C(total+horizon-1, horizon).  Each list and tuple slot
    adds a pointer, each ``Fraction`` an object of under 56 bytes, and the
    table object with its bookkeeping stays under 4 KiB.
    """
    if horizon < 0:
        raise DomainError(f"horizon must be >= 0, got {int_str(horizon)}")
    t = config.total
    n = max(horizon, 1)
    ln2 = math.log(2)
    ln_rising, ln_term = _log_sizes(t, n)
    running_bits = math.log2(n) + ln_rising / ln2 + 1
    term_bits = ln_term / ln2 + 1
    working = 8 * _int_bytes(2 * running_bits)
    terms = (horizon + 1) // 2 * (2 * _int_bytes(term_bits) + 56)
    slots = 2 * 8 * (horizon + 1)
    return 4096 + working + terms + slots


def max_feasible_horizon(config: UrnConfig) -> int:
    """Largest horizon whose estimated DP footprint fits ``MEMORY_BUDGET_BYTES``."""
    fits = bisect.bisect_right(
        range(1 << 62), MEMORY_BUDGET_BYTES, key=lambda h: estimate_dp_memory_bytes(config, h)
    )
    return max(0, fits - 1)


def _check_float(name: str, value: int, route: str) -> None:
    """Refuse with ``ResourceLimitError`` a run that would round ``value`` to
    an infinite float."""
    if value >= _FLOAT_OVERFLOW:
        raise ResourceLimitError(
            f"{name} = {int_str(value)} exceeds the float range of {route}, below 2^1024"
        )


def _check_beta_shapes(config: UrnConfig) -> None:
    """Refuse with ``ResourceLimitError`` a de Finetti estimate whose
    Beta(b, w) shapes are not finite floats; b is checked first."""
    _check_float("b", config.black, "the de Finetti estimator")
    _check_float("w", config.white, "the de Finetti estimator")


def check_path_state(config: UrnConfig, target_diff: int, horizon: int, paths: int = 1) -> None:
    """Refuse with ``ResourceLimitError`` a direct simulation whose state
    cannot be represented: each path's b + blacks, at most b + horizon, and
    one stream's count of ``paths`` must fit an int64; the list of a
    stream's hits at each draw, 8 bytes a slot over horizon + 1 slots, must
    fit ``MEMORY_BUDGET_BYTES``, so the horizon is at most about 3.4 * 10^7;
    and when the target is in reach, so that the urn is drawn from, the
    float of each urn size, at most b + w + horizon - 1, must be finite.

    The int64 and memory bounds grow with b, the horizon and the paths, so
    one check at the largest covers a whole range of urns; the float bound
    needs w past 2^1023, since b + horizon fits an int64.  No horizon the
    memory bound refuses is under the work ceiling: each step of a stream
    costs at least ``_LIST_STEP``.
    """
    if config.black + horizon > _INT64_MAX:
        raise ResourceLimitError(
            f"b + horizon = {int_str(config.black + horizon)} exceeds the int64 path-state "
            "limit of direct simulation, 2^63 - 1"
        )
    if paths > _INT64_MAX:
        raise ResourceLimitError(
            f"cannot count {int_str(paths)} paths of one stream: over the int64 limit of "
            "direct simulation, 2^63 - 1"
        )
    if 8 * (horizon + 1) > MEMORY_BUDGET_BYTES:
        raise ResourceLimitError(
            f"horizon {int_str(horizon)} needs ~{int_str(8 * (horizon + 1))} bytes of "
            f"per-draw hit counts, over the budget of {int_str(MEMORY_BUDGET_BYTES)}"
        )
    if config.initial_excess != target_diff and abs(config.initial_excess - target_diff) <= horizon:
        _check_float("b + w + horizon - 1", config.total + horizon - 1, "direct simulation")
