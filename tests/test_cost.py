"""The cost rule: one estimate per route, and refusals that come before any work."""

import re
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polya_urn import (
    DomainError, ResourceLimitError, RngSeed, UrnConfig, cost, estimate_equalization, simulate
)
from polya_urn.cli import METHODS, main

_B = str(2**63)
_UINT64_MAX = str(2**64 - 1)

# Each of these ran past 15 s, or without end, before the work ceiling.
_OVER_THE_CEILING = [
    ("simulate", "--b", "2", "--w", "1", "--horizon", "10000000", "--samples", "1"),
    ("simulate", "--horizon", "0", "--b", "5", "--w", "3",
     "--samples", _UINT64_MAX, "--streams", _UINT64_MAX),
    ("simulate", "--method", "definetti", "--b", "5", "--w", "3",
     "--samples", "4611686018427387904"),
    ("exact", "--b", _B, "--w", "1"),
    ("exact", "--b", _B, "--w", "1", "--form", "all"),
    ("approx", "--b", _B, "--w", "1"),
    ("sweep", "--b-range", _B, "--w-range", "1", "--methods", "exact"),
    # 220 pairs, each admitted alone
    ("sweep", "--b-range", "30:40", "--w-range", "1:20", "--methods", "mc",
     "--horizon", "100000", "--samples", "1"),
    ("identity-check", "--max-total", "100000"),
]


@pytest.mark.timing
@pytest.mark.parametrize("argv", _OVER_THE_CEILING, ids=" ".join)
def test_refused_at_once_naming_estimate_and_ceiling(capsys, argv):
    start = time.perf_counter()
    code = main(list(argv))
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert re.fullmatch(
        rf"error: [a-z-]+ needs ~\d+ work units, over the work ceiling of {cost.WORK_CEILING}\n",
        captured.err,
    ), captured.err
    assert elapsed < 1.0


def test_definetti_skips_a_reference_over_the_ceiling(capsys):
    """The estimator draws Beta(2^63, 1) at once; the exact value, whose
    denominator is 2^(2^63), is skipped by the same rule."""
    code = main(["simulate", "--b", _B, "--w", "1", "--method", "definetti", "--samples", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "exact reference skipped (work ceiling)" in out
    assert "reference=" not in out and "z_score=" not in out


def test_direct_refuses_paths_over_int64_before_any_draw(monkeypatch):
    def drew(*args):
        raise AssertionError("drew paths")

    monkeypatch.setattr(simulate, "_first_passage_hit_count", drew)
    paths = 2**63
    with pytest.raises(ResourceLimitError, match=f"^cannot count {paths} paths of one stream: "):
        estimate_equalization(UrnConfig(5, 3), 0, 1, paths, RngSeed(0))
    # split over two streams, each stream's count fits
    cost.check_path_state(UrnConfig(5, 3), 0, 1, -(-paths // 2))


def test_direct_hit_counts_fit_the_memory_budget():
    """The largest horizon whose 8-byte-a-draw hit counts fit is admitted; one
    more is refused by name, and is already over the work ceiling at a single
    sample, so every direct run the CLI admitted before stays admitted."""
    largest = cost.MEMORY_BUDGET_BYTES // 8 - 1
    cost.check_path_state(UrnConfig(2, 1), 0, largest)
    with pytest.raises(ResourceLimitError, match=f"^horizon {largest + 1} needs ~"):
        cost.check_path_state(UrnConfig(2, 1), 0, largest + 1)
    assert cost.estimate("mc", UrnConfig(1, 1), largest + 1) > cost.WORK_CEILING


def test_direct_charges_windows_where_the_kernel_forms_them():
    """A stream of at most ``simulate._FEW_PATHS`` paths steps them in lists,
    with no window of levels to charge."""
    assert cost._FEW_PATHS == simulate._FEW_PATHS


_PARAMETERS = ("black", "white", "horizon", "samples", "streams", "pairs")
_SIZES = st.one_of(st.integers(1, 3000), st.integers(1, 2**64))


@pytest.mark.parametrize("method", [*METHODS, "identity-check"])
@given(
    values=st.tuples(*[_SIZES] * len(_PARAMETERS)),
    grown=st.sampled_from(_PARAMETERS),
    step=st.one_of(st.integers(1, 10), st.integers(1, 2**64)),
)
# dp's estimate once took the difference of two lgammas near 10^17, whose
# rounding made it shrink from b + w = 2^52 to 2^52 + 904
@example(values=(2**52 - 1, 1, 58, 1, 1, 1), grown="black", step=904)
@settings(max_examples=200, deadline=None)
def test_estimates_are_ints_that_never_decrease(method, values, grown, step):
    """A sweep checks each method once, at its largest pair with its pair
    count; that covers every pair only if no estimate shrinks as a parameter
    grows."""
    args = dict(zip(_PARAMETERS, values))
    bigger = {**args, grown: args[grown] + step}

    def estimate(black, white, **rest):
        return cost.estimate(method, UrnConfig(black, white), **rest)

    small, large = estimate(**args), estimate(**bigger)
    assert type(small) is int and type(large) is int
    assert small <= large


@pytest.mark.parametrize(
    "limit, value, argv, note",
    [
        ("MEMORY_BUDGET_BYTES", 4096, ["--horizon", "200"], "DP reference skipped (memory budget)"),
        ("WORK_CEILING", 10**4, ["--method", "definetti"], "exact reference skipped (work ceiling)"),
    ],
)
def test_reference_reads_the_limits_at_call_time(monkeypatch, capsys, limit, value, argv, note):
    """``simulate``'s reference asks its route's own refusal, so a patched
    limit reaches it."""
    monkeypatch.setattr(cost, limit, value)
    code = main(["simulate", "--b", "5", "--w", "3", "--samples", "10", *argv])
    out = capsys.readouterr().out
    assert code == 0
    assert note in out and "reference=" not in out


@pytest.mark.parametrize(
    "horizon, samples, streams, message",
    [
        (10, 0, 1, "samples must be >= 1, got 0"),
        (10, 1, 0, "streams must be >= 1, got 0"),
        (-5, 10, 1, "horizon must be >= 0, got -5"),
    ],
)
def test_check_refuses_counts_out_of_range(monkeypatch, horizon, samples, streams, message):
    """Each is refused by name before any estimate: the first two once divided by
    zero, and the negative horizon passed."""

    def estimated(*args):
        raise AssertionError("estimated")

    monkeypatch.setattr(cost, "estimate", estimated)
    with pytest.raises(DomainError, match=f"^{message}$"):
        cost.check("mc", UrnConfig(2, 1), horizon, samples, streams)


def test_dp_memory_estimate_refuses_a_negative_horizon():
    """The estimate refuses a negative horizon by name, as ``check`` does."""
    with pytest.raises(DomainError, match="^horizon must be >= 0, got -1$"):
        cost.estimate_dp_memory_bytes(UrnConfig(2, 1), -1)
