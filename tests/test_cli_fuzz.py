"""Fuzz the CLI: every accepted input prints a result or exits 2, never a traceback.

Invocations are drawn over every subcommand that takes one (b, w): the
closed forms, ``approx``, ``dp`` and both ``simulate`` methods.  Where the
exact value is computed, b + w stays at most 20,000 (exact and approx cost
grows about quadratically in b + w); ``dp`` never computes it, so it takes
b and w up to 10^5, with horizons that are either short or far past what
the memory budget admits.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polya_urn import cli

_UINT64_MAX = 2**64 - 1
_EXACT_TOTAL_CAP = 20_000

_targets = st.integers(-(10**7), 10**7)
_formats = st.sampled_from(["text", "csv", "json"])


@st.composite
def _exact_pair(draw) -> list[str]:
    b = draw(st.integers(1, _EXACT_TOTAL_CAP - 1))
    w = draw(st.integers(1, _EXACT_TOTAL_CAP - b))
    if draw(st.booleans()):
        b, w = w, b
    return ["--b", str(b), "--w", str(w)]


def _with_format(argv: st.SearchStrategy) -> st.SearchStrategy:
    return st.tuples(argv, _formats).map(lambda t: [*t[0], "--format", t[1]])


@st.composite
def _dp(draw) -> list[str]:
    b, w = draw(st.integers(1, 10**5)), draw(st.integers(1, 10**5))
    horizon = draw(st.one_of(st.integers(0, 300), st.integers(10**7, 10**9)))
    pmf = ["--emit-pmf"] if draw(st.booleans()) else []
    return [
        "dp", "--b", str(b), "--w", str(w), "--target", str(draw(_targets)),
        "--horizon", str(horizon), *pmf,
    ]


@st.composite
def _simulate(draw, method: str) -> list[str]:
    return [
        "simulate", *draw(_exact_pair()), "--method", method,
        "--target", str(draw(_targets)),
        "--horizon", str(draw(st.integers(0, 300))),
        "--samples", str(draw(st.integers(1, 50))),
        "--seed", str(draw(st.integers(0, _UINT64_MAX))),
        "--streams", str(draw(st.integers(1, _UINT64_MAX))),
    ]


_INVOCATIONS = {
    "exact": st.tuples(
        _exact_pair(), st.sampled_from(["theorem", "binomial", "complement", "all"])
    ).map(lambda t: ["exact", *t[0], "--form", t[1]]),
    "approx": st.tuples(
        _exact_pair(), st.sampled_from(["normal", "chernoff", "all"])
    ).map(lambda t: ["approx", *t[0], "--method", t[1]]),
    "dp": _dp(),
    "simulate direct": _simulate("direct"),
    "simulate definetti": _simulate("definetti"),
}


@pytest.mark.parametrize("command", _INVOCATIONS)
@given(data=st.data())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_result_or_clean_exit_2(command, data):
    argv = data.draw(_with_format(_INVOCATIONS[command]))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
