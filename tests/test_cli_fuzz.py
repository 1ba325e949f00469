"""Fuzz the CLI: every accepted input prints a result or exits 2 with nothing on
stdout, never a traceback.

Invocations are drawn over every subcommand: the closed forms, ``approx``,
``dp``, both ``simulate`` methods, ``sweep`` and ``identity-check``.  The
cost rule (``polya_urn.cost``) refuses, before any work, a run whose
estimate exceeds its limit, so the draws reach far past what could run:

* every route now and then draws b or w up to 10^400, past the float
  range, and a target up to 10^400 away; ``simulate`` now and then draws
  a target within a few steps of S0, so that an urn past the float range
  is drawn from;
* ``simulate --method direct`` draws horizons up to 10^9, and both
  ``simulate`` methods now and then draw 2^52 or more samples;
* ``sweep``'s far horizons, 10^7 to 10^9, may include ``mc``;
* ``identity-check --max-total`` goes up to 10^6.

Direct horizons and ``--max-total`` are drawn short or past the work
ceiling, since sizes in between are admitted and may run for seconds; far
urns, from 20,000 balls up, now and then fall within the ceiling and take
a second or so.  Only mid-horizon ``dp`` stays out altogether: the cost
rule does not model dp's time, since the exact sum that validates its pmf
reduces unpredictably, so a horizon the memory budget admits may still run
for minutes.  ``sweep`` runs every method it is given on each pair, so its
short horizons stop at 60 and its small ranges within b <= 40 and a few
values wide.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polya_urn import cli

_UINT64_MAX = 2**64 - 1
_EXACT_TOTAL_CAP = 20_000
# counts past the exact cap, up to 10^400, often within a horizon of the
# int64 path-state limit of direct simulation (b + horizon <= 2^63 - 1) or
# near the float range (below 2^1024)
_FAR_COUNTS = st.one_of(
    st.integers(-400, 400).map(lambda k: 2**63 + k),
    st.integers(_EXACT_TOTAL_CAP, 2**64),
    st.integers(-400, 400).map(lambda k: 2**1024 + k),
    st.integers(_EXACT_TOTAL_CAP, 10**400),
)

_targets = st.one_of(st.integers(-(10**7), 10**7), st.integers(-(10**400), 10**400))
_formats = st.sampled_from(["text", "csv", "json"])


@st.composite
def _exact_pair(draw) -> list[str]:
    b = draw(st.integers(1, _EXACT_TOTAL_CAP - 1))
    w = draw(st.integers(1, _EXACT_TOTAL_CAP - b))
    if draw(st.booleans()):
        b, w = w, b
    return ["--b", str(b), "--w", str(w)]


@st.composite
def _huge_pair(draw) -> list[str]:
    """b or w past the exact cap, up to 10^400, the other small or as large."""
    b, w = draw(_FAR_COUNTS), draw(st.one_of(st.integers(1, 50), _FAR_COUNTS))
    if draw(st.booleans()):
        b, w = w, b
    return ["--b", str(b), "--w", str(w)]


def _with_format(argv: st.SearchStrategy) -> st.SearchStrategy:
    return st.tuples(argv, _formats).map(lambda t: [*t[0], "--format", t[1]])


@st.composite
def _dp(draw) -> list[str]:
    b, w = draw(st.integers(1, 10**5) | _FAR_COUNTS), draw(st.integers(1, 10**5) | _FAR_COUNTS)
    horizon = draw(st.one_of(st.integers(0, 300), st.integers(10**7, 10**9)))
    pmf = ["--emit-pmf"] if draw(st.booleans()) else []
    return [
        "dp", "--b", str(b), "--w", str(w), "--target", str(draw(_targets)),
        "--horizon", str(horizon), *pmf,
    ]


def _sampling(draw, huge: bool = False) -> list[str]:
    if huge:
        # at least 2^50 paths per stream, or de Finetti samples: refused at once
        samples, streams = st.integers(2**52, _UINT64_MAX), st.integers(1, 4)
    else:
        samples, streams = st.integers(1, 50), st.integers(1, _UINT64_MAX)
    return [
        "--samples", str(draw(samples)),
        "--seed", str(draw(st.integers(0, _UINT64_MAX))),
        "--streams", str(draw(streams)),
    ]


@st.composite
def _pair(draw) -> list[str]:
    """Now and then a far urn."""
    return draw(_huge_pair() if draw(st.integers(0, 3)) == 3 else _exact_pair())


@st.composite
def _simulate(draw, method: str) -> list[str]:
    huge = draw(st.integers(0, 3)) == 3
    pair = draw(_pair())
    s0 = int(pair[1]) - int(pair[3])
    return [
        "simulate", *pair, "--method", method,
        # the de Finetti estimator refuses any target but 0
        "--target", str(draw(st.one_of(st.just(0), _targets, st.integers(s0 - 5, s0 + 5)))),
        # 10^6 steps of one path are past the work ceiling
        "--horizon", str(draw(st.one_of(st.integers(0, 300), st.integers(10**6, 10**9)))),
        *_sampling(draw, huge),
    ]


@st.composite
def _sweep(draw) -> list[str]:
    far_urn = draw(st.integers(0, 3)) == 3
    b_lo = draw(_FAR_COUNTS if far_urn else st.integers(1, 40))
    b_hi = draw(st.integers(b_lo, b_lo + 3 if far_urn else min(40, b_lo + 3)))
    # w_lo = b_hi leaves no pair with w < b
    w_lo = draw(st.integers(1, b_hi))
    w_hi = draw(st.integers(w_lo, w_lo + 3))
    far = draw(st.integers(0, 3)) == 3
    horizon = draw(st.integers(10**7, 10**9) if far else st.integers(0, 60))
    names = st.sampled_from(list(cli.METHODS))
    methods = draw(st.lists(names, min_size=1, max_size=4, unique=True))
    # now and then an unknown name, or no name at all
    methods = draw(st.sampled_from([methods] * 8 + [[*methods, "magic"], []]))
    # the de Finetti estimator refuses any other target before the first row
    target = 0 if "definetti" in methods else draw(_targets)
    return [
        "sweep", "--b-range", f"{b_lo}:{b_hi}", "--w-range", f"{w_lo}:{w_hi}",
        "--methods", ",".join(methods),
        "--target", str(target),
        "--horizon", str(horizon),
        *_sampling(draw),
    ]


_exact = st.tuples(
    _pair(), st.sampled_from(["theorem", "binomial", "complement", "all"])
).map(lambda t: ["exact", *t[0], "--form", t[1]])

_approx = st.tuples(
    _pair(), st.sampled_from(["normal", "chernoff", "all"])
).map(lambda t: ["approx", *t[0], "--method", t[1]])

_INVOCATIONS = {
    "exact": _with_format(_exact),
    "approx": _with_format(_approx),
    "dp": _with_format(_dp()),
    "simulate direct": _with_format(_simulate("direct")),
    "simulate definetti": _with_format(_simulate("definetti")),
    "sweep": _with_format(_sweep()),
    # identity-check prints one summary line and takes no --format
    # the work ceiling admits --max-total up to 348
    "identity-check": st.one_of(st.integers(1, 60), st.integers(400, 10**6)).map(
        lambda n: ["identity-check", "--max-total", str(n)]
    ),
}


@pytest.mark.parametrize("command", _INVOCATIONS)
@given(data=st.data())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_result_or_clean_exit_2(command, data):
    argv = data.draw(_INVOCATIONS[command])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    # a refusal comes before the first byte, even from a subcommand that streams its rows
    if code == 2:
        assert out.getvalue() == "", (argv, err.getvalue())
