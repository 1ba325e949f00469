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
* the counts a refusal names, or squares, reach the 4,300 digits that
  argparse accepts: ``exact`` and ``approx`` b and w, ``sweep``'s range
  bounds, ``identity-check --max-total``, and ``simulate``'s samples and
  horizons, so that every refusal must render numbers past the digit
  limit of ``str(int)``;
* ``simulate --method direct`` draws horizons up to 10^9 and beyond, and
  both ``simulate`` methods now and then draw 2^52 or more samples;
* ``sweep``'s far horizons, 10^7 to 10^9, may include ``mc``.

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

# the largest int of the 4,300 digits that ``int(str)`` parses by default
_MAX_ARG = 10**4300 - 1
# far counts, or past them up to the largest the CLI parses
_HUGE_COUNTS = st.one_of(_FAR_COUNTS, st.integers(10**400, _MAX_ARG))

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
def _huge_pair(draw, counts: st.SearchStrategy = _FAR_COUNTS) -> list[str]:
    """b or w past the exact cap, drawn from ``counts``, the other small or as large."""
    b, w = draw(counts), draw(st.one_of(st.integers(1, 50), counts))
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
        samples, streams = st.integers(2**52, _MAX_ARG), st.integers(1, 4)
    else:
        samples, streams = st.integers(1, 50), st.integers(1, _UINT64_MAX)
    return [
        "--samples", str(draw(samples)),
        "--seed", str(draw(st.integers(0, _UINT64_MAX))),
        "--streams", str(draw(streams)),
    ]


@st.composite
def _pair(draw, counts: st.SearchStrategy = _FAR_COUNTS) -> list[str]:
    """Now and then a far urn."""
    return draw(_huge_pair(counts) if draw(st.integers(0, 3)) == 3 else _exact_pair())


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
        "--horizon", str(draw(st.one_of(
            st.integers(0, 300), st.integers(10**6, 10**9), st.integers(10**9, _MAX_ARG)
        ))),
        *_sampling(draw, huge),
    ]


@st.composite
def _sweep(draw) -> list[str]:
    far_urn = draw(st.integers(0, 3)) == 3
    b_lo = draw(_HUGE_COUNTS if far_urn else st.integers(1, 40))
    b_hi = draw(st.integers(b_lo, min(b_lo + 3 if far_urn else 40, _MAX_ARG)))
    # w_lo = b_hi leaves no pair with w < b
    w_lo = draw(st.integers(1, b_hi))
    w_hi = draw(st.integers(w_lo, min(w_lo + 3, _MAX_ARG)))
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
    _pair(_HUGE_COUNTS), st.sampled_from(["theorem", "binomial", "complement", "all"])
).map(lambda t: ["exact", *t[0], "--form", t[1]])

_approx = st.tuples(
    _pair(_HUGE_COUNTS), st.sampled_from(["normal", "chernoff", "all"])
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
    "identity-check": st.one_of(
        st.integers(1, 60), st.integers(400, 10**6), st.integers(10**6, _MAX_ARG)
    ).map(lambda n: ["identity-check", "--max-total", str(n)]),
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


_B = str(10**2200)


# each names a count of about 4,400 digits, an estimate or the skipped pairs,
# past the digit limit of ``str(int)``
@pytest.mark.parametrize(
    "argv",
    [
        ["exact", "--b", _B, "--w", "1"],
        ["approx", "--b", _B, "--w", "1"],
        ["sweep", "--b-range", _B, "--w-range", "1"],
        ["identity-check", "--max-total", _B],
        ["sweep", "--b-range", f"1:{_B}", "--w-range", f"1:{_B}"],
    ],
    ids=["exact", "approx", "sweep", "identity-check", "sweep-skipped-pairs"],
)
def test_refusal_past_the_digit_limit_exits_2(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert (code, out.getvalue()) == (2, "")
    assert "Traceback" not in err.getvalue()
    assert err.getvalue().splitlines()[-1].startswith("error: ")
