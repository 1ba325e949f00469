"""Fuzz the library: at any integer size, every call returns or raises the
package's own error (``PolyaUrnError``), never another exception.

Ints are drawn up to about 10^5000, past the float range (below 2^1024) and
past the 4,300-digit limit of ``str(int)``, and now and then right at the
int64 and float edges.  The calls cover the public constructors and their
reprs, the properties of an ``EstimateWithCI``, ``RngSeed`` and its
generators, both approximations, ``cost.check`` for every method,
``cost.check_path_state``, ``first_passage_dp`` with its target out of reach
or a horizon of at most 50, and both estimators with a few samples and, for
direct simulation, a horizon of at most 50 or past the int64 path state.

The closed forms and ``beta_cdf_rational`` are left out: they sum a row of
Pascal's triangle of b + w terms, so their work is unbounded by design, and
``cost.check`` refuses them at the CLI by their estimate before any work.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from polya_urn import (
    DPTable,
    EstimateWithCI,
    ExactProbability,
    PolyaUrnError,
    RngSeed,
    UrnConfig,
    chernoff_bound,
    cost,
    definetti_estimator,
    estimate_equalization,
    first_passage_dp,
    normal_approximation,
)
from polya_urn.cli import METHODS

_INT64_MAX = 2**63 - 1
_FLOAT_OVERFLOW = 2**1024 - 2**970

_NATURALS = st.one_of(
    st.integers(0, 60),
    st.integers(-400, 400).map(lambda k: _INT64_MAX + k),
    st.integers(-400, 400).map(lambda k: _FLOAT_OVERFLOW + k),
    st.integers(0, 10**5000),
)
_COUNTS = _NATURALS.map(lambda n: n + 1)
_INTS = st.one_of(_NATURALS, _NATURALS.map(lambda n: -n))
_FLOATS = st.floats(allow_nan=True, allow_infinity=True)
_SHORT = st.integers(0, 50)

_configs = st.builds(UrnConfig, _COUNTS, _COUNTS)
_seeds = st.integers(0, 2**64 - 1).map(RngSeed)


@st.composite
def _out_of_reach(draw) -> tuple:
    """A dp table whose target lies beyond its horizon, so no term is summed."""
    config = draw(_configs)
    horizon = draw(st.one_of(st.integers(0, 1000), _NATURALS))
    gap = horizon + 1 + draw(_NATURALS)
    target = config.initial_excess + (gap if draw(st.booleans()) else -gap)
    return first_passage_dp, config, target, horizon


_CALLS = st.one_of(
    st.tuples(st.just(UrnConfig), _INTS, _INTS),
    st.tuples(st.just(ExactProbability), st.builds(Fraction, _INTS, _COUNTS)),
    st.tuples(st.just(DPTable), _configs, _INTS, st.just((Fraction(1),))),
    st.tuples(st.just(EstimateWithCI), _INTS, _FLOATS, _FLOATS),
    st.tuples(st.just(RngSeed), _INTS),
    st.tuples(st.just(RngSeed.generator), _seeds, _INTS),
    st.tuples(st.sampled_from([normal_approximation, chernoff_bound]), _configs),
    st.tuples(
        st.just(cost.check), st.sampled_from([*METHODS, "identity-check"]), _configs,
        _NATURALS, _COUNTS, _COUNTS, _COUNTS, _INTS,
    ),
    st.tuples(st.just(cost.check_path_state), _configs, _INTS, _NATURALS, _COUNTS),
    st.tuples(st.just(first_passage_dp), _configs, _INTS, _SHORT),
    _out_of_reach(),
    st.tuples(
        st.just(estimate_equalization), _configs, _INTS,
        st.one_of(_SHORT, st.integers(_INT64_MAX, 10**5000)), _SHORT, _seeds, _COUNTS,
    ),
    st.tuples(st.just(definetti_estimator), _configs, _SHORT, _seeds),
)


def _use(result) -> list:
    """``result``'s repr and every value it derives."""
    derived = [repr(result)]
    if isinstance(result, EstimateWithCI):
        derived += [result.p_hat, result.std_err, result.ci95, result.effective_samples]
        derived.append(result.z_score(0.5))
    elif isinstance(result, DPTable):
        derived += [result.horizon, result.cumulative]
    return derived


@given(call=_CALLS)
@example(call=(UrnConfig, 10**5000, 1))
@example(call=(first_passage_dp, UrnConfig(2, 1), 10**5000, 10))
@example(call=(EstimateWithCI, 10**5000, 0.0, 0.0))
@example(call=(EstimateWithCI, 10**5000, 1.0, 0.5))
@example(call=(normal_approximation, UrnConfig(2**1100, 3)))
@example(call=(chernoff_bound, UrnConfig(2**1100, 3)))
@example(call=(chernoff_bound, UrnConfig(10**5000, 1)))
@settings(max_examples=1000, deadline=None, derandomize=True)
def test_result_or_package_error(call):
    function, *args = call
    try:
        result = function(*args)
    except PolyaUrnError:
        return
    _use(result)
