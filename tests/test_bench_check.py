"""The benchmark's own output check on the grid, pmf and mc workloads, run in
process, so that a wrong row fails the tests before the benchmark runs it."""

import collections
import contextlib
import importlib.util
import io
import os
import sys
from pathlib import Path

import pytest

from polya_urn import cli, split

_WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
_TRACING = _WORKLOADS.with_name("tracing.py")


@pytest.fixture(scope="module")
def workloads():
    """``bench/workloads.py``, imported as it stands."""
    spec = importlib.util.spec_from_file_location("bench_workloads", _WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # its dataclass looks its module up in sys.modules while the class is made
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("cpus", [1, 2])
def test_grid_passes_the_benchmark_check(monkeypatch, workloads, cpus):
    """The grid invocation, in one process and split across two, writes rows
    that the benchmark's check and golden digest accept."""
    [grid] = workloads.build_workloads(0)["grid"]
    assert split._threads() == 1, "a sweep splits only in a single-threaded process"
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    forks = []

    def fork(fork=os.fork):
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(list(grid.argv)) == 0
    assert len(forks) == cpus - 1
    assert workloads.check_output(grid, out.getvalue(), workloads.load_golden()) == []


@pytest.mark.parametrize("kind", ["pmf", "mc"])
def test_pmf_and_mc_pass_the_benchmark_check(workloads, kind):
    """Each pmf invocation (``dp --emit-pmf``) and each mc one (a ``simulate``
    text record) writes what the benchmark's check accepts."""
    for invocation in workloads.build_workloads(0)[kind]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(list(invocation.argv)) == 0
        problems = workloads.check_output(invocation, out.getvalue(), workloads.load_golden())
        assert problems == [], invocation.key


@pytest.fixture(scope="module")
def tracing():
    """``bench/tracing.py``, imported as it stands, with the ``workloads``
    module that it imports by that name."""
    loaded = []
    try:
        for name, path in (("workloads", _WORKLOADS), ("bench_tracing", _TRACING)):
            spec = importlib.util.spec_from_file_location(name, path)
            module = importlib.util.module_from_spec(spec)
            sys.modules[name] = module
            loaded.append(name)
            spec.loader.exec_module(module)
        yield module
    finally:
        for name in loaded:
            del sys.modules[name]


# the library routes whose calls the traced layers count
_ROUTES = (
    "equalization_probability",
    "equalization_probability_binomial",
    "equalization_probability_complement",
    "equalization_sweep",
    "normal_approximation",
    "chernoff_bound",
)
_FORMS = dict.fromkeys(_ROUTES[:3])


@pytest.mark.parametrize(
    "argv, calls",
    [
        (("exact", "--b", "5", "--w", "3", "--form", "all"), dict.fromkeys(_FORMS, 1)),
        # each approximation once for its refusal and once for its row
        (
            ("approx", "--b", "5", "--w", "3"),
            {"equalization_probability": 1, "normal_approximation": 2, "chernoff_bound": 2},
        ),
        # 15 pairs with w < b
        (
            ("sweep", "--b-range", "2:6", "--w-range", "1:5",
             "--methods", "exact,binomial,complement,normal,chernoff"),
            {"equalization_sweep": 1, "normal_approximation": 15, "chernoff_bound": 15},
        ),
        # (6 - 1)^2 // 4 = 6 pairs
        (("identity-check", "--max-total", "6"), dict.fromkeys(_FORMS, 6)),
    ],
    ids=["exact-all", "approx", "sweep", "identity-check"],
)
def test_the_tracer_counts_every_route_call(monkeypatch, tracing, argv, calls):
    """``bench/tracing.py``'s wrappers, which rebind the library's names in
    ``cli``, reach every call a command makes into the closed forms, the
    approximations and the sweep's column recurrence, so the per-layer counts
    of a traced run are the calls made."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    counts = collections.Counter()

    def wrap(layer, name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    with tracing.install(cli, wrap):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(list(argv)) == 0
    assert {name: counts[name] for name in _ROUTES if counts[name]} == calls
