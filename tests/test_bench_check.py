"""The benchmark's own output check on the grid workload, run in process, so
that a wrong grid row fails the tests before the benchmark runs it."""

import contextlib
import importlib.util
import io
import os
import sys
from pathlib import Path

import pytest

from polya_urn import cli, split

_WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


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
