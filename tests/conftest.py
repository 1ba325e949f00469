import os
import sys
import warnings
from pathlib import Path

import pytest

# numpy's OpenBLAS starts a pool of threads when it loads, and a ``sweep`` in a
# process with more than one thread runs in one process (``split.processes``);
# one BLAS thread keeps this process single-threaded, so that the tests that
# split a sweep in process fork real workers
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import polya_urn

# Hypothesis imports its patch writer (and with it libcst, whose import warns)
# only once a @given test fails; under filterwarnings = error that warning
# becomes an INTERNALERROR that hides the failure and ends the session.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # without libcst Hypothesis skips the patch itself
        pass

# tests import shared oracles as a plain module
sys.path.insert(0, str(Path(__file__).parent))

# CLI subprocesses (``python -m polya_urn.cli``) import the same package as the tests
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(polya_urn.__file__).parents[1]), os.environ.get("PYTHONPATH")])
)


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process unreaped, running or not: a
    ``sweep`` worker, or a subprocess never waited for."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    state = "still running" if pid == 0 else f"pid {pid} exited unreaped, status {status}"
    pytest.fail(f"the test left a child process: {state}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per acceptance criterion, printed after the run."""
    lines = []
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance" not in nodeid:
                continue
            name = nodeid.split("::")[-1]
            verdict = "PASS" if status == "passed" else "FAIL"
            lines.append((name, f"ACCEPTANCE {verdict}: {name}"))
    if lines:
        terminalreporter.write_sep("=", "acceptance criteria")
        for _, line in sorted(lines):
            terminalreporter.write_line(line)
