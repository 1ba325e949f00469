"""A failing Hypothesis test is reported as a failure and the session goes on.

When a ``@given`` test fails, Hypothesis's pytest plugin imports its patch
writer, which imports ``libcst``; that import warns, and ``filterwarnings =
["error"]`` would turn the warning into an INTERNALERROR that hides the
failure and stops the session.  ``tests/conftest.py`` pre-imports the patch
writer with the warning silenced.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

_TESTS = Path(__file__).parent
_PYPROJECT = _TESTS.parent / "pyproject.toml"

_PROBE = textwrap.dedent(
    """
    from hypothesis import given, strategies as st

    @given(st.integers())
    def test_fails(x):
        assert x != x

    def test_runs_after_the_failure():
        pass
    """
)


def test_failing_given_test_does_not_abort_the_session(tmp_path):
    probe = tmp_path / "test_probe.py"
    probe.write_text(_PROBE, encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(_TESTS), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-p", "conftest", "-c", str(_PYPROJECT), str(probe),
        ],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in proc.stdout
