import os
import sys
from pathlib import Path

import polya_urn

# tests import shared oracles as a plain module
sys.path.insert(0, str(Path(__file__).parent))

# CLI subprocesses (``python -m polya_urn.cli``) import the same package as the tests
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(polya_urn.__file__).parents[1]), os.environ.get("PYTHONPATH")])
)


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
