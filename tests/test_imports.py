"""Only the Monte Carlo routes load numpy, and the package re-exports ``simulate``'s names.

``simulate`` imports numpy inside the functions that draw random numbers, so
importing it, the package or the CLI does not load it; streams run one after
another, so no route loads ``concurrent.futures``.  Each isolation test runs
in a fresh interpreter and reports which of the two are in ``sys.modules``.
"""

import json
import subprocess
import sys

import pytest

import polya_urn
import polya_urn.simulate

# prints {"code": exit code, "before": heavy modules loaded by the import, "after": ... by the run}
_PROBE = """
import contextlib, io, json, sys
heavy = lambda: [m for m in ("concurrent.futures", "numpy") if m in sys.modules]
from polya_urn import cli
before = heavy()
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
print(json.dumps({"code": code, "before": before, "after": heavy()}))
"""

_SWEEP = ("sweep", "--b-range", "2:6", "--w-range", "1:4", "--horizon", "20", "--samples", "50")

_EXACT_ROUTES = [
    ("--help",),
    ("exact", "--b", "7", "--w", "3", "--form", "all"),
    ("dp", "--b", "2", "--w", "1", "--horizon", "20", "--emit-pmf"),
    ("approx", "--b", "5", "--w", "3"),
    (*_SWEEP, "--methods", "exact,binomial,complement,dp,normal,chernoff"),
    ("identity-check", "--max-total", "20"),
]
_MC_ROUTES = [
    ("simulate", "--b", "5", "--w", "3", "--samples", "100"),
    # two streams of 10^5 paths each, which once ran on a thread pool
    ("simulate", "--b", "5", "--w", "3", "--samples", "200000", "--streams", "2"),
    ("simulate", "--b", "5", "--w", "3", "--samples", "100", "--method", "definetti"),
    (*_SWEEP, "--methods", "mc"),
    (*_SWEEP, "--methods", "definetti"),
]


def _probe(*argv: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv], capture_output=True, text=True, check=True
    )
    return json.loads(proc.stdout)


def test_importing_the_package_leaves_numpy_unloaded():
    code = "import sys, polya_urn; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


def test_importing_simulate_and_seeding_leaves_numpy_unloaded():
    """... and ``concurrent.futures``, which no route loads."""
    code = (
        "import sys, polya_urn.simulate; polya_urn.simulate.RngSeed(1); "
        "print('numpy' in sys.modules, 'concurrent.futures' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False False"


@pytest.mark.parametrize("argv", _EXACT_ROUTES, ids=" ".join)
def test_exact_routes_never_load_numpy(argv):
    """... nor ``concurrent.futures``: an eager import would cost every spawn."""
    assert _probe(*argv) == {"code": 0, "before": [], "after": []}


@pytest.mark.parametrize("argv", _MC_ROUTES, ids=" ".join)
def test_monte_carlo_routes_load_numpy_when_they_run(argv):
    """... and only numpy, never ``concurrent.futures``."""
    assert _probe(*argv) == {"code": 0, "before": [], "after": ["numpy"]}


class TestLazyNames:
    def test_from_import_resolves(self):
        from polya_urn import RngSeed, estimate_equalization

        assert RngSeed is polya_urn.simulate.RngSeed
        assert estimate_equalization is polya_urn.simulate.estimate_equalization

    @pytest.mark.parametrize(
        "name", ["EstimateWithCI", "RngSeed", "definetti_estimator", "estimate_equalization"]
    )
    def test_attribute_is_the_simulate_object(self, name):
        assert getattr(polya_urn, name) is getattr(polya_urn.simulate, name)

    def test_dir_lists_every_exported_name(self):
        assert set(polya_urn.__all__) <= set(dir(polya_urn))

    def test_unknown_attribute_names_the_module(self):
        with pytest.raises(AttributeError, match="module 'polya_urn' has no attribute 'nope'"):
            polya_urn.nope  # noqa: B018
