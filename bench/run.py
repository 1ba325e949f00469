"""Benchmark of the ``polya-urn`` CLI: time to an answer, end to end and per layer.

Run from the repository root (the package is used from ``src/``, uninstalled):

    python3 bench/run.py --workload grid --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all               # every workload, one report

``--trace 0`` drives ``python -m polya_urn.cli`` as a closed loop with a
single client: one CLI process at a time, each started after the previous
one exits, spawned by the helper in ``spawn.py`` so that each child's peak
RSS is its own.  One pass runs the workload's invocation list once, after
one ``--help`` call that measures set-up; passes repeat for about
``--seconds``.
Each pass is checked against golden values (see ``workloads.py``), and a
failed check, a non-zero exit or a traceback counts the invocation failed.

``--trace 1`` runs the same invocations in-process instead, alternating
untraced and traced passes, and reports the per-layer metrics described in
``tracing.py``.

Metric names and units come from ``BENCHMARK.json``.  Every metric is
printed with its median, quartiles and sample count, and the last line of
stdout is one JSON object ``{"correct", "attempted", "failed", "metrics"}``
holding the medians.  Each run also writes its full result, with the seed
and the machine it ran on, to ``.bench_runs/``, and a traced run writes the
spans of its last traced pass there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import tracing
from workloads import (
    HELP,
    TARGET_SE,
    build_workloads,
    check_output,
    load_golden,
    parse_text_record,
)

RUNS_DIR = ".bench_runs"
DEFAULT_SEED = 20110426
# passes a run makes even when they overrun --seconds
MIN_PASSES = 3
# a run stops starting work this long after it began, inside the 180 s limit
DEADLINE_S = 150.0


def repo_root() -> Path:
    return Path(__file__).resolve().parent.parent


def child_env(root: Path) -> dict[str, str]:
    """This environment without ``POLYA_URN_*`` overrides, importing the package from src/."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("POLYA_URN_")}
    env["PYTHONPATH"] = str(root / "src")
    return env


@dataclass(frozen=True)
class Outcome:
    seconds: float
    peak_rss_mb: float
    returncode: int
    stdout: str
    stderr: str


class Spawner:
    """Runs passes of CLI invocations through the small helper in ``spawn.py``."""

    def __init__(self, root: Path) -> None:
        self.io_dir = root / RUNS_DIR / "io"
        self.io_dir.mkdir(parents=True, exist_ok=True)
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawn.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=child_env(root), cwd=root,
        )

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()  # the helper exits at end of input
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.terminate()  # the helper kills its running child first
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()

    def run(self, invocations, timeout: float) -> tuple[float, list[Outcome]]:
        """Run the invocations in turn; wall time from first spawn to last exit, and outcomes."""
        paths = [(self.io_dir / f"{i}.out", self.io_dir / f"{i}.err") for i in range(len(invocations))]
        commands = [
            [[sys.executable, "-m", "polya_urn.cli", *inv.argv], str(out), str(err)]
            for inv, (out, err) in zip(invocations, paths)
        ]
        self.proc.stdin.write(json.dumps({"commands": commands, "timeout": timeout}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the spawn helper exited")
        reply = json.loads(line)
        outcomes = [
            Outcome(
                seconds, rss, code,
                out.read_text(encoding="utf-8", errors="replace"),
                err.read_text(encoding="utf-8", errors="replace"),
            )
            for (seconds, rss, code), (out, err) in zip(reply["runs"], paths)
        ]
        return reply["wall_s"], outcomes


class Checker:
    """Checks outcomes, remembering the verdict for output already seen."""

    def __init__(self, golden: dict) -> None:
        self.golden = golden
        self.verdicts: dict[tuple, list[str]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def __call__(self, inv, outcome: Outcome) -> bool:
        traceback = "Traceback (most recent call last)" in outcome.stderr
        key = (inv.key, outcome.returncode, traceback, hashlib.sha256(outcome.stdout.encode()).digest())
        if key not in self.verdicts:
            if outcome.returncode != 0 or traceback:
                tail = outcome.stderr.strip().splitlines()[-1:] or [""]
                self.verdicts[key] = [f"exit {outcome.returncode}: {tail[0]}"]
            else:
                self.verdicts[key] = check_output(inv, outcome.stdout, self.golden)
            self.problems += [f"{inv.key}: {p}" for p in self.verdicts[key]]
        self.attempted += 1
        self.failed += bool(self.verdicts[key])
        return not self.verdicts[key]


def measure_untraced(root: Path, invocations, seconds: float, checker: Checker, deadline: float):
    """Closed-loop passes over the workload; per-pass samples of each end-to-end metric."""
    samples: dict[str, list[float]] = {"setup_s": [], "wall_s": [], "peak_rss_mb": []}
    with Spawner(root) as spawner:
        spawner.run([HELP], deadline - time.perf_counter())  # byte-compiles the package; not counted
        start = time.perf_counter()
        while True:
            setup_s, (setup,) = spawner.run([HELP], deadline - time.perf_counter())
            checker(HELP, setup)
            samples["setup_s"].append(setup_s)
            wall_s, outcomes = spawner.run(invocations, deadline - time.perf_counter())
            samples["wall_s"].append(wall_s)
            samples["peak_rss_mb"].append(max(o.peak_rss_mb for o in outcomes))
            for inv, outcome in zip(invocations, outcomes):
                if checker(inv, outcome) and inv.se_metric:
                    std_err = float(parse_text_record(outcome.stdout)["std_err"])
                    scaled = outcome.seconds * (std_err / TARGET_SE) ** 2
                    samples.setdefault(inv.se_metric, []).append(scaled)
            elapsed = time.perf_counter() - start
            typical = statistics.median(samples["wall_s"]) + statistics.median(samples["setup_s"])
            if len(samples["wall_s"]) >= MIN_PASSES and elapsed + typical > seconds:
                break
            if time.perf_counter() + typical > deadline:
                break
    samples["failed_frac"] = [checker.failed / checker.attempted]
    return samples


def summarize(values: list[float]) -> dict[str, float]:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def environment(root: Path) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.processor() or platform.machine(),
        "git_commit": _git_commit(root),
    }


def _git_commit(root: Path):
    """HEAD's commit, read from .git without running git; None outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(root: Path, spec: dict, name: str, args, golden: dict, deadline: float) -> dict:
    invocations = build_workloads(args.seed)[name]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update({"failed_frac": "ratio", "direct_s_to_se1e-4": "s", "definetti_s_to_se1e-4": "s"})
    if args.trace:
        os.environ.clear()  # the in-process CLI sees what a spawned one would
        os.environ.update(child_env(root))
        sys.path.insert(0, str(root / "src"))
        from polya_urn import cli

        runner, samples, spans = tracing.measure_traced(cli, invocations, args.seconds, golden, deadline)
        attempted, failed, problems = runner.attempted, runner.failed, runner.problems
        reported = [m["name"] for m in spec["per_layer"]]
        _write_spans(root, name, spans)
    else:
        checker = Checker(golden)
        samples = measure_untraced(root, invocations, args.seconds, checker, deadline)
        attempted, failed, problems = checker.attempted, checker.failed, checker.problems
        reported = [m["name"] for m in spec["end_to_end"]]
    stats = {
        metric: {"unit": units[metric], **summarize(values), "samples": values}
        for metric, values in samples.items()
    }
    result = {
        "workload": name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(root),
        "invocations": [["polya-urn", *inv.argv] for inv in invocations],
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "metrics": stats,
        "reported": reported,
    }
    out = root / RUNS_DIR / f"result-{name}-trace{args.trace}-seed{args.seed}.json"
    out.write_text(json.dumps(result, indent=2) + "\n")
    _print_report(result)
    return result


def _write_spans(root: Path, name: str, spans: list[list]) -> None:
    path = root / RUNS_DIR / f"spans-{name}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"columns": ["name", "start", "end", "parent", "invocation"]}) + "\n")
        for span in spans:
            fh.write(json.dumps(span[1:6]) + "\n")


def _print_report(result: dict) -> None:
    env = result["environment"]
    print(
        f"# workload={result['workload']} seed={result['seed']} trace={result['trace']} "
        f"attempted={result['attempted']} failed={result['failed']} "
        f"python={env['python']} numpy={env['numpy']} nproc={env['nproc']} "
        f"cpu={env['cpu_model']!r} commit={env['git_commit']}"
    )
    for problem in result["problems"]:
        print(f"# FAILED {problem}")
    print(f"{'metric':32} {'unit':6} {'median':>14} {'q1':>14} {'q3':>14} {'n':>4}")
    for metric, s in result["metrics"].items():
        print(f"{metric:32} {s['unit']:6} {s['median']:14.6g} {s['q1']:14.6g} {s['q3']:14.6g} {s['n']:4d}")


def main(argv=None) -> int:
    start = time.perf_counter()
    root = repo_root()
    spec_path = root / "BENCHMARK.json"
    for needed in (root / "src" / "polya_urn" / "cli.py", spec_path):
        if not needed.is_file():
            print(f"error: {needed} not found; run from a checkout of the repository", file=sys.stderr)
            return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names + ["all"], required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="seed of the mc workload")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    golden = load_golden()
    results = []
    for name in names if args.workload == "all" else [args.workload]:
        deadline = time.perf_counter() + DEADLINE_S if args.workload == "all" else start + DEADLINE_S
        results.append(run_workload(root, spec, name, args, golden, deadline))
        print()
    prefix = len(results) > 1
    line = {
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['workload']}." if prefix else "") + metric: {
                "value": r["metrics"][metric]["median"],
                "unit": r["metrics"][metric]["unit"],
            }
            for r in results
            for metric in r["reported"]
        },
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
