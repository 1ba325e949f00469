"""Traced run: ``polya_urn.cli.main`` in-process, with a span around every call into a layer.

The layers are the package's modules.  ``install`` replaces the public
functions of ``exact``, ``dp``, ``simulate``, ``approx`` and ``output``, both
in the defining module and in the ``polya_urn.cli`` namespace (which binds
several of them by name), and puts the originals back afterwards.  Nothing
under ``src/`` is edited.

A span is ``[layer, name, start, end, parent, invocation, info]``; spans
live in memory until the run writes them out.  A call made from inside the
same layer runs unwrapped, so ``<layer>.calls`` counts entries into the
layer and its self time covers the whole of the layer's own work.  Each
invocation's root span is ``cli.main``; self time is a span's duration minus
its children's, so the self times of one invocation sum to its root span.

``dp.peak_mb`` comes from a separate pass in which only the ``dp`` layer is
wrapped, with ``tracemalloc`` running during each call, so the allocation
tracing does not inflate any span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import statistics
import time
import tracemalloc
from typing import Callable, Iterator, Optional

from workloads import TARGET_SE, Invocation, check_output

LAYERS = ("exact", "dp", "simulate", "approx", "output")
# self-time sums may differ from the root span by float rounding only
SELF_SUM_TOLERANCE_S = 1e-6
SIMULATE_ROUTES = {"estimate_equalization": "direct", "definetti_estimator": "definetti"}
EXACT_FORMS = {
    "equalization_probability": "theorem",
    "equalization_probability_binomial": "binomial",
    "equalization_probability_complement": "complement",
}


class Sink(io.TextIOBase):
    """A text stream that keeps what is written and counts its UTF-8 bytes."""

    def __init__(self) -> None:
        self.parts: list[str] = []
        self.bytes = 0

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        self.parts.append(text)
        self.bytes += len(text.encode())
        return len(text)

    def getvalue(self) -> str:
        return "".join(self.parts)


@contextlib.contextmanager
def install(cli, wrap: Callable, layers=LAYERS) -> Iterator[None]:
    """Replace each layer's public functions by ``wrap(layer, name, fn)`` for the block."""
    replaced = []
    for layer in layers:
        module = importlib.import_module(f"polya_urn.{layer}")
        for name in module.__all__:
            fn = getattr(module, name)
            if not inspect.isfunction(fn):
                continue
            wrapped = wrap(layer, name, fn)
            for namespace in (module, cli):
                if getattr(namespace, name, None) is fn:
                    setattr(namespace, name, wrapped)
                    replaced.append((namespace, name, fn))
    try:
        yield
    finally:
        for namespace, name, fn in replaced:
            setattr(namespace, name, fn)


def _info(layer: str, name: str, args: tuple, kwargs: dict, result) -> Optional[dict]:
    """Work counts of one layer entry, taken from its arguments and result."""
    if layer == "exact":
        info: dict = {"key": (name, repr(args), repr(kwargs)), "terms": 0}
        form = EXACT_FORMS.get(name)
        if form is not None:
            config = args[0] if args else kwargs["config"]
            big, small = max(config.black, config.white), min(config.black, config.white)
            if big != small:
                info["terms"] = big - small if form == "complement" else small
        return info
    if layer == "dp" and name == "first_passage_dp":
        return {"pmf_terms": len(result.hit_pmf)}
    if layer == "simulate" and name in SIMULATE_ROUTES:
        return {"route": SIMULATE_ROUTES[name], "samples": result.n_samples, "std_err": result.std_err}
    if layer == "output" and name in ("records_to_csv", "records_to_json"):
        return {"records": len(args[0])}
    if layer == "output" and name == "record_to_text":
        return {"records": 1}
    return None


class Tracer:
    """Spans of one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        qualified = f"{layer}.{name}"

        def traced(*args, **kwargs):
            if not stack or spans[stack[-1]][0] == layer:
                return fn(*args, **kwargs)
            parent = stack[-1]
            span = [layer, qualified, 0.0, 0.0, parent, spans[parent][5], None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            span[6] = _info(layer, name, args, kwargs, result)
            return result

        return traced

    def root(self, invocation: int, call: Callable[[], int]) -> int:
        span = ["cli", "cli.main", 0.0, 0.0, None, invocation, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[2] = time.perf_counter()
        try:
            return call()
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()


def self_times(spans: list[list]) -> list[float]:
    child = [0.0] * len(spans)
    for span in spans:
        if span[4] is not None:
            child[span[4]] += span[3] - span[2]
    return [span[3] - span[2] - c for span, c in zip(spans, child)]


def self_sum_gaps(spans: list[list]) -> dict[int, float]:
    """Per invocation, its spans' summed self times minus its ``cli.main`` span."""
    gaps: dict[int, float] = {}
    for span, own in zip(spans, self_times(spans)):
        root = span[3] - span[2] if span[4] is None else 0.0
        gaps[span[5]] = gaps.get(span[5], 0.0) + own - root
    return gaps


def layer_metrics(spans: list[list], stdout_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    selfs = self_times(spans)
    m: dict[str, float] = {}
    for layer in ("cli",) + LAYERS:
        m[f"{layer}.self_s"] = 0.0
    for key in ("exact.calls", "exact.terms", "dp.calls", "dp.pmf_terms", "simulate.calls",
                "simulate.samples", "approx.calls", "output.calls", "output.records",
                "cli.invocations", "simulate.direct_s_to_se1e-4",
                "simulate.definetti_s_to_se1e-4"):
        m[key] = 0
    distinct: set = set()
    for span, own in zip(spans, selfs):
        layer, info = span[0], span[6]
        m[f"{layer}.self_s"] += own
        if span[4] is None:
            m["cli.invocations"] += 1
            continue
        m[f"{layer}.calls"] += 1
        if info is None:
            continue
        if layer == "exact":
            m["exact.terms"] += info["terms"]
            distinct.add((span[5], info["key"]))
        elif layer == "dp":
            m["dp.pmf_terms"] += info["pmf_terms"]
        elif layer == "simulate":
            m["simulate.samples"] += info["samples"]
            m[f"simulate.{info['route']}_s_to_se1e-4"] += own * (info["std_err"] / TARGET_SE) ** 2
        elif layer == "output":
            m["output.records"] += info["records"]
    m["exact.useful_ratio"] = len(distinct) / m["exact.calls"] if m["exact.calls"] else 0.0
    m["simulate.samples_per_s"] = (
        m["simulate.samples"] / m["simulate.self_s"] if m["simulate.self_s"] else 0.0
    )
    m["output.bytes"] = stdout_bytes
    return m


class InProcess:
    """Runs CLI invocations inside this process and checks their output."""

    def __init__(self, cli, golden: dict) -> None:
        self.cli = cli
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, invocations: tuple[Invocation, ...], tracer: Optional[Tracer] = None) -> tuple[float, int]:
        """One pass; returns its wall time and the stdout bytes written."""
        sinks = [Sink() for _ in invocations]
        codes: list = []
        start = time.perf_counter()
        for i, (inv, sink) in enumerate(zip(invocations, sinks)):
            call = functools.partial(self.cli.main, list(inv.argv))
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(Sink()):
                try:
                    codes.append(tracer.root(i, call) if tracer else call())
                except (Exception, SystemExit) as exc:  # a traceback is a failed invocation
                    codes.append(f"{type(exc).__name__}: {exc}")
        wall = time.perf_counter() - start
        gaps = self_sum_gaps(tracer.spans) if tracer else {}
        for i, (inv, sink, code) in enumerate(zip(invocations, sinks, codes)):
            self.attempted += 1
            problems = [f"exit {code}"] if code != 0 else check_output(inv, sink.getvalue(), self.golden)
            if abs(gaps.get(i, 0.0)) > SELF_SUM_TOLERANCE_S:
                problems.append(f"layer self times miss the cli.main span by {gaps[i]:.3g} s")
            if problems:
                self.failed += 1
                reported = [f"{inv.key}: {p}" for p in problems]
                self.problems += [p for p in reported if p not in self.problems]
        return wall, sum(sink.bytes for sink in sinks)


def dp_peak_mb(runner: InProcess, invocations: tuple[Invocation, ...]) -> float:
    """Largest ``tracemalloc`` peak of any call into the ``dp`` layer, in MB."""
    peaks = [0]

    def wrap(layer: str, name: str, fn: Callable) -> Callable:
        def measured(*args, **kwargs):
            if tracemalloc.is_tracing():
                return fn(*args, **kwargs)
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return measured

    with install(runner.cli, wrap, layers=("dp",)):
        runner.run(invocations)
    return max(peaks) / 2**20


def measure_traced(cli, invocations, seconds: float, golden: dict, deadline: float):
    """Alternate untraced and traced passes for about ``seconds``, the
    ``tracemalloc`` pass (run after the first pair) included.

    Returns the runner (attempts and failures), the per-pass metric lists,
    and the spans of the last traced pass.
    """
    runner = InProcess(cli, golden)
    samples: dict[str, list[float]] = {}
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        untraced.append(runner.run(invocations)[0])
        tracer = Tracer()
        with install(cli, tracer.wrap):
            wall, stdout_bytes = runner.run(invocations, tracer)
        traced.append(wall)
        for name, value in layer_metrics(tracer.spans, stdout_bytes).items():
            samples.setdefault(name, []).append(value)
        if "dp.peak_mb" not in samples:
            dp_users = sorted({span[5] for span in tracer.spans if span[0] == "dp"})
            with_dp = tuple(invocations[i] for i in dp_users)
            samples["dp.peak_mb"] = [dp_peak_mb(runner, with_dp) if with_dp else 0.0]
        elapsed = time.perf_counter() - start
        pair = statistics.median(untraced) + statistics.median(traced)
        if (len(traced) >= 2 and elapsed + pair > seconds) or time.perf_counter() + pair > deadline:
            break
    samples["trace.overhead_frac"] = [t / u - 1.0 for t, u in zip(traced, untraced)]
    return runner, samples, tracer.spans
