"""Command-line front end.

Subcommands: ``exact``, ``dp``, ``simulate``, ``approx``, ``sweep``, and
``identity-check``.  Data goes to stdout (or ``--output``); diagnostics and
errors go to stderr; the exit code is 0 exactly when no error occurred.

Every method's row comes from its builder in ``METHODS``, the one list of
method names: the row's shape, which fixes its method and the run's
parameters, and the values of one pair.  The exact methods, the closed forms
and ``dp``, carry both a lossless ``num/den`` string and a decimal rendering
(``_EXACT_COLUMNS``).  Every subcommand with ``--format`` streams its data
through ``output._render_block`` and ``output._write_texts``, or
``output.write_pmf`` for ``dp --emit-pmf``, so each format is switched and
framed in one place; every command but ``sweep`` is a one-pair run, which
fixes its own columns (a note, a reference) in its rows' shapes
(``output._with``) and writes them.  ``sweep`` renders each pair's rows together, with one write, as soon
as the pair is built, and converts a pair's exact value to its strings
once.  It takes its closed forms from ``exact.equalization_sweep``, which
carries one head sum down each w column by Pascal's rule (by symmetry it is
the value of all three forms), and builds none when its methods read none.
``exact --form all`` and ``identity-check`` evaluate the three closed forms
independently, since cross-checking them is their job, through one function
(``_verified``); ``exact`` converts the value it shows once, for all of its
rows.  ``_ROUTES`` is the one list of the closed forms and the
approximations.

A ``sweep`` whose cost estimate reaches ``split.SPLIT_FLOOR`` uses the CPUs
in its affinity mask (``split``), with output byte-identical to one
process's; ``taskset -c 0 polya-urn sweep ...`` runs it on one CPU, as do
``dp`` rows and a second thread in the process.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from itertools import chain, islice
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, TextIO

from . import cost
from . import dp as dp_mod
from .approx import chernoff_bound, normal_approximation
from .errors import DomainError, PolyaUrnError, ResourceLimitError
from .exact import (
    ExactProbability,
    UrnConfig,
    equalization_probability,
    equalization_probability_binomial,
    equalization_probability_complement,
    equalization_sweep,
)
from .output import (
    Row,
    _render_block,
    _shape,
    _with,
    _write_texts,
    int_str,
    rational_parts,
    render_decimal,
    write_pmf,
)
from .simulate import EstimateWithCI, RngSeed, definetti_estimator, estimate_equalization

# ``simulate`` flags an estimate whose Kish effective sample size is below
# this: a few draws dominate its mean, so the standard error means nothing
_MIN_EFFECTIVE_SAMPLES = 10


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition(":")
    try:
        low = int(lo)
        high = int(hi) if sep else low
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected N or LO:HI, got {text!r}") from exc
    if low < 1 or high < low:
        raise argparse.ArgumentTypeError(f"invalid range {text!r}")
    return low, high


def _emit(write: Callable[[TextIO], Any], output: Optional[str]) -> None:
    """Run ``write`` on stdout (looked up now), or on ``output`` opened for writing."""
    if output is None:
        write(sys.stdout)
    else:
        try:
            with open(output, "w", encoding="utf-8", newline="") as fh:
                write(fh)
        except OSError as exc:
            raise PolyaUrnError(f"--output: {exc}") from exc


def _emit_rows(rows: list[Row], fmt: str, output: Optional[str]) -> None:
    _emit(lambda fh: _write_texts([_render_block(rows, fmt)], fmt, fh), output)


# the library function of each closed form and approximation, by method; ``_route``
# looks it up by name at each call, so rebinding a name here reaches every command
_ROUTES = {
    "exact": "equalization_probability",
    "binomial": "equalization_probability_binomial",
    "complement": "equalization_probability_complement",
    "normal": "normal_approximation",
    "chernoff": "chernoff_bound",
}
# the three closed forms, in ``exact --form all`` order, and the approximations,
# in ``approx --method all`` order
_CLOSED_FORMS, _APPROXIMATIONS = tuple(_ROUTES)[:3], tuple(_ROUTES)[3:]


def _route(method: str) -> Callable:
    """The library function of ``method``, a closed form or an approximation."""
    return globals()[_ROUTES[method]]


class _Value(NamedTuple):
    """A closed-form value and the strings its rows show, converted once a pair."""

    probability: ExactProbability
    decimal: str
    exact: str  # "num/den"


def _value(probability: ExactProbability) -> _Value:
    num, den, decimal = rational_parts(probability.value)
    return _Value(probability, decimal, f"{num}/{den}")


# the columns each kind of row fills in per pair; the method and, for dp and
# the estimates, the run's parameters are fixed in its shape
_EXACT_COLUMNS = ("b", "w", "value", "exact")
_APPROX_COLUMNS = ("b", "w", "value", "reference")
_ESTIMATE_COLUMNS = ("b", "w", "value", "std_err", "ci_lo", "ci_hi")


def _closed_form_row(config: UrnConfig, args: argparse.Namespace, method: str, value: _Value):
    values = (config.black, config.white, value.decimal, value.exact)
    return (_shape(method, _EXACT_COLUMNS), values), value.probability


def _dp_row(config: UrnConfig, args: argparse.Namespace, method: str, value=None):
    table = dp_mod.first_passage_dp(config, args.target, args.horizon)
    value = _value(ExactProbability(table.cumulative))
    note = "cumulative P(tau <= horizon)"
    values = (config.black, config.white, value.decimal, value.exact)
    fixed = (("target", table.target_diff), ("horizon", table.horizon), ("note", note))
    return (_shape(method, _EXACT_COLUMNS, fixed), values), table


def _estimate_row(
    config: UrnConfig,
    args: argparse.Namespace,
    method: str,
    est: EstimateWithCI,
    fixed: tuple[tuple[str, object], ...] = (),
):
    values = (
        config.black,
        config.white,
        render_decimal(est.p_hat),
        render_decimal(est.std_err),
        render_decimal(est.ci95[0]),
        render_decimal(est.ci95[1]),
    )
    fixed = (*fixed, ("samples", args.samples), ("seed", args.seed))
    return (_shape(method, _ESTIMATE_COLUMNS, fixed), values), est


def _mc_row(config: UrnConfig, args: argparse.Namespace, method: str, value=None):
    est = estimate_equalization(
        config, args.target, args.horizon, args.samples, RngSeed(args.seed), args.streams
    )
    fixed = (("target", args.target), ("horizon", args.horizon), ("streams", args.streams))
    return _estimate_row(config, args, method, est, fixed)


def _definetti_row(config: UrnConfig, args: argparse.Namespace, method: str, value=None):
    if args.target != 0:
        raise DomainError(f"the de Finetti estimator targets 0 only, got --target {args.target}")
    est = definetti_estimator(config, args.samples, RngSeed(args.seed))
    return _estimate_row(config, args, method, est)


def _approx_row(config: UrnConfig, args: argparse.Namespace, method: str, value: _Value):
    result = _route(method)(config, value.probability)
    values = (config.black, config.white, render_decimal(result.value), value.decimal)
    return (_shape(method, _APPROX_COLUMNS), values), result


# Every method's bare row for one urn (what ``sweep`` prints), with the library
# result it came from; the other subcommands add their own fields to its shape.
# Only the closed forms and the approximations read the urn's ``_Value``.
METHODS: dict[str, Callable[..., tuple[Row, Any]]] = {
    **dict.fromkeys(_CLOSED_FORMS, _closed_form_row),
    "dp": _dp_row,
    "mc": _mc_row,
    "definetti": _definetti_row,
    **dict.fromkeys(_APPROXIMATIONS, _approx_row),
}


def _verified(config: UrnConfig) -> Optional[ExactProbability]:
    """The value of the three closed forms, each evaluated on its own, or None
    when they differ, which is reported on stderr."""
    exact, binomial, complement = (_route(method)(config) for method in _CLOSED_FORMS)
    if exact == binomial == complement:
        return exact
    print(
        f"MISMATCH b={config.black} w={config.white}: {exact} vs {binomial} vs {complement}",
        file=sys.stderr,
    )
    return None


def cmd_exact(args: argparse.Namespace) -> int:
    b, w = args.b, args.w
    config = UrnConfig(b, w)
    # the closed forms share one estimate, which covers --form all
    cost.check("exact", config)
    # the theorem form is the "exact" method; each sum form shares its method's name
    form = "exact" if args.form == "theorem" else args.form
    notes: dict[str, Optional[str]] = {
        "exact": None,
        "binomial": f"head sum, {w} term(s)",
        "complement": f"complement sum, {b - w} term(s)",
    }
    if b <= w:  # only the theorem form takes b <= w; the sum forms' routes refuse it
        if form == "all":
            print(
                "note: binomial/complement forms need b > w; reporting the general form only",
                file=sys.stderr,
            )
            form = "exact"
        notes["exact"] = (
            "starts equal: equalized at step 0 by convention" if b == w
            else f"black < white: value taken from the color-swapped urn ({w}, {b})"
        )
    if form == "all":
        probability = _verified(config)
        if probability is None:
            return 1
        notes["exact"] = "triple identity verified"
    else:
        probability = _route(form)(config)
        notes = {form: notes[form]}
    value = _value(probability)  # once, for all of the rows
    rows = [_with(METHODS[m](config, args, m, value)[0], note=note) for m, note in notes.items()]
    _emit_rows(rows, args.format, args.output)
    return 0


def cmd_dp(args: argparse.Namespace) -> int:
    row, table = METHODS["dp"](UrnConfig(args.b, args.w), args, "dp")
    if args.emit_pmf:
        _emit(lambda fh: write_pmf(table.hit_pmf, fh), args.output)
    # the row goes to --output, or to stdout when the pmf took --output
    if not args.emit_pmf or args.output is not None:
        _emit_rows([row], args.format, None if args.emit_pmf else args.output)
    return 0


# Past this horizon ``simulate`` skips its automatic DP reference: the memory
# budget admits horizons whose pmf takes tens of seconds, nearly all of it the
# exact sum that validates the pmf ((5000, 3000): ~3 s at the cap, ~16 s at its
# budget horizon of 56,440, on a 2-vCPU Xeon VM).  The cap bounds the horizon, not
# the time: ``simulate --b 500001 --w 500000 --horizon 16456`` still takes ~25 s.
_REFERENCE_HORIZON_CAP = 20_000


def _reference(
    config: UrnConfig, args: argparse.Namespace, method: str
) -> tuple[Optional[Fraction], str]:
    """``simulate``'s exact reference (None when its route refuses it) and its note."""
    if method == "definetti":
        note = "untruncated estimate of P(tau < infinity); "
        try:
            cost.check("exact", config)
        except ResourceLimitError:
            return None, note + "exact reference skipped (work ceiling)"
        return equalization_probability(config).value, note + "reference is the exact value"
    note = "estimates P(tau <= horizon); "
    if args.horizon > _REFERENCE_HORIZON_CAP:
        return None, note + f"DP reference skipped (horizon over {_REFERENCE_HORIZON_CAP})"
    try:
        table = dp_mod.first_passage_dp(config, args.target, args.horizon)
    except ResourceLimitError:
        return None, note + "DP reference skipped (memory budget)"
    return table.cumulative, note + "reference is the exact DP value"


def cmd_simulate(args: argparse.Namespace) -> int:
    config = UrnConfig(args.b, args.w)
    method = "mc" if args.method == "direct" else args.method
    cost.check(method, config, args.horizon, args.samples, args.streams, target=args.target)
    row, est = METHODS[method](config, args, method)
    reference, note = _reference(config, args, method)
    columns = {}
    if reference is not None:
        columns["reference"] = render_decimal(reference)
        if not est.degenerate:
            columns["z_score"] = render_decimal(est.z_score(float(reference)))
    if est.degenerate:
        note += "; degenerate CI (zero standard error)"
    if (ess := est.effective_samples) < _MIN_EFFECTIVE_SAMPLES:
        note += f"; effective sample size {ess:.3g} < {_MIN_EFFECTIVE_SAMPLES}: out of MC reach"
    _emit_rows([_with(row, **columns, note=note)], args.format, args.output)
    return 0


def cmd_approx(args: argparse.Namespace) -> int:
    config = UrnConfig(args.b, args.w)
    methods = _APPROXIMATIONS if args.method == "all" else (args.method,)
    # each method's cost and its own b <= w refusal, before the exact reference
    for method in methods:
        cost.check(method, config)
        _route(method)(config)
    reference = _value(equalization_probability(config))
    rows = []
    for method in methods:
        row, result = METHODS[method](config, args, method, reference)
        note = "guaranteed upper bound" if result.kind == "upper_bound" else result.kind
        if result.rel_error is not None:  # None when the exact value underflows float
            note += f"; rel_error={render_decimal(result.rel_error)}"
        rows.append(_with(row, note=note))
    _emit_rows(rows, args.format, args.output)
    return 0


def _sweep_blocks(
    args: argparse.Namespace, methods: list[str], b_range: tuple[int, int]
) -> Iterator[list[Row]]:
    """Each pair's rows over ``b_range`` and the sweep's w range, in b-major
    order, each pair built when the previous one's rows are taken."""
    if _ROUTES.keys().isdisjoint(methods):
        # no row reads a closed form, so the pairs get none, in the same order
        (b_lo, b_hi), (w_lo, w_hi) = b_range, args.w_range
        pairs: Iterable[tuple[UrnConfig, Optional[_Value]]] = (
            (UrnConfig(b, w), None)
            for b in range(b_lo, b_hi + 1)
            for w in range(w_lo, min(w_hi, b - 1) + 1)
        )
    else:
        pairs = ((config, _value(p)) for config, p in equalization_sweep(b_range, args.w_range))
    for config, value in pairs:
        yield [METHODS[method](config, args, method, value)[0] for method in methods]


def cmd_sweep(args: argparse.Namespace) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise DomainError("--methods must name at least one method")
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise DomainError(f"unknown methods: {', '.join(unknown)}")
    # imported here, since no other subcommand needs it
    from . import split

    (b_lo, b_hi), (w_lo, w_hi) = args.b_range, args.w_range
    count = split.pair_count(args.b_range, args.w_range)
    skipped = (b_hi - b_lo + 1) * (w_hi - w_lo + 1) - count
    if skipped:
        print(f"# skipped {int_str(skipped)} (b, w) pair(s): sweep requires w < b", file=sys.stderr)
    if not count:
        raise DomainError("empty effective range: no (b, w) pairs with w < b")
    # Rows stream, so every refusal runs before the first byte: each method's
    # cost here, at the largest pair, which bounds every other, over all the
    # pairs, and the per-method domain checks on the first pair.
    largest = UrnConfig(b_hi, min(w_hi, b_hi - 1))
    sizes = (args.horizon, args.samples, args.streams, count)
    charges = [cost.check(method, largest, *sizes, args.target) for method in methods]
    blocks = _sweep_blocks(args, methods, args.b_range)
    first = next(blocks)
    # dp's memory budget bounds one process, so a sweep with dp runs in one
    work = 0 if "dp" in methods else sum(charges)
    slices, cpus = split.plan(first, args.format, largest, args.b_range, args.w_range, count, work)
    own = chain([first], blocks)
    if len(slices) > 1:
        # the first slice goes on from the first pair's walk over the whole range
        own = islice(own, split.pair_count(slices[0], args.w_range))

    def render(b_range: tuple[int, int]) -> Iterable[str]:
        blocks = own if b_range == slices[0] else _sweep_blocks(args, methods, b_range)
        return (_render_block(block, args.format) for block in blocks)

    _emit(lambda fh: split.write_in_order(fh, args.format, slices, cpus, render), args.output)
    return 0


def cmd_identity_check(args: argparse.Namespace) -> int:
    if args.max_total < 3:
        # below b+w = 3 there is no pair with 1 <= w < b, so nothing would be checked
        raise DomainError(f"--max-total must be >= 3, got {args.max_total}")
    # the pairs with 1 <= w < b and b + w <= t number (t - 1)^2 // 4, the largest at b + w = t
    largest_w = (args.max_total - 1) // 2
    largest = UrnConfig(args.max_total - largest_w, largest_w)
    cost.check("identity-check", largest, pairs=(args.max_total - 1) ** 2 // 4)
    configs = (
        UrnConfig(total - w, w)
        for total in range(3, args.max_total + 1)
        for w in range(1, (total - 1) // 2 + 1)
    )
    holds = [_verified(config) is not None for config in configs]
    if not all(holds):
        print(
            f"identity check FAILED for {holds.count(False)} of {len(holds)} pairs",
            file=sys.stderr,
        )
        return 1
    print(
        f"triple identity verified for {len(holds)} pairs (1 <= w < b, b+w <= {args.max_total})"
    )
    return 0


def _add_common(parser: argparse.ArgumentParser, default_format: str = "text") -> None:
    parser.add_argument(
        "--format", choices=("text", "csv", "json"), default=default_format
    )
    parser.add_argument("--output", metavar="PATH", default=None)


def _add_bw(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--b", type=_positive_int, required=True, help="black balls")
    parser.add_argument("--w", type=_positive_int, required=True, help="white balls")


def _add_mc(parser: argparse.ArgumentParser) -> None:
    """The Monte Carlo options ``simulate`` and ``sweep`` share."""
    parser.add_argument("--target", type=int, default=0)
    parser.add_argument("--horizon", type=_nonnegative_int, default=200)
    parser.add_argument("--samples", type=_positive_int, default=100_000)
    parser.add_argument("--seed", type=_nonnegative_int, default=0)
    parser.add_argument("--streams", type=_positive_int, default=1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polya-urn",
        description="Equalization probability of a Polya urn: exact values, "
        "a DP oracle, Monte Carlo, and asymptotic bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_exact = sub.add_parser("exact", help="closed-form equalization probability")
    _add_bw(p_exact)
    p_exact.add_argument(
        "--form",
        choices=("theorem", "binomial", "complement", "all"),
        default="theorem",
        help="which closed form to evaluate (all: evaluate and cross-check the three)",
    )
    _add_common(p_exact)
    p_exact.set_defaults(handler=cmd_exact)

    p_dp = sub.add_parser("dp", help="exact first-passage probabilities by DP")
    _add_bw(p_dp)
    p_dp.add_argument("--target", type=int, default=0, help="absorbing level for S")
    p_dp.add_argument("--horizon", type=_nonnegative_int, required=True)
    p_dp.add_argument(
        "--emit-pmf",
        action="store_true",
        help="emit the per-step CSV of P(tau = n) (to --output if given)",
    )
    _add_common(p_dp)
    p_dp.set_defaults(handler=cmd_dp)

    p_sim = sub.add_parser("simulate", help="seeded Monte Carlo estimates")
    _add_bw(p_sim)
    _add_mc(p_sim)
    p_sim.add_argument("--method", choices=("direct", "definetti"), default="direct")
    _add_common(p_sim)
    p_sim.set_defaults(handler=cmd_simulate)

    p_approx = sub.add_parser("approx", help="normal approximation and Chernoff bound")
    _add_bw(p_approx)
    p_approx.add_argument("--method", choices=(*_APPROXIMATIONS, "all"), default="all")
    _add_common(p_approx)
    p_approx.set_defaults(handler=cmd_approx)

    p_sweep = sub.add_parser("sweep", help="tabulate methods over (b, w) ranges")
    p_sweep.add_argument("--b-range", type=_parse_range, required=True, metavar="LO:HI")
    p_sweep.add_argument("--w-range", type=_parse_range, required=True, metavar="LO:HI")
    p_sweep.add_argument(
        "--methods",
        default="exact",
        help="comma-separated: " + ",".join(METHODS),
    )
    _add_mc(p_sweep)
    _add_common(p_sweep, default_format="csv")
    p_sweep.set_defaults(handler=cmd_sweep)

    p_id = sub.add_parser(
        "identity-check",
        help="verify the three closed forms agree over a grid; nonzero exit on failure",
    )
    p_id.add_argument("--max-total", type=_positive_int, default=120)
    p_id.set_defaults(handler=cmd_identity_check)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a write error still in the buffer surfaces here
        return code
    except PolyaUrnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader of stdout stopped early (``sweep ... | head``): stop quietly
        _drop_stdout()
        return 0
    except OSError as exc:
        # --output errors arrive as PolyaUrnError, so this one is stdout's (a full disk)
        print(f"error: stdout: {exc}", file=sys.stderr)
        _drop_stdout()
        return 2


def _drop_stdout() -> None:
    """Point stdout at devnull, so that the interpreter's last flush cannot fail."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
