"""Command-line front end.

Subcommands: ``exact``, ``dp``, ``simulate``, ``approx``, ``sweep``, and
``identity-check``.  Data goes to stdout (or ``--output``); diagnostics and
errors go to stderr; the exit code is 0 exactly when no error occurred.

Every subcommand with ``--format`` streams its data through
``output.write_records``, or ``output.write_pmf`` for ``dp --emit-pmf``, so
each format is switched in one place.  ``sweep`` writes each row as soon as
it is built; it takes its closed forms from ``exact.equalization_sweep``,
which carries one head sum down each w column by Pascal's rule (by symmetry
it is the value of all three forms), and builds none when its methods read
none.  ``exact --form all`` and ``identity-check`` evaluate the three closed
forms independently, since cross-checking them is their job.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from fractions import Fraction
from itertools import chain
from typing import Any, Callable, Iterable, Optional, Sequence, TextIO

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
    OutputRecord, int_str, rational_parts, render_decimal, write_pmf, write_records
)
from .simulate import EstimateWithCI, RngSeed, definetti_estimator, estimate_equalization

# ``simulate`` flags an estimate whose Kish effective sample size is below
# this: a few draws dominate its mean, so the standard error means nothing
_MIN_EFFECTIVE_SAMPLES = 10

# the methods ``approx --method all`` reports, in order
_APPROXIMATIONS = {"normal": normal_approximation, "chernoff": chernoff_bound}


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


def _emit_records(records: Iterable[OutputRecord], fmt: str, output: Optional[str]) -> None:
    _emit(lambda fh: write_records(records, fmt, fh), output)


def _closed_forms(
    config: UrnConfig, methods: Iterable[str] = ("exact", "binomial", "complement")
) -> dict[str, ExactProbability]:
    """Each of ``methods``' closed form at ``config``, evaluated independently; the
    functions are looked up at each call, so rebinding a name here reaches every command."""
    forms = {
        "exact": equalization_probability,
        "binomial": equalization_probability_binomial,
        "complement": equalization_probability_complement,
    }
    return {method: forms[method](config) for method in methods}


def _record(config: UrnConfig, method: str, value: Fraction | float, **fields) -> OutputRecord:
    """One row for ``config``; an exact ``value`` also carries its lossless ``num/den``."""
    # float first: a float fails isinstance(value, Fraction) only through ABCMeta
    if isinstance(value, float):
        text = render_decimal(value)
    else:
        # one conversion gives both the rational and its decimal
        num, den, text = rational_parts(value)
        fields["exact"] = f"{num}/{den}"
    return OutputRecord(
        config.black, config.white, method, text, **fields  # type: ignore[arg-type]
    )


def _closed_form_row(config: UrnConfig, args: argparse.Namespace, method: str, probability):
    return _record(config, method, probability.value), probability


def _dp_row(config: UrnConfig, args: argparse.Namespace, method: str, probability=None):
    table = dp_mod.first_passage_dp(config, args.target, args.horizon)
    note = "cumulative P(tau <= horizon)"
    fields = {"target": table.target_diff, "horizon": table.horizon, "note": note}
    return _record(config, method, table.cumulative, **fields), table


def _estimate_row(
    config: UrnConfig, args: argparse.Namespace, method: str, est: EstimateWithCI, **fields
):
    return _record(
        config,
        method,
        est.p_hat,
        samples=args.samples,
        seed=args.seed,
        std_err=render_decimal(est.std_err),
        ci_lo=render_decimal(est.ci95[0]),
        ci_hi=render_decimal(est.ci95[1]),
        **fields,
    ), est


def _mc_row(config: UrnConfig, args: argparse.Namespace, method: str, probability=None):
    est = estimate_equalization(
        config, args.target, args.horizon, args.samples, RngSeed(args.seed), args.streams
    )
    fields = {"target": args.target, "horizon": args.horizon, "streams": args.streams}
    return _estimate_row(config, args, method, est, **fields)


def _definetti_row(config: UrnConfig, args: argparse.Namespace, method: str, probability=None):
    if args.target != 0:
        raise DomainError(f"the de Finetti estimator targets 0 only, got --target {args.target}")
    est = definetti_estimator(config, args.samples, RngSeed(args.seed))
    return _estimate_row(config, args, method, est)


def _approx_row(config: UrnConfig, args: argparse.Namespace, method: str, probability):
    result = _APPROXIMATIONS[method](config, probability)
    reference = render_decimal(probability.value)
    return _record(config, method, result.value, reference=reference), result


# Every method's bare record for one urn (what ``sweep`` prints), with the
# library result it came from; the other subcommands add their own fields.
# Only the closed forms and the approximations read the urn's probability.
METHODS: dict[str, Callable[..., tuple[OutputRecord, Any]]] = {
    **dict.fromkeys(("exact", "binomial", "complement"), _closed_form_row),
    "dp": _dp_row,
    "mc": _mc_row,
    "definetti": _definetti_row,
    **dict.fromkeys(_APPROXIMATIONS, _approx_row),
}


def _triple_holds(config: UrnConfig, forms: dict[str, ExactProbability]) -> bool:
    """Whether the three closed forms agree; a mismatch is reported on stderr."""
    exact, binomial, complement = forms.values()
    if exact == binomial == complement:
        return True
    print(
        f"MISMATCH b={config.black} w={config.white}: {exact} vs {binomial} vs {complement}",
        file=sys.stderr,
    )
    return False


def _closed_form_notes(config: UrnConfig) -> dict[str, Optional[str]]:
    """The note ``exact`` adds to each closed-form row, in ``--form all`` order."""
    b, w = config.black, config.white
    convention = None
    if b == w:
        convention = "starts equal: equalized at step 0 by convention"
    elif b < w:
        convention = f"black < white: value taken from the color-swapped urn ({w}, {b})"
    return {
        "exact": convention,
        "binomial": f"head sum, {w} term(s)",
        "complement": f"complement sum, {b - w} term(s)",
    }


def cmd_exact(args: argparse.Namespace) -> int:
    config = UrnConfig(args.b, args.w)
    # the closed forms share one estimate, which covers --form all
    cost.check("exact", config)
    notes = _closed_form_notes(config)
    if args.form != "all":
        # the theorem form is the "exact" method; each sum form shares its method's name
        method = "exact" if args.form == "theorem" else args.form
        notes = {method: notes[method]}
    elif args.b <= args.w:
        print(
            "note: binomial/complement forms need b > w; reporting the general form only",
            file=sys.stderr,
        )
        notes = {"exact": notes["exact"]}
    forms = _closed_forms(config, notes)
    if len(forms) == 3:  # --form all at b > w: the rows wait for the cross-check
        if not _triple_holds(config, forms):
            return 1
        notes["exact"] = "triple identity verified"
    records = [
        replace(METHODS[m](config, args, m, forms[m])[0], note=note) for m, note in notes.items()
    ]
    _emit_records(records, args.format, args.output)
    return 0


def cmd_dp(args: argparse.Namespace) -> int:
    record, table = METHODS["dp"](UrnConfig(args.b, args.w), args, "dp")
    if args.emit_pmf:
        _emit(lambda fh: write_pmf(table.hit_pmf, fh), args.output)
    # the record goes to --output, or to stdout when the pmf took --output
    if not args.emit_pmf or args.output is not None:
        _emit_records([record], args.format, None if args.emit_pmf else args.output)
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
    record, est = METHODS[method](config, args, method)
    reference, note = _reference(config, args, method)
    if reference is not None:
        record = replace(record, reference=render_decimal(reference))
        if not est.degenerate:
            record = replace(record, z_score=render_decimal(est.z_score(float(reference))))
    if est.degenerate:
        note += "; degenerate CI (zero standard error)"
    if (ess := est.effective_samples) < _MIN_EFFECTIVE_SAMPLES:
        note += f"; effective sample size {ess:.3g} < {_MIN_EFFECTIVE_SAMPLES}: out of MC reach"
    _emit_records([replace(record, note=note)], args.format, args.output)
    return 0


def cmd_approx(args: argparse.Namespace) -> int:
    config = UrnConfig(args.b, args.w)
    methods = _APPROXIMATIONS if args.method == "all" else (args.method,)
    # each method's cost and its own b <= w refusal, before the exact reference
    for method in methods:
        cost.check(method, config)
        _APPROXIMATIONS[method](config)
    reference = equalization_probability(config)
    records = []
    for method in methods:
        record, result = METHODS[method](config, args, method, reference)
        note = "guaranteed upper bound" if result.kind == "upper_bound" else result.kind
        if result.rel_error is not None:  # None when the exact value underflows float
            note += f"; rel_error={render_decimal(result.rel_error)}"
        records.append(replace(record, note=note))
    _emit_records(records, args.format, args.output)
    return 0


def _sweep_pair_count(b_range: tuple[int, int], w_range: tuple[int, int]) -> int:
    """How many (b, w) in the ranges have w < b, counted without listing them."""
    (b_lo, b_hi), (w_lo, w_hi) = b_range, w_range
    # w < b_lo pairs with every b; b_lo <= w < b_hi with the b_hi - w values of b above w
    below = max(0, min(w_hi, b_lo - 1) - w_lo + 1) * (b_hi - b_lo + 1)
    lo, hi = max(w_lo, b_lo), min(w_hi, b_hi - 1)
    return below + (max(0, hi - lo + 1) * (2 * b_hi - lo - hi)) // 2


def cmd_sweep(args: argparse.Namespace) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise DomainError("--methods must name at least one method")
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise DomainError(f"unknown methods: {', '.join(unknown)}")
    (b_lo, b_hi), (w_lo, w_hi) = args.b_range, args.w_range
    count = _sweep_pair_count(args.b_range, args.w_range)
    skipped = (b_hi - b_lo + 1) * (w_hi - w_lo + 1) - count
    if skipped:
        print(f"# skipped {int_str(skipped)} (b, w) pair(s): sweep requires w < b", file=sys.stderr)
    if not count:
        raise DomainError("empty effective range: no (b, w) pairs with w < b")
    # Rows stream, so every refusal runs before the first byte: each method's
    # cost here, at the largest pair, which bounds every other, over all the
    # pairs, and the per-method domain checks on the first pair.
    largest = UrnConfig(b_hi, min(w_hi, b_hi - 1))
    for method in methods:
        cost.check(method, largest, args.horizon, args.samples, args.streams, count, args.target)
    if {"dp", "mc", "definetti"}.issuperset(methods):
        # no row reads a closed form, so the pairs get none, in the same order
        b_values = range(b_lo, b_hi + 1)
        columns = (
            (UrnConfig(b, w), None) for b in b_values for w in range(w_lo, min(w_hi, b - 1) + 1)
        )
    else:
        columns = equalization_sweep(args.b_range, args.w_range)
    rows = (
        [METHODS[method](config, args, method, probability)[0] for method in methods]
        for config, probability in columns
    )
    _emit_records(chain(next(rows), chain.from_iterable(rows)), args.format, args.output)
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
    holds = [_triple_holds(config, _closed_forms(config)) for config in configs]
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
