"""Command-line front end.

Subcommands: ``exact``, ``dp``, ``simulate``, ``approx``, ``sweep``, and
``identity-check``.  Data goes to stdout (or ``--output``); diagnostics and
errors go to stderr; the exit code is 0 exactly when no error occurred.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import Any, Callable, Optional, Sequence

from . import dp as dp_mod
from .approx import chernoff_bound, normal_approximation
from .errors import DomainError, PolyaUrnError, ResourceLimitError
from .exact import (
    ExactProbability,
    UrnConfig,
    equalization_probability,
    equalization_probability_binomial,
    equalization_probability_complement,
)
from .output import (
    OutputRecord,
    rational_parts,
    record_to_text,
    records_to_csv,
    records_to_json,
    render_decimal,
)
from .simulate import EstimateWithCI, RngSeed, definetti_estimator, estimate_equalization

# Past this horizon the automatic exact reference is skipped: the memory
# budget admits horizons whose pmf takes tens of seconds, nearly all of it the
# exact sum that validates the pmf ((5000, 3000): ~3 s at the cap, ~16 s at
# its budget horizon of 56,440, on a 2-vCPU Xeon VM).
_REFERENCE_HORIZON_CAP = 20_000

# ``simulate`` flags an estimate whose Kish effective sample size is below
# this: a few draws dominate its mean, so the standard error means nothing
_MIN_EFFECTIVE_SAMPLES = 10

# the methods ``approx --method all`` reports, in order
_APPROX_METHODS = ("normal", "chernoff")


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


def _emit(text: str, output: Optional[str]) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        try:
            with open(output, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise PolyaUrnError(f"--output: {exc}") from exc


def _emit_records(records: list[OutputRecord], fmt: str, output: Optional[str]) -> None:
    if fmt == "csv":
        _emit(records_to_csv(records), output)
    elif fmt == "json":
        _emit(records_to_json(records), output)
    else:
        _emit("".join(record_to_text(rec) + "\n" for rec in records), output)


@dataclass(frozen=True)
class _Pair:
    """One (b, w) with the parsed arguments; each closed form is computed at most once."""

    config: UrnConfig
    args: argparse.Namespace

    @cached_property
    def exact(self) -> ExactProbability:
        return equalization_probability(self.config)

    @cached_property
    def binomial(self) -> ExactProbability:
        return equalization_probability_binomial(self.config)

    @cached_property
    def complement(self) -> ExactProbability:
        return equalization_probability_complement(self.config)


def _record(pair: _Pair, method: str, value: Fraction | float, **fields) -> OutputRecord:
    """One row for ``pair``; an exact ``value`` also carries its lossless ``num/den``."""
    if isinstance(value, Fraction):
        num, den, text = rational_parts(value)
        fields["exact"] = f"{num}/{den}"
    else:
        text = render_decimal(value)
    return OutputRecord(
        b=pair.config.black,
        w=pair.config.white,
        method=method,  # type: ignore[arg-type]
        value=text,
        **fields,
    )


def _closed_form_row(pair: _Pair, method: str, p: ExactProbability):
    return _record(pair, method, p.value), p


def _dp_row(pair: _Pair, method: str):
    table = dp_mod.first_passage_dp(pair.config, pair.args.target, pair.args.horizon)
    note = "cumulative P(tau <= horizon)"
    fields = {"target": table.target_diff, "horizon": table.horizon, "note": note}
    return _record(pair, method, table.cumulative, **fields), table


def _estimate_row(pair: _Pair, method: str, est: EstimateWithCI, **fields):
    return _record(
        pair,
        method,
        est.p_hat,
        samples=pair.args.samples,
        seed=pair.args.seed,
        std_err=render_decimal(est.std_err),
        ci_lo=render_decimal(est.ci95[0]),
        ci_hi=render_decimal(est.ci95[1]),
        **fields,
    ), est


def _mc_row(pair: _Pair, method: str):
    args = pair.args
    est = estimate_equalization(
        pair.config, args.target, args.horizon, args.samples, RngSeed(args.seed), args.streams
    )
    fields = {"target": args.target, "horizon": args.horizon, "streams": args.streams}
    return _estimate_row(pair, method, est, **fields)


def _definetti_row(pair: _Pair, method: str):
    if pair.args.target != 0:
        raise DomainError(
            f"the de Finetti estimator targets 0 only, got --target {pair.args.target}"
        )
    est = definetti_estimator(pair.config, pair.args.samples, RngSeed(pair.args.seed))
    return _estimate_row(pair, method, est)


def _approx_row(pair: _Pair, method: str, approximation: Callable):
    result = approximation(pair.config, pair.exact)
    return _record(pair, method, result.value, reference=render_decimal(pair.exact.value)), result


# Every method's bare record for one pair (what ``sweep`` prints), with the
# library result it came from; the other subcommands add their own fields.
METHODS: dict[str, Callable[[_Pair, str], tuple[OutputRecord, Any]]] = {
    "exact": lambda pair, method: _closed_form_row(pair, method, pair.exact),
    "binomial": lambda pair, method: _closed_form_row(pair, method, pair.binomial),
    "complement": lambda pair, method: _closed_form_row(pair, method, pair.complement),
    "dp": _dp_row,
    "mc": _mc_row,
    "definetti": _definetti_row,
    "normal": lambda pair, method: _approx_row(pair, method, normal_approximation),
    "chernoff": lambda pair, method: _approx_row(pair, method, chernoff_bound),
}


def _row(pair: _Pair, method: str) -> tuple[OutputRecord, Any]:
    return METHODS[method](pair, method)


def _triple_holds(pair: _Pair) -> bool:
    """Whether the three closed forms agree; a mismatch is reported on stderr."""
    if pair.exact == pair.binomial == pair.complement:
        return True
    print(
        f"MISMATCH b={pair.config.black} w={pair.config.white}: "
        f"{pair.exact} vs {pair.binomial} vs {pair.complement}",
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
    pair = _Pair(UrnConfig(args.b, args.w), args)
    notes = _closed_form_notes(pair.config)
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
    elif _triple_holds(pair):
        notes["exact"] = "triple identity verified"
    else:
        return 1
    records = [replace(_row(pair, method)[0], note=note) for method, note in notes.items()]
    _emit_records(records, args.format, args.output)
    return 0


def _pmf_csv(table: dp_mod.DPTable) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "p_tau_n_num", "p_tau_n_den", "p_tau_n_decimal"])
    for n, p in enumerate(table.hit_pmf):
        writer.writerow([n, *rational_parts(p)])
    return buf.getvalue()


def cmd_dp(args: argparse.Namespace) -> int:
    record, table = _row(_Pair(UrnConfig(args.b, args.w), args), "dp")
    if args.emit_pmf:
        if args.output is not None:
            _emit(_pmf_csv(table), args.output)
            _emit_records([record], args.format, None)
        else:
            _emit(_pmf_csv(table), None)
    else:
        _emit_records([record], args.format, args.output)
    return 0


def _dp_reference(pair: _Pair) -> tuple[Optional[Fraction], str]:
    """The exact DP reference of ``simulate --method direct`` (None if skipped) and its note."""
    note = "estimates P(tau <= horizon); "
    if pair.args.horizon > _REFERENCE_HORIZON_CAP:
        return None, note + f"DP reference skipped (horizon over {_REFERENCE_HORIZON_CAP})"
    try:
        table = dp_mod.first_passage_dp(pair.config, pair.args.target, pair.args.horizon)
    except ResourceLimitError:
        return None, note + "DP reference skipped (memory budget)"
    return table.cumulative, note + "reference is the exact DP value"


def cmd_simulate(args: argparse.Namespace) -> int:
    pair = _Pair(UrnConfig(args.b, args.w), args)
    record, est = _row(pair, "mc" if args.method == "direct" else args.method)
    if args.method == "definetti":
        reference: Optional[Fraction] = pair.exact.value
        note = "untruncated estimate of P(tau < infinity); reference is the exact value"
    else:
        reference, note = _dp_reference(pair)
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
    pair = _Pair(UrnConfig(args.b, args.w), args)
    records = []
    for method in _APPROX_METHODS if args.method == "all" else (args.method,):
        record, result = _row(pair, method)
        note = "guaranteed upper bound" if result.kind == "upper_bound" else result.kind
        if result.rel_error is not None:  # None when the exact value underflows float
            note += f"; rel_error={render_decimal(result.rel_error)}"
        records.append(replace(record, note=note))
    _emit_records(records, args.format, args.output)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise DomainError("--methods must name at least one method")
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise DomainError(f"unknown methods: {', '.join(unknown)}")
    (b_lo, b_hi), (w_lo, w_hi) = args.b_range, args.w_range
    pairs = [(b, w) for b in range(b_lo, b_hi + 1) for w in range(w_lo, min(w_hi, b - 1) + 1)]
    skipped = (b_hi - b_lo + 1) * (w_hi - w_lo + 1) - len(pairs)
    if skipped:
        print(f"# skipped {skipped} (b, w) pair(s): sweep requires w < b", file=sys.stderr)
    if not pairs:
        raise DomainError("empty effective range: no (b, w) pairs with w < b")
    records: list[OutputRecord] = []
    for b, w in pairs:
        pair = _Pair(UrnConfig(b, w), args)
        records.extend(_row(pair, method)[0] for method in methods)
    _emit_records(records, args.format, args.output)
    return 0


def cmd_identity_check(args: argparse.Namespace) -> int:
    if args.max_total < 3:
        # below b+w = 3 there is no pair with 1 <= w < b, so nothing would be checked
        raise DomainError(f"--max-total must be >= 3, got {args.max_total}")
    holds = [
        _triple_holds(_Pair(UrnConfig(total - w, w), args))
        for total in range(3, args.max_total + 1)
        for w in range(1, (total - 1) // 2 + 1)
    ]
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
    p_approx.add_argument("--method", choices=(*_APPROX_METHODS, "all"), default="all")
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
        return args.handler(args)
    except PolyaUrnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
