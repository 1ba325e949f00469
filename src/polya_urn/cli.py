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
from fractions import Fraction
from typing import Optional, Sequence

from . import dp as dp_mod
from .approx import chernoff_bound, normal_approximation
from .errors import DomainError, PolyaUrnError
from .exact import (
    ExactProbability,
    UrnConfig,
    equalization_probability,
    equalization_probability_binomial,
    equalization_probability_complement,
)
from .output import (
    OutputRecord,
    rational_str,
    record_to_text,
    records_to_csv,
    records_to_json,
    render_decimal,
)
from .simulate import EstimateWithCI, RngSeed, definetti_estimator, estimate_equalization

# Past this horizon the automatic exact reference is skipped: the memory
# budget admits horizons whose big-int terms take minutes to hours to compute
# (the cost grows about as horizon^2 log horizon; ~1.6 s at the cap for (2, 1)).
_REFERENCE_HORIZON_CAP = 20_000


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
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _emit_records(records: list[OutputRecord], fmt: str, output: Optional[str]) -> None:
    if fmt == "csv":
        _emit(records_to_csv(records), output)
    elif fmt == "json":
        _emit(records_to_json(records), output)
    else:
        _emit("".join(record_to_text(rec) + "\n" for rec in records), output)


def _exact_record(
    config: UrnConfig, method: str, p: ExactProbability, note: Optional[str] = None
) -> OutputRecord:
    return OutputRecord(
        b=config.black,
        w=config.white,
        method=method,  # type: ignore[arg-type]
        value=render_decimal(p.value),
        exact=rational_str(p.value),
        note=note,
    )


def _exact_records(config: UrnConfig, form: str) -> list[OutputRecord]:
    b, w = config.black, config.white
    convention = None
    if b == w:
        convention = "starts equal: equalized at step 0 by convention"
    elif b < w:
        convention = f"black < white: value taken from the color-swapped urn ({w}, {b})"

    if form == "theorem":
        return [_exact_record(config, "exact", equalization_probability(config), convention)]
    if form == "binomial":
        p = equalization_probability_binomial(config)
        return [_exact_record(config, "binomial", p, f"head sum, {w} term(s)")]
    if form == "complement":
        p = equalization_probability_complement(config)
        return [_exact_record(config, "complement", p, f"complement sum, {b - w} term(s)")]

    # --form all
    theorem = equalization_probability(config)
    if b <= w:
        print(
            "note: binomial/complement forms need b > w; reporting the general form only",
            file=sys.stderr,
        )
        return [_exact_record(config, "exact", theorem, convention)]
    binom = equalization_probability_binomial(config)
    compl = equalization_probability_complement(config)
    if not (theorem == binom == compl):
        raise PolyaUrnError(
            f"triple identity violated at b={b}, w={w}: "
            f"{theorem} vs {binom} vs {compl}"
        )
    return [
        _exact_record(config, "exact", theorem, "triple identity verified"),
        _exact_record(config, "binomial", binom, f"head sum, {w} term(s)"),
        _exact_record(config, "complement", compl, f"complement sum, {b - w} term(s)"),
    ]


def cmd_exact(args: argparse.Namespace) -> int:
    config = UrnConfig(args.b, args.w)
    _emit_records(_exact_records(config, args.form), args.format, args.output)
    return 0


def _pmf_csv(table: dp_mod.DPTable) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "p_tau_n_num", "p_tau_n_den", "p_tau_n_decimal"])
    for n, p in enumerate(table.hit_pmf):
        writer.writerow([n, p.numerator, p.denominator, render_decimal(p)])
    return buf.getvalue()


def _dp_record(table: dp_mod.DPTable) -> OutputRecord:
    return OutputRecord(
        b=table.config.black,
        w=table.config.white,
        method="dp",
        value=render_decimal(table.cumulative),
        exact=rational_str(table.cumulative),
        target=table.target_diff,
        horizon=table.horizon,
        note="cumulative P(tau <= horizon)",
    )


def cmd_dp(args: argparse.Namespace) -> int:
    config = UrnConfig(args.b, args.w)
    table = dp_mod.first_passage_dp(config, args.target, args.horizon)
    record = _dp_record(table)
    if args.emit_pmf:
        if args.output is not None:
            _emit(_pmf_csv(table), args.output)
            _emit_records([record], args.format, None)
        else:
            _emit(_pmf_csv(table), None)
    else:
        _emit_records([record], args.format, args.output)
    return 0


def _estimate_fields(est: EstimateWithCI) -> dict[str, str]:
    return {
        "value": render_decimal(est.p_hat),
        "std_err": render_decimal(est.std_err),
        "ci_lo": render_decimal(est.ci95[0]),
        "ci_hi": render_decimal(est.ci95[1]),
    }


def _dp_reference_skip_reason(config: UrnConfig, horizon: int) -> Optional[str]:
    """Why ``simulate --method direct`` does not compute its exact reference, if so."""
    if horizon > _REFERENCE_HORIZON_CAP:
        return f"horizon over {_REFERENCE_HORIZON_CAP}"
    budget = dp_mod.resolve_memory_budget(None)
    if dp_mod.estimate_dp_memory_bytes(config, horizon) > budget:
        return "memory budget"
    return None


def _simulate_record(args: argparse.Namespace) -> OutputRecord:
    config = UrnConfig(args.b, args.w)
    seed = RngSeed(args.seed)
    if args.method == "definetti":
        est = definetti_estimator(config, args.samples, seed)
        reference: Optional[Fraction] = equalization_probability(config).value
        note = "untruncated estimate of P(tau < infinity); reference is the exact value"
        horizon = target = streams = None
    else:
        est = estimate_equalization(
            config, args.target, args.horizon, args.samples, seed, args.streams
        )
        skipped = _dp_reference_skip_reason(config, args.horizon)
        if skipped is None:
            reference = dp_mod.first_passage_dp(config, args.target, args.horizon).cumulative
            note = "estimates P(tau <= horizon); reference is the exact DP value"
        else:
            reference = None
            note = f"estimates P(tau <= horizon); DP reference skipped ({skipped})"
        horizon, target, streams = args.horizon, args.target, args.streams
    z_score = None
    ref_str = None
    if reference is not None:
        ref_str = render_decimal(reference)
        if not est.degenerate:
            z_score = render_decimal(est.z_score(float(reference)))
    if est.degenerate:
        note += "; degenerate CI (zero standard error)"
    return OutputRecord(
        b=config.black,
        w=config.white,
        method="mc" if args.method == "direct" else "definetti",
        target=target,
        horizon=horizon,
        samples=args.samples,
        seed=args.seed,
        streams=streams,
        reference=ref_str,
        z_score=z_score,
        note=note,
        **_estimate_fields(est),
    )


def cmd_simulate(args: argparse.Namespace) -> int:
    _emit_records([_simulate_record(args)], args.format, args.output)
    return 0


def _approx_records(config: UrnConfig, method: str) -> list[OutputRecord]:
    exact = equalization_probability(config)
    records = []
    picks = ("normal", "chernoff") if method == "all" else (method,)
    for pick in picks:
        fn = normal_approximation if pick == "normal" else chernoff_bound
        result = fn(config, exact)
        kind = "approximation" if pick == "normal" else "guaranteed upper bound"
        records.append(
            OutputRecord(
                b=config.black,
                w=config.white,
                method=pick,  # type: ignore[arg-type]
                value=render_decimal(result.value),
                reference=render_decimal(exact.value),
                note=f"{kind}; rel_error={render_decimal(result.rel_error)}",
            )
        )
    return records


def cmd_approx(args: argparse.Namespace) -> int:
    config = UrnConfig(args.b, args.w)
    _emit_records(_approx_records(config, args.method), args.format, args.output)
    return 0


def _sweep_row(config: UrnConfig, method: str, args: argparse.Namespace) -> OutputRecord:
    if method == "exact":
        return _exact_record(config, "exact", equalization_probability(config))
    if method == "binomial":
        return _exact_record(
            config, "binomial", equalization_probability_binomial(config)
        )
    if method == "complement":
        return _exact_record(
            config, "complement", equalization_probability_complement(config)
        )
    if method == "dp":
        table = dp_mod.first_passage_dp(config, args.target, args.horizon)
        return _dp_record(table)
    if method == "mc":
        est = estimate_equalization(
            config, args.target, args.horizon, args.samples, RngSeed(args.seed), args.streams
        )
        return OutputRecord(
            b=config.black,
            w=config.white,
            method="mc",
            target=args.target,
            horizon=args.horizon,
            samples=args.samples,
            seed=args.seed,
            streams=args.streams,
            **_estimate_fields(est),
        )
    if method == "definetti":
        est = definetti_estimator(config, args.samples, RngSeed(args.seed))
        return OutputRecord(
            b=config.black,
            w=config.white,
            method="definetti",
            samples=args.samples,
            seed=args.seed,
            **_estimate_fields(est),
        )
    if method in ("normal", "chernoff"):
        fn = normal_approximation if method == "normal" else chernoff_bound
        result = fn(config, equalization_probability(config))
        return OutputRecord(
            b=config.black,
            w=config.white,
            method=method,  # type: ignore[arg-type]
            value=render_decimal(result.value),
            reference=render_decimal(result.exact_ref.value),
        )
    raise DomainError(f"unknown sweep method {method!r}")


def cmd_sweep(args: argparse.Namespace) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise DomainError("--methods must name at least one method")
    valid = {"exact", "binomial", "complement", "dp", "mc", "definetti", "normal", "chernoff"}
    unknown = [m for m in methods if m not in valid]
    if unknown:
        raise DomainError(f"unknown methods: {', '.join(unknown)}")
    b_lo, b_hi = args.b_range
    w_lo, w_hi = args.w_range
    records: list[OutputRecord] = []
    for b in range(b_lo, b_hi + 1):
        for w in range(w_lo, w_hi + 1):
            if w >= b:
                print(f"# skipped b={b} w={w}: sweep requires w < b", file=sys.stderr)
                continue
            config = UrnConfig(b, w)
            for method in methods:
                records.append(_sweep_row(config, method, args))
    if not records:
        raise DomainError("empty effective range: no (b, w) pairs with w < b")
    _emit_records(records, args.format, args.output)
    return 0


def cmd_identity_check(args: argparse.Namespace) -> int:
    failures = 0
    pairs = 0
    for total in range(3, args.max_total + 1):
        for w in range(1, (total - 1) // 2 + 1):
            b = total - w
            config = UrnConfig(b, w)
            pairs += 1
            theorem = equalization_probability(config)
            binom = equalization_probability_binomial(config)
            compl = equalization_probability_complement(config)
            if not (theorem == binom == compl):
                failures += 1
                print(
                    f"MISMATCH b={b} w={w}: {theorem} vs {binom} vs {compl}",
                    file=sys.stderr,
                )
    if failures:
        print(f"identity check FAILED for {failures} of {pairs} pairs", file=sys.stderr)
        return 1
    print(
        f"triple identity verified for {pairs} pairs (1 <= w < b, b+w <= {args.max_total})"
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
    p_sim.add_argument("--target", type=int, default=0)
    p_sim.add_argument("--horizon", type=_nonnegative_int, default=200)
    p_sim.add_argument("--samples", type=_positive_int, default=100_000)
    p_sim.add_argument("--seed", type=_nonnegative_int, default=0)
    p_sim.add_argument("--streams", type=_positive_int, default=1)
    p_sim.add_argument("--method", choices=("direct", "definetti"), default="direct")
    _add_common(p_sim)
    p_sim.set_defaults(handler=cmd_simulate)

    p_approx = sub.add_parser("approx", help="normal approximation and Chernoff bound")
    _add_bw(p_approx)
    p_approx.add_argument("--method", choices=("normal", "chernoff", "all"), default="all")
    _add_common(p_approx)
    p_approx.set_defaults(handler=cmd_approx)

    p_sweep = sub.add_parser("sweep", help="tabulate methods over (b, w) ranges")
    p_sweep.add_argument("--b-range", type=_parse_range, required=True, metavar="LO:HI")
    p_sweep.add_argument("--w-range", type=_parse_range, required=True, metavar="LO:HI")
    p_sweep.add_argument(
        "--methods",
        default="exact",
        help="comma-separated: exact,binomial,complement,dp,mc,definetti,normal,chernoff",
    )
    p_sweep.add_argument("--target", type=int, default=0)
    p_sweep.add_argument("--horizon", type=_nonnegative_int, default=200)
    p_sweep.add_argument("--samples", type=_positive_int, default=100_000)
    p_sweep.add_argument("--seed", type=_nonnegative_int, default=0)
    p_sweep.add_argument("--streams", type=_positive_int, default=1)
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
