"""Benchmark workloads: the CLI invocations each one runs, and the checks on their output.

Each workload is a fixed list of ``polya-urn`` invocations.  Every invocation
is checked against golden values captured from the seed commit
(``golden.json``, written by ``capture_golden.py``) or against references
the benchmark computes itself, so a timing never stands for a wrong answer:

* exact rationals (the ``exact``/``binomial``/``complement`` rows of the
  grid and the num/den columns of the pmf CSV) must match byte for byte,
  compared through a SHA-256 digest of the ordered values;
* every decimal rendering must agree with its exact rational, and the
  ``normal``/``chernoff`` values with the benchmark's own formulas, within
  ``REL_TOL`` relative, which leaves room for a log-space rewrite;
* each Monte Carlo estimate must lie within ``MAX_Z`` standard errors of
  the exact reference held in ``golden.json``, with a standard error no
  larger than Bernoulli sampling allows.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from pathlib import Path
from typing import Optional

REL_TOL = 1e-9
MAX_Z = 4.0
# Monte Carlo time is scaled to the time this standard error would take
TARGET_SE = 1e-4
GOLDEN_PATH = Path(__file__).with_name("golden.json")

GRID_B, GRID_W = (2, 160), (1, 159)
GRID_METHODS = ("exact", "binomial", "complement", "normal", "chernoff")
EXACT_METHODS = frozenset(("exact", "binomial", "complement"))
PMF_HEADER = ["n", "p_tau_n_num", "p_tau_n_den", "p_tau_n_decimal"]
# problems reported per invocation before the rest are summarised
MAX_PROBLEMS = 5


@dataclass(frozen=True)
class Invocation:
    """One CLI call: ``key`` names its golden entry and selects its check."""

    key: str
    kind: str  # "help", "grid", "pmf" or "mc"
    argv: tuple[str, ...]
    # for "mc": the end-to-end metric that scales its wall time to a 1e-4 standard error
    se_metric: Optional[str] = None


HELP = Invocation("help", "help", ("--help",))


def build_workloads(mc_seed: int) -> dict[str, tuple[Invocation, ...]]:
    """The invocation list of every workload; only ``mc`` depends on the seed."""
    seed = str(mc_seed)
    return {
        "grid": (
            Invocation(
                "grid",
                "grid",
                (
                    "sweep",
                    "--b-range", f"{GRID_B[0]}:{GRID_B[1]}",
                    "--w-range", f"{GRID_W[0]}:{GRID_W[1]}",
                    "--methods", ",".join(GRID_METHODS),
                    "--format", "csv",
                ),
            ),
        ),
        "pmf": (
            Invocation(
                "pmf_2_1",
                "pmf",
                ("dp", "--b", "2", "--w", "1", "--horizon", "2000", "--emit-pmf"),
            ),
            Invocation(
                "pmf_50_30_m4",
                "pmf",
                ("dp", "--b", "50", "--w", "30", "--target", "-4",
                 "--horizon", "1500", "--emit-pmf"),
            ),
        ),
        "mc": (
            Invocation(
                "mc_direct_5_3",
                "mc",
                ("simulate", "--b", "5", "--w", "3", "--samples", "1000000",
                 "--streams", "2", "--horizon", "200", "--seed", seed),
                "direct_s_to_se1e-4",
            ),
            Invocation(
                "mc_definetti_50_30",
                "mc",
                ("simulate", "--b", "50", "--w", "30", "--method", "definetti",
                 "--samples", "1000000", "--seed", seed),
                "definetti_s_to_se1e-4",
            ),
        ),
    }


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def check_output(inv: Invocation, stdout: str, golden: dict) -> list[str]:
    """Problems found in one invocation's stdout; empty when it is correct."""
    try:
        if inv.kind == "help":
            return [] if stdout.startswith("usage: polya-urn") else ["--help printed no usage line"]
        if inv.kind == "grid":
            return _check_grid(stdout, golden[inv.key])
        if inv.kind == "pmf":
            return _check_pmf(stdout, golden[inv.key])
        return _check_mc(inv, stdout, golden[inv.key])
    except (ValueError, KeyError, IndexError, ZeroDivisionError, InvalidOperation) as exc:
        return [f"unparseable output: {type(exc).__name__}: {exc}"]


def exact_digest(lines: list[str]) -> str:
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def parse_text_record(stdout: str) -> dict[str, str]:
    """Fields of a one-record text rendering (``key=value`` pairs, note last)."""
    fields: dict[str, str] = {}
    for key, value in re.findall(r"(\w+)=(\S+)", stdout.split(" note=")[0]):
        fields.setdefault(key, value)
    return fields


def grid_keys() -> list[tuple[int, int, str]]:
    """The (b, w, method) rows the grid sweep emits, in order (w < b only)."""
    return [
        (b, w, method)
        for b in range(GRID_B[0], GRID_B[1] + 1)
        for w in range(GRID_W[0], min(GRID_W[1], b - 1) + 1)
        for method in GRID_METHODS
    ]


def normal_reference(b: int, w: int) -> float:
    """Continuity-corrected normal approximation, doubled and clamped to 1."""
    n = b + w - 1
    z = (w - 0.5 - n / 2.0) / (math.sqrt(n) / 2.0)
    return min(1.0, math.erfc(-z / math.sqrt(2.0)))


def chernoff_reference(b: int, w: int) -> float:
    """``2 exp(-n D((w-1)/n || 1/2))`` clamped to 1; exactly ``2^(1-n)`` at w = 1."""
    n = b + w - 1
    if w == 1:
        return min(1.0, 2.0 ** (1 - n))
    a = (w - 1) / n
    rate = a * math.log(2.0 * a) + (1.0 - a) * math.log(2.0 * (1.0 - a))
    return min(1.0, 2.0 * math.exp(-n * rate))


def _close(text: str, reference: Fraction | float) -> bool:
    got, want = float(Decimal(text)), float(reference)
    return abs(got - want) <= REL_TOL * abs(want)


def _add(problems: list[str], message: str) -> None:
    if len(problems) < MAX_PROBLEMS:
        problems.append(message)
    elif len(problems) == MAX_PROBLEMS:
        problems.append("further problems not listed")


def _check_grid(stdout: str, golden: dict) -> list[str]:
    rows = list(csv.DictReader(io.StringIO(stdout)))
    keys = grid_keys()
    if len(rows) != len(keys):
        return [f"expected {len(keys)} records, got {len(rows)}"]
    problems: list[str] = []
    exact_lines = []
    exact_value = Fraction(0)
    for row, (b, w, method) in zip(rows, keys):
        where = f"b={b} w={w} method={method}"
        if (row["b"], row["w"], row["method"]) != (str(b), str(w), method):
            return [f"record {where} out of order: got {row['b']},{row['w']},{row['method']}"]
        if method in EXACT_METHODS:
            exact_lines.append(f"{b},{w},{method},{row['exact']}\n")
            num, den = row["exact"].split("/")
            value = Fraction(int(num), int(den))
            if method == "exact":
                exact_value = value
            if not _close(row["value"], value):
                _add(problems, f"{where}: decimal {row['value']} is not {row['exact']}")
            continue
        reference = normal_reference(b, w) if method == "normal" else chernoff_reference(b, w)
        if not _close(row["value"], reference):
            _add(problems, f"{where}: {row['value']} differs from {reference!r}")
        if not _close(row["reference"], exact_value):
            _add(problems, f"{where}: reference {row['reference']} is not the exact value")
    if exact_digest(exact_lines) != golden["exact_sha256"]:
        _add(problems, "exact rationals differ from the golden capture")
    return problems


def _check_pmf(stdout: str, golden: dict) -> list[str]:
    rows = list(csv.reader(io.StringIO(stdout)))
    if not rows or rows[0] != PMF_HEADER:
        return ["missing pmf CSV header"]
    rows = rows[1:]
    if len(rows) != golden["rows"]:
        return [f"expected {golden['rows']} pmf rows, got {len(rows)}"]
    problems: list[str] = []
    for i, (n, num, den, dec) in enumerate(rows):
        if n != str(i):
            return [f"pmf row {i} is numbered {n}"]
        if not _close(dec, Fraction(int(num), int(den))):
            _add(problems, f"n={n}: decimal {dec} is not {num}/{den}")
    if exact_digest([f"{n},{num},{den}\n" for n, num, den, _ in rows]) != golden["sha256"]:
        _add(problems, "pmf rationals differ from the golden capture")
    return problems


def _check_mc(inv: Invocation, stdout: str, golden: dict) -> list[str]:
    fields = parse_text_record(stdout)
    args = dict(zip(inv.argv[1::2], inv.argv[2::2]))
    method = "definetti" if args.get("--method") == "definetti" else "mc"
    identity = [fields[k] for k in ("method", "b", "w", "samples", "seed")]
    if identity != [method, args["--b"], args["--w"], args["--samples"], args["--seed"]]:
        return [f"record is for method, b, w, samples, seed = {identity}"]
    num, den = golden["reference"].split("/")
    reference = int(num) / int(den)
    p_hat, std_err = float(fields["value"]), float(fields["std_err"])
    sampling_se = math.sqrt(reference * (1.0 - reference) / int(fields["samples"]))
    if not 0.0 < std_err <= 1.1 * sampling_se:
        return [f"std_err {std_err} outside (0, 1.1 x {sampling_se:.6g}]"]
    z = (p_hat - reference) / std_err
    if abs(z) > MAX_Z:
        return [f"estimate {p_hat} is {z:.2f} standard errors from {reference!r}"]
    return []
