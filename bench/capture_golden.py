"""Capture ``golden.json``: the exact values the benchmark checks every invocation against.

Run from the repository root, on a commit whose output is trusted:

    python3 bench/capture_golden.py

It runs the grid and pmf invocations and stores a SHA-256 digest of their
exact rationals, and stores the exact references of the two Monte Carlo
invocations (the DP value of P(tau <= 200) for (5, 3) and the closed form
for (50, 30), the latter re-derived here from the binomial head sum).  It
then checks the captured outputs with the benchmark's own checks.
"""

from __future__ import annotations

import csv
import io
import json
import math
import subprocess
import sys
from fractions import Fraction

from run import child_env, repo_root
from workloads import (
    EXACT_METHODS,
    GOLDEN_PATH,
    build_workloads,
    check_output,
    exact_digest,
    parse_text_record,
)


def _stdout(root, argv) -> str:
    proc = subprocess.run(
        [sys.executable, "-m", "polya_urn.cli", *argv],
        capture_output=True, text=True, env=child_env(root), cwd=root,
    )
    if proc.returncode != 0:
        sys.exit(f"polya-urn {' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def main() -> int:
    root = repo_root()
    workloads = build_workloads(mc_seed=0)
    golden: dict[str, dict] = {}
    outputs = [(inv, _stdout(root, inv.argv)) for inv in workloads["grid"] + workloads["pmf"]]
    for inv, text in outputs:
        if inv.kind == "grid":
            lines = [
                f"{r['b']},{r['w']},{r['method']},{r['exact']}\n"
                for r in csv.DictReader(io.StringIO(text))
                if r["method"] in EXACT_METHODS
            ]
            golden[inv.key] = {"exact_sha256": exact_digest(lines)}
        else:
            rows = list(csv.reader(io.StringIO(text)))[1:]
            golden[inv.key] = {
                "rows": len(rows),
                "sha256": exact_digest([f"{n},{num},{den}\n" for n, num, den, _ in rows]),
            }

    direct = _stdout(root, ("dp", "--b", "5", "--w", "3", "--horizon", "200"))
    golden["mc_direct_5_3"] = {"reference": parse_text_record(direct)["exact"]}
    closed = parse_text_record(_stdout(root, ("exact", "--b", "50", "--w", "30")))["exact"]
    head_sum = Fraction(sum(math.comb(79, j) for j in range(30)), 2**78)
    if closed != f"{head_sum.numerator}/{head_sum.denominator}":
        sys.exit(f"exact --b 50 --w 30 printed {closed}, the head sum gives {head_sum}")
    golden["mc_definetti_50_30"] = {"reference": closed}

    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=2)
        fh.write("\n")
    for inv, text in outputs:
        problems = check_output(inv, text, golden)
        print(f"{inv.key}: {'ok' if not problems else problems}")
        if problems:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
