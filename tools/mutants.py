"""Sample one module's mutants, run its tests on each, and print the survivors.

    python3 tools/mutants.py src/polya_urn/split.py --seed 0 --count 20

A mutation site is an arithmetic or comparison operator, swapped for its
partner (``+`` and ``-``, ``<`` and ``<=``, ``in`` and ``not in``, ...), or
an int literal, with 1 added.  The sites are listed with ``ast`` in source
order, those judged equivalent (``EQUIVALENT``) are left out, and ``--count``
of the rest are drawn with ``--seed``.  Each mutant is written into one
temporary copy of the repository, which ``pytest -x -q -m "not timing"``
then runs on the module's test files (``TESTS``); a mutant that every test
passes survives, and is printed as ``file:line: mutation``.  Progress goes
to stderr.  The script uses the standard library alone; tier-1 does not run
it.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]

# the test files that pin each module, the quickest to fail first
TESTS = {
    "src/polya_urn/approx.py": ["tests/test_approx.py", "tests/test_cli.py"],
    "src/polya_urn/cli.py": ["tests/test_cli.py", "tests/test_cli_golden.py"],
    "src/polya_urn/cost.py": ["tests/test_cost.py", "tests/test_cli.py"],
    "src/polya_urn/dp.py": ["tests/test_dp.py", "tests/test_cli_golden.py"],
    "src/polya_urn/exact.py": [
        "tests/test_exact.py", "tests/test_oracles.py", "tests/test_acceptance.py",
        "tests/test_library_fuzz.py",
    ],
    "src/polya_urn/output.py": [
        "tests/test_output.py", "tests/test_exports.py", "tests/test_cli_golden.py",
    ],
    "src/polya_urn/simulate.py": ["tests/test_simulate.py", "tests/test_cli_golden.py"],
    "src/polya_urn/split.py": [
        "tests/test_output.py", "tests/test_cost.py", "tests/test_bench_check.py",
        "tests/test_cli.py",
    ],
}

# Mutants that change no behaviour a caller relies on, keyed by file, the
# mutated line's text (stripped, so that a mutant keeps its key when lines
# move) and the mutation, each with the reason it is equivalent.
_SPLIT = "src/polya_urn/split.py"
_PAIR_DIGITS = "rational_digits = n * 302 // 1000 + 1  # log10(2) < 0.302"
_DECIMAL_CHARS = "decimal_chars = max(22, 18 + len(int_str(n)))"
_OUTPUT = "src/polya_urn/output.py"
_RENDER_DECIMAL = "def render_decimal(x: Fraction | float | int) -> str:"
_WORKER_END = (
    'ended = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"'
)
EQUIVALENT: dict[tuple[str, str, str], str] = {
    (_SPLIT, "SLICE_BYTES = 256 * 1024", "`1024` -> `1025` at column 20"):
        "a slice limit 0.1% larger moves where slices are cut, never a byte of output",
    (_SPLIT, _PAIR_DIGITS, "`1000` -> `1001` at column 33"):
        "302/1001 > log10(2) still, so pair_bytes is still a bound",
    (_SPLIT, _PAIR_DIGITS, "`+` -> `-` at column 38"):
        "still a bound: it allows 4 characters fewer a row, of which 0.302 n > log10(2) (n - 1) "
        "leaves at most 2 needed, and the b and w allowance spares 2 a row at least",
    (_SPLIT, _DECIMAL_CHARS, "`22` -> `23` at column 24"):
        "a looser bound: a decimal allowed one character more",
    (_SPLIT, _DECIMAL_CHARS, "`+` -> `-` at column 31"):
        "still a bound below n = 3*10^6: an exact decimal passes 22 characters there by at "
        "most 2 (23 at (99999, 1)), and the b and w allowance spares 2 a row at least",
    (
        _SPLIT,
        '2 * len(int_str(largest.black)) + 2 * rational_digits * ("exact" in shape.varying)',
        "`2` -> `3` at column 8",
    ): "a looser bound: b and w allowed a third copy of the largest b's digits",
    (_SPLIT, _WORKER_END, "`<` -> `<=` at column 56"):
        "differs at exit status 0 alone, which a worker reaches only after sending every slice",
    (_SPLIT, _WORKER_END, "`0` -> `1` at column 58"):
        "differs at exit status 0 alone, which a worker reaches only after sending every slice",
    (_OUTPUT, _RENDER_DECIMAL, "`|` -> `&` at column 31"):
        "an annotation, which `from __future__ import annotations` leaves unevaluated",
    (_OUTPUT, _RENDER_DECIMAL, "`|` -> `&` at column 39"):
        "an annotation, which `from __future__ import annotations` leaves unevaluated",
    (_OUTPUT, "@functools.lru_cache(maxsize=256)", "`256` -> `257` at column 29"):
        "one more cached shape; a shape made again renders the same template",
}

# each operator's source text, and its partner's
_SWAPS = {
    ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "//"), ast.FloorDiv: ("//", "*"),
    ast.Div: ("/", "*"), ast.Mod: ("%", "//"), ast.Pow: ("**", "*"),
    ast.LShift: ("<<", ">>"), ast.RShift: (">>", "<<"), ast.BitAnd: ("&", "|"),
    ast.BitOr: ("|", "&"), ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="),
    ast.GtE: (">=", ">"), ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="),
    ast.Is: ("is", "is not"), ast.IsNot: ("is not", "is"),
    ast.In: ("in", "not in"), ast.NotIn: ("not in", "in"),
}


class Mutant(NamedTuple):
    line: int  # 1-based
    start: int  # byte offsets into the line
    end: int
    old: str
    new: str

    @property
    def mutation(self) -> str:
        return f"`{self.old}` -> `{self.new}` at column {self.start}"


def _operator(lines: list[bytes], left: ast.AST, right: ast.AST, old: str, new: str):
    """The mutant that turns the operator ``old`` between ``left`` and
    ``right``, where only brackets, blanks and comments stand beside it,
    into ``new``; None where the source does not show it."""
    pattern = r"\s+".join(map(re.escape, old.split()))
    if old[0].isalpha():
        pattern = rf"\b{pattern}\b"
    for line in range(left.end_lineno, right.lineno + 1):
        start = left.end_col_offset if line == left.end_lineno else 0
        end = right.col_offset if line == right.lineno else None
        gap = lines[line - 1][start:end].decode()
        found = re.search(pattern, re.sub(r"#.*", "", gap))
        if found:
            start += len(gap[:found.start()].encode())
            return Mutant(line, start, start + len(found.group().encode()), found.group(), new)
    return None


def sites(source: bytes) -> list[Mutant]:
    """Every mutant of ``source``, in source order."""
    lines = source.splitlines(keepends=True)
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in _SWAPS:
            left = node.left if isinstance(node, ast.BinOp) else node.target
            right = node.right if isinstance(node, ast.BinOp) else node.value
            old, new = _SWAPS[type(node.op)]
            if isinstance(node, ast.AugAssign):
                old, new = old + "=", new + "="
            found.append(_operator(lines, left, right, old, new))
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for left, op, right in zip(operands, node.ops, operands[1:]):
                found.append(_operator(lines, left, right, *_SWAPS[type(op)]))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            old = lines[node.lineno - 1][node.col_offset:node.end_col_offset]
            if node.lineno == node.end_lineno and _shows(old, node.value):
                found.append(Mutant(
                    node.lineno, node.col_offset, node.end_col_offset, old.decode(),
                    str(node.value + 1),
                ))
    return sorted(set(found) - {None})


def _shows(text: bytes, value: int) -> bool:
    """Whether ``text`` is the literal of ``value``."""
    try:
        return ast.literal_eval(text.decode()) == value
    except (ValueError, SyntaxError, UnicodeDecodeError):
        return False


def mutate(source: bytes, mutant: Mutant) -> bytes:
    lines = source.splitlines(keepends=True)
    text = lines[mutant.line - 1]
    lines[mutant.line - 1] = text[:mutant.start] + mutant.new.encode() + text[mutant.end:]
    return b"".join(lines)


def _key(module: str, source: bytes, mutant: Mutant) -> tuple[str, str, str]:
    return module, source.splitlines()[mutant.line - 1].decode().strip(), mutant.mutation


def _pytest(copy: Path, tests: list[str], timeout: float) -> int | None:
    """pytest's exit code on ``tests`` in ``copy``, or None past ``timeout``."""
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-m", "not timing",
            "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(argv, cwd=copy, env=env, timeout=timeout,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return None
    return done.returncode


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", choices=sorted(TESTS), help="the module to mutate")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=20, help="how many mutants to run")
    args = parser.parse_args(argv)

    source = (ROOT / args.module).read_bytes()
    every = sites(source)
    candidates = [m for m in every if _key(args.module, source, m) not in EQUIVALENT]
    sample = sorted(random.Random(args.seed).sample(candidates, min(args.count, len(candidates))))
    print(f"{args.module}: {len(every)} sites, {len(every) - len(candidates)} judged "
          f"equivalent; running {len(sample)} (seed {args.seed})", file=sys.stderr)
    survivors = []
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".bench_runs", "cover"
        ))
        tests, target = TESTS[args.module], copy / args.module
        started = time.monotonic()
        if _pytest(copy, tests, timeout=3600) != 0:
            print("the unmutated module fails its tests", file=sys.stderr)
            return 2
        timeout = max(60.0, 5 * (time.monotonic() - started))
        for mutant in sample:
            where = f"{args.module}:{mutant.line}: {mutant.mutation}"
            target.write_bytes(mutate(source, mutant))
            code = _pytest(copy, tests, timeout)
            if code in (4, 5):  # a usage error, or no tests collected
                raise SystemExit(f"pytest exited {code} on {where}")
            verdict = "survived" if code == 0 else "timed out" if code is None else "killed"
            print(f"{verdict}: {where}", file=sys.stderr)
            if code == 0:
                survivors.append(where)
    print(f"{len(survivors)} of {len(sample)} survived", file=sys.stderr)
    for where in survivors:
        print(where)
    return 0


if __name__ == "__main__":
    sys.exit(main())
