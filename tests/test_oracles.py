"""The test oracles stay independent of the package they check, and the
``num/den`` parser the CLI tests read output with accepts only integer parts."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

from oracles import parse_rational


def test_oracles_import_nothing_from_the_package():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert imported, "found no imports at all; is this the oracles module?"
    offending = [
        name for name in imported if name.startswith(".") or name.split(".")[0] == "polya_urn"
    ]
    assert offending == []


def test_rational_parser_reads_integer_parts_of_any_length():
    assert parse_rational("-29/64") == Fraction(-29, 64)
    # both parts past int()'s limit of 4,300 digits a string
    text = "-" + "7" * 5000 + "/1" + "0" * 4400
    assert parse_rational(text) == Fraction(-7 * (10**5000 - 1) // 9, 10**4400)


@pytest.mark.parametrize("text", ["1.5/2", "1e3/7", "NaN/1", "1/", "x/2", "1/2/3", "+1/2", "1_0/3"])
def test_rational_parser_rejects_non_integer_parts(text):
    with pytest.raises(ValueError):
        parse_rational(text)
