"""The test oracles stay independent of the package they check."""

import ast
from pathlib import Path


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
