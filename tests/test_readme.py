"""README's examples run as written.

Each ``polya-urn ...`` line of the CLI block runs through ``cli.main`` in a
temporary directory, so ``--output sweep.csv`` lands there; the comment
lines under the ``exact`` example are its stdout, and the quick start's
``# ExactProbability(29/64)`` is the repr it names.
"""

import re
import shlex
from pathlib import Path

import pytest

from polya_urn import UrnConfig, cli, equalization_probability

_README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")


def _cli_block() -> str:
    section = _README.split("\n## CLI\n", 1)[1]
    return re.search(r"```sh\n(.*?)```", section, re.S).group(1).replace("\\\n", " ")


def _commands() -> list[list[str]]:
    """Each ``polya-urn`` line's arguments, its trailing comment dropped."""
    return [
        shlex.split(line, comments=True)[1:]
        for line in _cli_block().splitlines()
        if line.startswith("polya-urn ")
    ]


def test_the_cli_block_has_every_subcommand():
    assert {argv[0] for argv in _commands()} == {
        "exact", "dp", "simulate", "approx", "sweep", "identity-check"
    }


@pytest.mark.parametrize("argv", _commands(), ids=" ".join)
def test_each_cli_example_exits_0(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 0, capsys.readouterr().err


def test_the_exact_example_prints_its_comment_lines(capsys):
    lines = _cli_block().splitlines()
    start = lines.index("polya-urn exact --b 3 --w 2 --form all")
    shown = "".join(line[2:] + "\n" for line in lines[start + 1:start + 4])
    assert cli.main(["exact", "--b", "3", "--w", "2", "--form", "all"]) == 0
    assert capsys.readouterr().out == shown


def test_the_quick_start_repr_is_the_one_printed():
    comment = re.search(r"equalization_probability\(cfg\) +# (.*)\n", _README).group(1)
    assert comment == repr(equalization_probability(UrnConfig(5, 3)))
