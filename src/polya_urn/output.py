"""The row format every subcommand writes, and its stream writers.

Every decimal in any format is 15 significant digits, rounded half-even, so
emitted files are stable golden data.  Rows are written as CSV (UTF-8, a
header row, LF line endings), JSON (one object with a ``records`` array that
validates against the schema shipped in ``schemas/``) or text (one
``key=value`` line per row); ``write_pmf`` writes a first-passage pmf as
CSV.  Each writes a row, or a block of rows, with one write, so a long table
never sits in memory.  ``output`` renders columns and knows no method: the
CLI's row builders decide what each method's row holds.

A row travels as its shape and its values: the shape (``_Shape``) holds the
columns the row sets, the values every row of its kind shares, and its CSV
line, a template rendered once a shape; the row carries only what varies
from pair to pair.  The CLI builds rows, and a command adds its own fixed
columns (a note, a reference) to a row's shape.  Every row renders through
``_render_block``, a block of rows (``sweep`` one pair's) with one write;
a block renders alone, each JSON object after its comma, so a ``sweep``
worker can render it.  ``_write_texts`` writes the blocks in the format's
frame, and is the only code that knows it: the header, the JSON array's
opening and closing, and that its first object follows no comma.

The row contract: free text (a method, a note) is always fixed in a shape,
and a varying value is an int (b, w) or a numeric string, which no format
quotes.  So ``csv.writer``, the authority on quoting, renders a shape's CSV
template once, its fixed fields quoted as it quotes them, and a CSV block
only fills in its shapes' templates; JSON and text are rendered field by
field.  Every int in a row prints with ``str()``: each comes from the
command line, which ``int()`` parses within the same digit limit.  A pmf
row is a fixed template, since its fields never need quoting.  Nothing
caches a conversion: ``rational_parts`` converts at each call, so the CLI
converts each exact value once, where it is made, and ``write_pmf`` writes
a zero term without converting it.
"""

from __future__ import annotations

import csv
import decimal
import functools
import io
import json
from dataclasses import fields
from fractions import Fraction
from importlib import resources
from typing import Iterable, Sequence, TextIO

__all__ = [
    "render_decimal",
    "int_str",
    "rational_str",
    "rational_parts",
    "CSV_COLUMNS",
    "write_pmf",
    "load_output_schema",
]

_CONTEXT = decimal.Context(prec=15, rounding=decimal.ROUND_HALF_EVEN)


def render_decimal(x: Fraction | float | int) -> str:
    """Render to 15 significant digits, round-half-even."""
    # a float fails isinstance(x, Fraction) only through ABCMeta's slow check
    if not isinstance(x, float) and isinstance(x, Fraction):
        return rational_parts(x)[2]
    return str(_CONTEXT.plus(decimal.Decimal(x)))


def int_str(n: int) -> str:
    """Render an int in full, past the digit limit that ``str(int)`` enforces."""
    return str(decimal.Decimal(n))


def _dataclass_repr(obj) -> str:
    """The repr that ``dataclass`` generates, with each int field rendered by
    ``int_str``, so that a count past the digit limit still has a repr."""
    shown = ((f.name, getattr(obj, f.name)) for f in fields(obj) if f.repr)
    text = ", ".join(f"{name}={int_str(v) if type(v) is int else repr(v)}" for name, v in shown)
    return f"{type(obj).__qualname__}({text})"


def rational_str(value: Fraction) -> str:
    """Render as ``"num/den"``, always with an explicit denominator."""
    num, den, _ = rational_parts(value)
    return f"{num}/{den}"


def rational_parts(value: Fraction) -> tuple[str, str, str]:
    """Numerator, denominator and 15-digit decimal of ``value``.

    Each call converts afresh, so a caller converts a value once for all of
    the rows that show it (``cli._value``).
    """
    # Decimal, unlike str(int), has no limit on the number of digits
    num, den = map(decimal.Decimal, value.as_integer_ratio())
    return str(num), str(den), str(_CONTEXT.divide(num, den))


CSV_COLUMNS = (
    "b", "w", "method", "value", "exact", "target", "horizon", "samples", "seed",
    "streams", "std_err", "ci_lo", "ci_hi", "reference", "z_score", "note",
)


# what each format writes before its first row
_OPENINGS = {"csv": ",".join(CSV_COLUMNS) + "\n", "json": '{\n  "records": [', "text": ""}


class _Shape:
    """The columns that a run of rows sets, and its CSV line.

    ``fixed`` pairs each column that every row of the shape holds the same
    value in (a sweep's target, horizon, samples, seed, streams and note, or
    a command's reference, z_score and note) with that value; ``varying``
    names the columns whose values each row carries, in CSV order.  A row
    is ``(shape, values)``, ``values`` in ``varying``'s order.  As the
    schema says, b, w, target, horizon, samples, seed and streams hold ints
    and every other column a str.  The method and the note, the columns of
    free text, are fixed, and a varying value needs no quoting.  The CSV
    line is a %-template that ``csv.writer`` renders once, when the shape is
    made, and a row fills in only its values.
    """

    __slots__ = ("method", "varying", "fixed", "csv", "_layout")

    def __init__(
        self, method: str, varying: tuple[str, ...], fixed: tuple[tuple[str, object], ...]
    ) -> None:
        given = {column: value for column, value in fixed if value is not None}
        given["method"] = method
        if "method" in varying or "note" in varying:
            raise ValueError(f"varying columns {varying} hold free text, which is fixed")
        if sorted(varying, key=CSV_COLUMNS.index) != list(varying):
            # the template's slots are filled in CSV order
            raise ValueError(f"varying columns {varying} are not in CSV order")
        self.method, self.varying, self.fixed = method, varying, fixed
        # each set column, in CSV order, with its index in a row's values (None if fixed)
        self._layout = tuple(
            (column, varying.index(column) if column in varying else None, given.get(column))
            for column in CSV_COLUMNS
            if column in varying or column in given
        )
        cells = {
            column: "%s" if i is not None else str(value).replace("%", "%%")
            for column, i, value in self._layout
        }
        line = io.StringIO()
        csv.writer(line, lineterminator="\n").writerow(map(cells.get, CSV_COLUMNS))
        self.csv = line.getvalue()

    def items(self, values: Sequence) -> list[tuple[str, object]]:
        """Each set column of the row with ``values``, and its value, in CSV order."""
        return [(c, value if i is None else values[i]) for c, i, value in self._layout]


Row = tuple[_Shape, tuple]


@functools.lru_cache(maxsize=256)
def _shape(
    method: str, varying: tuple[str, ...], fixed: tuple[tuple[str, object], ...] = ()
) -> _Shape:
    """The shape of ``method``'s rows with these varying and fixed columns,
    made once and cached, so a run renders its CSV template once."""
    return _Shape(method, varying, fixed)


def _with(row: Row, **columns: object) -> Row:
    """``row`` with ``columns`` (None for unset) fixed in its shape as well."""
    shape, values = row
    return _shape(shape.method, shape.varying, shape.fixed + tuple(columns.items())), values


def _json_object(items: Iterable[tuple[str, object]]) -> str:
    """``json.dumps(dict(items), indent=2)`` as it sits in the records array,
    indented by four more spaces."""
    return "{\n      " + ",\n      ".join([
        f"{json.dumps(k)}: {v if type(v) is int else json.dumps(v)}" for k, v in items
    ]) + "\n    }"


def _render_block(block: Sequence[Row], fmt: str) -> str:
    """The text of ``block``'s rows in ``fmt``, each JSON object after its comma.

    In csv each row fills in its shape's template, whose fixed fields are
    already quoted; a varying value is never quoted, since it is an int or a
    numeric string.  json and text are rendered field by field.
    """
    if fmt == "json":
        return "".join([",\n    " + _json_object(shape.items(values)) for shape, values in block])
    if fmt == "text":
        return "".join([
            " ".join([f"{k}={v}" for k, v in shape.items(values)]) + "\n" for shape, values in block
        ])
    return "".join([shape.csv % values for shape, values in block])


def _write_texts(texts: Iterable[str], fmt: str, stream: TextIO) -> None:
    """Write the opening of ``fmt`` (a csv header, json's), each of ``texts``
    (rendered blocks, in order) and the closing, each with one write.

    This is the one place that knows the JSON array's frame: the first
    non-empty text loses the comma its first object follows.
    """
    opening = _OPENINGS[fmt]
    if opening:
        stream.write(opening)
    written = False
    for text in texts:
        if text and not written:
            written = True
            if fmt == "json":
                text = text[1:]
        stream.write(text)
    if fmt == "json":
        # json.dumps writes an empty array as "[]"
        stream.write("\n  ]\n}\n" if written else "]\n}\n")


def write_pmf(hit_pmf: Iterable[Fraction], stream: TextIO) -> None:
    """Write P(tau = n) for n = 0, 1, ... to ``stream`` as CSV, one row at a time.

    The columns are ``n``, the lossless numerator and denominator, and the
    15-digit decimal.  A zero term, such as every term of the wrong parity,
    is the fixed row ``n,0,1,0`` and converts nothing.
    """
    # every field is digits, a sign, a point or an exponent, so none needs quoting
    stream.write("n,p_tau_n_num,p_tau_n_den,p_tau_n_decimal\n")
    for n, p in enumerate(hit_pmf):
        stream.write("%d,%s,%s,%s\n" % (n, *rational_parts(p)) if p else "%d,0,1,0\n" % n)


def load_output_schema() -> dict:
    """The published JSON schema for the CLI's JSON output."""
    text = resources.files("polya_urn").joinpath("schemas/output_records.schema.json").read_text("utf-8")
    return json.loads(text)
