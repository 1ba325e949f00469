"""Plot-ready output records and the stream writers every subcommand uses.

Exact methods carry both a lossless ``num/den`` string and a decimal
rendering; every decimal in any format is 15 significant digits, rounded
half-even, so emitted files are stable golden data.  ``write_records``
writes records as CSV (UTF-8, a header row, LF line endings), JSON (one
object with a ``records`` array that validates against the schema shipped
in ``schemas/``) or text (one ``key=value`` line per record); ``write_pmf``
writes a first-passage pmf as CSV.  Both write each row with one write, so
a long table never sits in memory.

Inside the package a row travels as its shape and its values, not as an
``OutputRecord``: the shape (``_Shape``) holds the columns the row sets,
the values every row of its kind shares, and its CSV line, a template
rendered once a shape; the row carries only what varies from pair to
pair.  The CLI builds rows, and a command adds its own fixed columns (a
note, a reference) to a row's shape; ``write_records`` turns each record
into a row whose shape fixes only its method.  Every row renders through
``_render_block``, a block of rows (``sweep`` one pair's) with one write;
a block renders alone, so a ``sweep`` worker can render it.  A CSV block
whose values would need a field quoted is rendered by ``csv.writer``
instead, which stays the authority on quoting; JSON and text are rendered
field by field.  Ints render in full in every format.
"""

from __future__ import annotations

import csv
import decimal
import functools
import io
import json
import operator
from dataclasses import dataclass, fields
from fractions import Fraction
from importlib import resources
from typing import Iterable, Iterator, Literal, Optional, Sequence, TextIO, get_args

__all__ = [
    "Method",
    "OutputRecord",
    "render_decimal",
    "int_str",
    "rational_str",
    "rational_parts",
    "CSV_COLUMNS",
    "write_records",
    "write_pmf",
    "load_output_schema",
]

Method = Literal[
    "exact", "binomial", "complement", "dp", "mc", "definetti", "normal", "chernoff"
]

_METHODS = get_args(Method)
# the methods whose rows carry their exact rational
_EXACT_METHODS = ("exact", "binomial", "complement", "dp")


def _check(method: object, exact: object) -> None:
    """Refuse a row or record whose method is unknown, or whose exact method
    carries no exact rational (``exact`` is falsy)."""
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}")
    if method in _EXACT_METHODS and not exact:
        raise ValueError(f"method {method!r} must carry the exact rational")


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

    A ``sweep`` converts each pair's value once itself (``cli._value``); the
    cache saves only the repeat conversions of other callers, such as a pmf's
    or a command's rows of one value.
    """
    # keyed by (numerator, denominator), which hash faster than a Fraction
    return _converted(value.as_integer_ratio())


@functools.lru_cache(maxsize=8)
def _converted(ratio: tuple[int, int]) -> tuple[str, str, str]:
    # Decimal, unlike str(int), has no limit on the number of digits
    num, den = map(decimal.Decimal, ratio)
    return str(num), str(den), str(_CONTEXT.divide(num, den))


@dataclass(slots=True)
class OutputRecord:
    """One (b, w, method) result row; metadata fields apply where relevant.

    The CLI builds none: its commands render rows (``_Shape``).  A record
    is slotted rather than frozen: a frozen dataclass sets each of its 16
    fields through ``object.__setattr__``, about three times the cost of
    building a slotted one.  Records are therefore mutable and unhashable;
    edit one with ``dataclasses.replace``, which validates the new record.
    ``write_records`` checks each record again, so it refuses one edited
    in place into a record that the constructor would refuse.
    """

    b: int
    w: int
    method: Method
    value: str
    exact: Optional[str] = None
    target: Optional[int] = None
    horizon: Optional[int] = None
    samples: Optional[int] = None
    seed: Optional[int] = None
    streams: Optional[int] = None
    std_err: Optional[str] = None
    ci_lo: Optional[str] = None
    ci_hi: Optional[str] = None
    reference: Optional[str] = None
    z_score: Optional[str] = None
    note: Optional[str] = None

    __repr__ = _dataclass_repr

    def __post_init__(self) -> None:
        _check(self.method, self.exact)

    def to_dict(self) -> dict[str, object]:
        """Field-ordered dict with None entries dropped."""
        return {k: v for k, v in zip(CSV_COLUMNS, _csv_row(self)) if v is not None}


CSV_COLUMNS = tuple(f.name for f in fields(OutputRecord))
_csv_row = operator.attrgetter(*CSV_COLUMNS)


def _needs_csv_writer(text: str, lines: int, commas: int) -> bool:
    """Whether ``text``, ``lines`` lines of fields joined by ``commas`` commas
    in all, holds a character that makes ``csv.writer`` quote a field."""
    return '"' in text or "\r" in text or text.count("\n") > lines or text.count(",") > commas


def _csv_lines(rows: Sequence[Sequence]) -> str:
    """``rows``, each of at least two fields, as the CSV lines that
    ``csv.writer(lineterminator="\\n")`` writes, ints rendered in full.

    A line is its fields joined by commas, None as an empty field and any
    other field as its str().  A block holding a quote, a carriage return, or
    more commas or newlines than its separators and line ends is rendered by
    ``csv.writer`` instead, which stays the authority on quoting, and so is a
    block with an int past ``str``'s digit limit.
    """
    try:
        text = "".join([
            ",".join(["" if f is None else f if type(f) is str else str(f) for f in row]) + "\n"
            for row in rows
        ])
    except ValueError:  # an int past str()'s digit limit
        text = None
    if text is None or _needs_csv_writer(text, len(rows), sum(map(len, rows)) - len(rows)):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(
            [int_str(f) if type(f) is int else f for f in row] for row in rows
        )
        text = buf.getvalue()
    return text


# what each format writes before its first record
_OPENINGS = {"csv": _csv_lines([CSV_COLUMNS]), "json": '{\n  "records": [', "text": ""}


class _Shape:
    """The columns that a run of rows sets, and its CSV line.

    ``fixed`` pairs each column that every row of the shape holds the same
    value in (a sweep's target, horizon, samples, seed, streams and note, or
    a command's reference, z_score and note) with that value; ``varying``
    names the columns whose values each row carries, in CSV order, which
    hold the types ``OutputRecord`` declares for them.  A row is ``(shape, values)``, ``values`` in
    ``varying``'s order.  The CSV line is a %-template rendered once, when
    the shape is made, and a row fills in only its values.
    ``OutputRecord``'s check (``_check``) runs here, once a shape: a varying
    ``exact`` is a row builder's ``num/den``, which is never empty, or a
    record's, which ``_row_of`` has checked.
    """

    __slots__ = ("method", "varying", "fixed", "csv", "_layout")

    def __init__(
        self, method: str, varying: tuple[str, ...], fixed: tuple[tuple[str, object], ...]
    ) -> None:
        given = {column: value for column, value in fixed if value is not None}
        _check(method, "exact" in varying or given.get("exact"))
        given["method"] = method
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
            column: "%s" if i is not None
            else (int_str(value) if type(value) is int else str(value)).replace("%", "%%")
            for column, i, value in self._layout
        }
        self.csv = ",".join([cells.get(column, "") for column in CSV_COLUMNS]) + "\n"

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


def _row_of(record: OutputRecord) -> Row:
    """``record``, checked again, as a row whose shape fixes only its method."""
    _check(record.method, record.exact)
    columns = record.to_dict()
    return _shape(columns.pop("method"), tuple(columns)), tuple(columns.values())


def _json_object(items: Iterable[tuple[str, object]]) -> str:
    """``json.dumps(dict(items), indent=2)`` as it sits in the records array,
    indented by four more spaces, with ints rendered in full."""
    return "{\n      " + ",\n      ".join([
        f"{json.dumps(k)}: {int_str(v) if type(v) is int else json.dumps(v)}" for k, v in items
    ]) + "\n    }"


def _render_block(block: Sequence[Row], fmt: str, follows: bool) -> str:
    """The text of ``block``'s rows in ``fmt``; ``follows`` says whether a
    record precedes the block, which a JSON record must then follow a comma.

    In csv each row fills in its shape's template; a block whose values need
    a field quoted, or that holds an int past ``str()``'s digit limit, is
    rendered by ``_csv_lines`` instead.  json and text are rendered field by
    field.
    """
    if fmt == "json":
        text = "".join([",\n    " + _json_object(shape.items(values)) for shape, values in block])
        # the first object of the array follows no comma
        return text if follows else text[1:]
    if fmt == "text":
        return "".join([
            " ".join([f"{k}={int_str(v) if type(v) is int else v}" for k, v in shape.items(values)])
            + "\n"
            for shape, values in block
        ])
    try:
        text = "".join([shape.csv % values for shape, values in block])
    except ValueError:  # an int past str()'s digit limit
        text = None
    if text is None or _needs_csv_writer(text, len(block), (len(CSV_COLUMNS) - 1) * len(block)):
        full = (dict(shape.items(values)) for shape, values in block)
        text = _csv_lines([[row.get(c) for c in CSV_COLUMNS] for row in full])
    return text


def _render_blocks(
    blocks: Iterable[Sequence[Row]], fmt: str, follows: bool = False
) -> Iterator[str]:
    """``_render_block``'s text of each of ``blocks`` in turn, each block rendered
    when the previous text is taken; ``follows`` is as for the first block."""
    for block in blocks:
        yield _render_block(block, fmt, follows)
        follows = follows or bool(block)


def _write_texts(texts: Iterable[str], fmt: str, stream: TextIO) -> None:
    """Write the opening of ``fmt`` (a csv header, json's), each of ``texts``
    (rendered blocks, in order) and the closing, each with one write."""
    opening = _OPENINGS[fmt]
    if opening:
        stream.write(opening)
    written = False
    for text in texts:
        stream.write(text)
        written = written or bool(text)
    if fmt == "json":
        # json.dumps writes an empty array as "[]"
        stream.write("\n  ]\n}\n" if written else "]\n}\n")


def _write_blocks(blocks: Iterable[Sequence[OutputRecord]], fmt: str, stream: TextIO) -> None:
    """Write the records of ``blocks`` as ``write_records`` does, each block with
    one write, after the header (csv) or the opening (json) is written on its own."""
    rows = ([_row_of(rec) for rec in block] for block in blocks)
    _write_texts(_render_blocks(rows, fmt), fmt, stream)


def write_records(records: Iterable[OutputRecord], fmt: str, stream: TextIO) -> None:
    """Write ``records`` to ``stream`` as ``fmt`` (csv, json or text), one at a time.

    A text line is the record's set fields as ``key=value``, space-separated.
    JSON output is byte-identical to ``json.dumps({"records": [...]}, indent=2)``
    plus a final newline.
    """
    _write_blocks(([rec] for rec in records), fmt, stream)


def write_pmf(hit_pmf: Iterable[Fraction], stream: TextIO) -> None:
    """Write P(tau = n) for n = 0, 1, ... to ``stream`` as CSV, one row at a time.

    The columns are ``n``, the lossless numerator and denominator, and the
    15-digit decimal.
    """
    stream.write(_csv_lines([("n", "p_tau_n_num", "p_tau_n_den", "p_tau_n_decimal")]))
    for n, p in enumerate(hit_pmf):
        stream.write(_csv_lines([(n, *rational_parts(p))]))


def load_output_schema() -> dict:
    """The published JSON schema for ``write_records``' JSON output."""
    text = resources.files("polya_urn").joinpath("schemas/output_records.schema.json").read_text("utf-8")
    return json.loads(text)
