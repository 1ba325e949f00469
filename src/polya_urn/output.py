"""Plot-ready output records and the stream writers every subcommand uses.

Exact methods carry both a lossless ``num/den`` string and a decimal
rendering; every decimal in any format is 15 significant digits, rounded
half-even, so emitted files are stable golden data.  ``write_records``
writes records as CSV (UTF-8, a header row, LF line endings), JSON (one
object with a ``records`` array that validates against the schema shipped
in ``schemas/``) or text (one ``key=value`` line per record); ``write_pmf``
writes a first-passage pmf as CSV.  Both write one row at a time, so a long
table never sits in memory.
"""

from __future__ import annotations

import csv
import decimal
import functools
import json
import operator
from dataclasses import dataclass, fields
from fractions import Fraction
from importlib import resources
from typing import Iterable, Literal, Optional, TextIO, get_args

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


def rational_str(value: Fraction) -> str:
    """Render as ``"num/den"``, always with an explicit denominator."""
    num, den, _ = rational_parts(value)
    return f"{num}/{den}"


def rational_parts(value: Fraction) -> tuple[str, str, str]:
    """Numerator, denominator and 15-digit decimal of ``value``.

    A value that several rows show in a row (a sweep pair's closed forms and
    the reference of its approximations) is converted once.
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

    One record is built per output row, so it is slotted rather than frozen:
    a frozen dataclass sets each of its 16 fields through
    ``object.__setattr__``, about three times the cost of building a slotted
    one.  Records are therefore mutable and unhashable; edit one with
    ``dataclasses.replace``, which validates the new record.
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

    def __post_init__(self) -> None:
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.method in ("exact", "binomial", "complement", "dp") and not self.exact:
            raise ValueError(f"method {self.method!r} must carry the exact rational")

    def to_dict(self) -> dict[str, object]:
        """Field-ordered dict with None entries dropped."""
        return {k: v for k, v in zip(CSV_COLUMNS, _csv_row(self)) if v is not None}


CSV_COLUMNS = tuple(f.name for f in fields(OutputRecord))
_csv_row = operator.attrgetter(*CSV_COLUMNS)


def write_records(records: Iterable[OutputRecord], fmt: str, stream: TextIO) -> None:
    """Write ``records`` to ``stream`` as ``fmt`` (csv, json or text), one at a time.

    A text line is the record's set fields as ``key=value``, space-separated.
    JSON output is byte-identical to ``json.dumps({"records": [...]}, indent=2)``
    plus a final newline.
    """
    if fmt == "csv":
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        # csv writes None as an empty field and an int as its str()
        writer.writerows(map(_csv_row, records))
    elif fmt == "json":
        stream.write('{\n  "records": [')
        # json.dumps writes an empty array as "[]"
        separator, closing = "\n    ", "]\n}\n"
        for rec in records:
            stream.write(separator + json.dumps(rec.to_dict(), indent=2).replace("\n", "\n    "))
            separator, closing = ",\n    ", "\n  ]\n}\n"
        stream.write(closing)
    else:
        for rec in records:
            stream.write(" ".join(f"{k}={v}" for k, v in rec.to_dict().items()) + "\n")


def write_pmf(hit_pmf: Iterable[Fraction], stream: TextIO) -> None:
    """Write P(tau = n) for n = 0, 1, ... to ``stream`` as CSV, one row at a time.

    The columns are ``n``, the lossless numerator and denominator, and the
    15-digit decimal.
    """
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(("n", "p_tau_n_num", "p_tau_n_den", "p_tau_n_decimal"))
    writer.writerows((n, *rational_parts(p)) for n, p in enumerate(hit_pmf))


def load_output_schema() -> dict:
    """The published JSON schema for ``write_records``' JSON output."""
    text = resources.files("polya_urn").joinpath("schemas/output_records.schema.json").read_text("utf-8")
    return json.loads(text)
