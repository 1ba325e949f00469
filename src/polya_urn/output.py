"""Plot-ready output records and their CSV/JSON/text renderings.

Exact methods carry both a lossless ``num/den`` string and a decimal
rendering; every decimal in any format is 15 significant digits, rounded
half-even, so emitted files are stable golden data.  CSV is UTF-8 with a
header row and LF line endings; JSON is one object with a ``records`` array
and validates against the schema shipped in ``schemas/``.
"""

from __future__ import annotations

import csv
import decimal
import io
import json
import re
from dataclasses import dataclass, fields
from fractions import Fraction
from importlib import resources
from typing import Literal, Optional, get_args

__all__ = [
    "Method",
    "OutputRecord",
    "render_decimal",
    "rational_str",
    "parse_rational",
    "CSV_COLUMNS",
    "records_to_csv",
    "records_to_json",
    "record_to_text",
    "load_output_schema",
]

Method = Literal[
    "exact", "binomial", "complement", "dp", "mc", "definetti", "normal", "chernoff"
]

_METHODS = get_args(Method)

_CONTEXT = decimal.Context(prec=15, rounding=decimal.ROUND_HALF_EVEN)

_INTEGER = re.compile(r"-?[0-9]+")


def render_decimal(x: Fraction | float | int) -> str:
    """Render to 15 significant digits, round-half-even."""
    if isinstance(x, Fraction):
        return str(_CONTEXT.divide(decimal.Decimal(x.numerator), decimal.Decimal(x.denominator)))
    return str(_CONTEXT.plus(decimal.Decimal(x)))


def rational_str(value: Fraction) -> str:
    """Render as ``"num/den"``, always with an explicit denominator.

    The integers go through ``Decimal``, which, unlike ``str(int)``, has no
    limit on the number of digits.
    """
    return f"{decimal.Decimal(value.numerator)}/{decimal.Decimal(value.denominator)}"


def parse_rational(text: str) -> Fraction:
    """Inverse of ``rational_str``; round-trips bit-for-bit at any size."""
    num, den = text.split("/")
    if not (_INTEGER.fullmatch(num) and _INTEGER.fullmatch(den)):
        raise ValueError(f"expected 'num/den' with integer parts, got {text!r}")
    return Fraction(int(decimal.Decimal(num)), int(decimal.Decimal(den)))


@dataclass(frozen=True)
class OutputRecord:
    """One (b, w, method) result row; metadata fields apply where relevant."""

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
        out: dict[str, object] = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if v is not None:
                out[f.name] = v
        return out


CSV_COLUMNS = tuple(f.name for f in fields(OutputRecord))


def records_to_csv(records: list[OutputRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in records:
        writer.writerow(
            ["" if (v := getattr(rec, col)) is None else str(v) for col in CSV_COLUMNS]
        )
    return buf.getvalue()


def records_to_json(records: list[OutputRecord]) -> str:
    return json.dumps({"records": [rec.to_dict() for rec in records]}, indent=2) + "\n"


def record_to_text(record: OutputRecord) -> str:
    return " ".join(f"{k}={v}" for k, v in record.to_dict().items())


def load_output_schema() -> dict:
    """The published JSON schema for ``records_to_json`` output."""
    text = resources.files("polya_urn").joinpath("schemas/output_records.schema.json").read_text("utf-8")
    return json.loads(text)
