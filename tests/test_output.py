"""Tests for record rendering: decimal policy, round-trips, validation, the
two stream writers, ``write_records`` and ``write_pmf``, the block writer
behind them, and the package's refusals, which render their numbers here at
any size."""

import contextlib
import csv
import io
import json
import sys
from dataclasses import replace
from fractions import Fraction
from typing import get_args

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polya_urn import (
    DomainError,
    DPTable,
    EstimateWithCI,
    ExactProbability,
    ResourceLimitError,
    RngSeed,
    UrnConfig,
    beta_cdf_rational,
    cost,
    estimate_equalization,
    normal_approximation,
    output,
)
from polya_urn.output import (
    CSV_COLUMNS,
    Method,
    OutputRecord,
    int_str,
    rational_str,
    render_decimal,
    write_pmf,
    write_records,
)

from oracles import parse_rational


def _written(records, fmt: str) -> str:
    buf = io.StringIO()
    write_records(iter(records), fmt, buf)
    return buf.getvalue()


class TestRenderDecimal:
    def test_fifteen_significant_digits(self):
        assert render_decimal(Fraction(1, 3)) == "0.333333333333333"
        assert render_decimal(Fraction(2, 3)) == "0.666666666666667"

    def test_exact_dyadics_stay_short(self):
        assert render_decimal(Fraction(5, 8)) == "0.625"
        assert render_decimal(Fraction(1, 2)) == "0.5"
        assert render_decimal(Fraction(1, 1)) == "1"

    def test_round_half_even(self):
        # 16th digit is a 5 with nothing after: ties go to the even neighbor
        assert render_decimal(Fraction(1000000000000005, 10**15)) == "1.00000000000000"
        assert render_decimal(Fraction(1000000000000015, 10**15)) == "1.00000000000002"

    def test_floats_supported(self):
        assert render_decimal(0.25) == "0.25"
        assert render_decimal(1 / 3) == "0.333333333333333"

    def test_tiny_values_use_exponent(self):
        assert "E-" in render_decimal(Fraction(1, 10**40))


class TestRationalStrings:
    @pytest.mark.parametrize(
        "value",
        [
            Fraction(0),
            Fraction(1),
            Fraction(5, 8),
            Fraction(29, 64),
            Fraction(123456789, 2**60),
            Fraction(3**10000, 2**30000 + 1),  # both parts past the int-from-string limit
        ],
    )
    def test_round_trip_is_lossless(self, value):
        assert parse_rational(rational_str(value)) == value

    def test_always_has_denominator(self):
        assert rational_str(Fraction(1)) == "1/1"
        assert rational_str(Fraction(0)) == "0/1"


class TestOutputRecord:
    def test_exact_methods_require_rational(self):
        with pytest.raises(ValueError):
            OutputRecord(b=2, w=1, method="exact", value="0.5")
        with pytest.raises(ValueError):
            OutputRecord(b=2, w=1, method="dp", value="0.4")

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            OutputRecord(b=2, w=1, method="guess", value="0.5")

    def test_replace_still_validates(self):
        """Records are mutable; ``dataclasses.replace`` builds a new record and
        runs its checks."""
        rec = OutputRecord(b=2, w=1, method="mc", value="0.5")
        exact_rec = OutputRecord(b=2, w=1, method="exact", value="0.5", exact="1/2")
        with pytest.raises(ValueError, match="unknown method 'guess'"):
            replace(rec, method="guess")
        with pytest.raises(ValueError, match="must carry the exact rational"):
            replace(exact_rec, exact=None)
        assert replace(exact_rec, note="n") == OutputRecord(
            b=2, w=1, method="exact", value="0.5", exact="1/2", note="n"
        )

    @pytest.mark.parametrize("fmt", ["csv", "json", "text"])
    @pytest.mark.parametrize(
        "edit, message",
        [
            (("method", "bogus"), "unknown method 'bogus'"),
            (("exact", None), "must carry the exact rational"),
            (("exact", ""), "must carry the exact rational"),
        ],
    )
    def test_write_records_refuses_a_record_edited_in_place(self, fmt, edit, message):
        """A record edited in place, past the constructor's checks, is refused
        by ``write_records`` before any of it is written."""
        rec = OutputRecord(b=7, w=3, method="exact", value="0.25", exact="1/4")
        setattr(rec, *edit)
        buf = io.StringIO()
        with pytest.raises(ValueError, match=message):
            write_records([rec], fmt, buf)
        # at most the header (csv) or the opening (json) of an empty document
        assert _written([], fmt).startswith(buf.getvalue())

    def test_to_dict_drops_missing_fields(self):
        rec = OutputRecord(b=2, w=1, method="mc", value="0.5", samples=100)
        assert rec.to_dict() == {
            "b": 2, "w": 1, "method": "mc", "value": "0.5", "samples": 100,
        }


class TestWriters:
    def test_csv_has_lf_endings_and_header(self):
        rec = OutputRecord(b=2, w=1, method="exact", value="0.5", exact="1/2")
        text = _written([rec], "csv")
        assert "\r" not in text
        lines = text.split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        parsed = next(csv.DictReader(io.StringIO(text)))
        assert parsed["exact"] == "1/2"

    def test_json_shape(self):
        rec = OutputRecord(b=3, w=2, method="exact", value="0.625", exact="5/8")
        doc = json.loads(_written([rec], "json"))
        assert list(doc) == ["records"]
        assert doc["records"][0]["exact"] == "5/8"


_RECORDS = [
    OutputRecord(b=2, w=1, method="exact", value="0.5", exact="1/2"),
    OutputRecord(b=3, w=1, method="normal", value="0.3", reference="0.25", note='a "q"\nz'),
    OutputRecord(b=9, w=4, method="dp", value="0.1", exact="1/10", target=-3, horizon=40),
]


class TestStreamingWriter:
    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_json_is_byte_identical_to_one_dumps(self, count):
        document = {"records": [rec.to_dict() for rec in _RECORDS[:count]]}
        assert _written(_RECORDS[:count], "json") == json.dumps(document, indent=2) + "\n"

    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_csv_is_one_csv_writer_over_every_column(self, count):
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows([getattr(rec, c) for c in CSV_COLUMNS] for rec in _RECORDS[:count])
        assert _written(_RECORDS[:count], "csv") == expected.getvalue()

    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_text_is_one_key_value_line_per_record(self, count):
        lines = [
            "b=2 w=1 method=exact value=0.5 exact=1/2",
            'b=3 w=1 method=normal value=0.3 reference=0.25 note=a "q"\nz',
            "b=9 w=4 method=dp value=0.1 exact=1/10 target=-3 horizon=40",
        ]
        assert _written(_RECORDS[:count], "text") == "".join(line + "\n" for line in lines[:count])

    @pytest.mark.parametrize("fmt", ["csv", "json", "text"])
    def test_each_record_is_written_before_the_next_is_built(self, fmt):
        buf = io.StringIO()
        seen = []

        def records():
            for rec in _RECORDS:
                seen.append(len(buf.getvalue()))
                yield rec

        write_records(records(), fmt, buf)
        # the stream grew between consecutive records: nothing was held back
        assert seen[0] < seen[1] < seen[2] < len(buf.getvalue())


class TestPmfWriter:
    def test_header_and_one_row_per_step(self):
        buf = io.StringIO()
        write_pmf(iter([Fraction(0), Fraction(1, 3), Fraction(0), Fraction(2, 27)]), buf)
        assert buf.getvalue() == (
            "n,p_tau_n_num,p_tau_n_den,p_tau_n_decimal\n"
            "0,0,1,0\n"
            "1,1,3,0.333333333333333\n"
            "2,0,1,0\n"
            "3,2,27,0.0740740740740741\n"
        )

    def test_pmf_csv_past_the_int_string_limit(self):
        buf = io.StringIO()
        write_pmf((Fraction(0), Fraction(3, 10**5000)), buf)
        rows = list(csv.DictReader(io.StringIO(buf.getvalue())))
        assert [r["p_tau_n_num"] for r in rows] == ["0", "3"]
        assert [r["p_tau_n_den"] for r in rows] == ["1", "1" + "0" * 5000]

    def test_each_row_is_written_before_the_next_is_built(self):
        buf = io.StringIO()
        seen = []

        def pmf():
            for p in (Fraction(0), Fraction(1, 2), Fraction(1, 4)):
                seen.append(len(buf.getvalue()))
                yield p

        write_pmf(pmf(), buf)
        assert seen[0] < seen[1] < seen[2] < len(buf.getvalue())


class WriteLog(io.StringIO):
    """A text stream that also keeps each write it is given."""

    def __init__(self) -> None:
        super().__init__()
        self.writes: list[str] = []

    def write(self, text: str) -> int:
        self.writes.append(text)
        return super().write(text)


@contextlib.contextmanager
def _unlimited_int_digits():
    """Let ``str(int)``, and so ``csv.writer``, render every digit for the block."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _write_cut(blocks, fmt: str, stream) -> None:
    """Write the records of ``blocks`` as a sweep writes its pairs: each block's
    rows rendered by ``output._render_block`` and written by ``output._write_texts``."""
    rows = ([output._row_of(rec) for rec in block] for block in blocks)
    output._write_texts((output._render_block(block, fmt) for block in rows), fmt, stream)


def _csv_writer_text(rows) -> str:
    """``rows`` as ``csv.writer`` writes them, every int in full."""
    buf = io.StringIO()
    with _unlimited_int_digits():
        csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


# every character that can make csv quote a field, and some that cannot; half
# the fields hold none of the first kind, so that one such field can be alone
_TEXT = st.text(alphabet=" 0123456789", max_size=4) | st.text(',"\r\n 0123456789', max_size=6)
# some past the 4,300 digits that ``str(int)`` renders by default
_INTS = st.integers() | st.integers(10**4300, 10**4400) | st.integers(-(10**4400), -(10**4300))
_EXACT_METHODS = ("exact", "binomial", "complement", "dp")


@st.composite
def _records(draw) -> OutputRecord:
    method = draw(st.sampled_from(get_args(Method)))
    fields = {
        name: draw(st.none() | _TEXT)
        for name in ("exact", "std_err", "ci_lo", "ci_hi", "reference", "z_score", "note")
    }
    if method in _EXACT_METHODS:
        fields["exact"] = draw(_TEXT.filter(bool))
    for name in ("target", "horizon", "samples", "seed", "streams"):
        fields[name] = draw(st.none() | _INTS)
    return OutputRecord(draw(_INTS), draw(_INTS), method, draw(_TEXT), **fields)


class TestCsvRenderer:
    """Every CSV line is joined by ``output`` itself; ``csv.writer`` is the oracle."""

    @given(records=st.lists(_records(), max_size=8), cuts=st.lists(st.integers(0, 8)))
    @example(records=[_RECORDS[1]], cuts=[])
    @example(records=[replace(_RECORDS[0], note="a,b")], cuts=[])
    @example(records=[replace(_RECORDS[0], note="a\nb")], cuts=[])
    @example(records=[replace(_RECORDS[0], note="a\rb")], cuts=[])
    @example(records=[replace(_RECORDS[0], note='"')], cuts=[])
    @example(records=[replace(_RECORDS[0], b=10**5000)], cuts=[])
    @settings(max_examples=200, deadline=None)
    def test_each_block_is_one_write_of_csv_writer_lines(self, records, cuts):
        bounds = [0, *sorted(min(cut, len(records)) for cut in cuts), len(records)]
        blocks = [records[i:j] for i, j in zip(bounds, bounds[1:])]
        stream = WriteLog()
        _write_cut(blocks, "csv", stream)
        assert stream.writes == [
            _csv_writer_text([CSV_COLUMNS]),
            *(_csv_writer_text([getattr(r, c) for c in CSV_COLUMNS] for r in b) for b in blocks),
        ]

    @given(
        pmf=st.lists(
            st.builds(Fraction, _INTS, st.integers(1, 10**4400) | st.integers(1, 10**6)),
            max_size=6,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_pmf_rows_are_csv_writer_lines(self, pmf):
        stream = WriteLog()
        write_pmf(pmf, stream)
        rows = [(n, p.numerator, p.denominator, render_decimal(p)) for n, p in enumerate(pmf)]
        assert stream.writes == [
            _csv_writer_text([("n", "p_tau_n_num", "p_tau_n_den", "p_tau_n_decimal")]),
            *(_csv_writer_text([row]) for row in rows),
        ]


class TestJsonAndTextRenderers:
    """``json.dumps`` and ``key=value`` lines, with every int rendered in full,
    are the oracles of the JSON and text blocks, as ``csv.writer`` is of CSV's."""

    @given(records=st.lists(_records(), max_size=8), cuts=st.lists(st.integers(0, 8)))
    @example(records=[replace(_RECORDS[0], b=10**5000)], cuts=[])
    @example(records=[replace(_RECORDS[2], target=-(10**5000))], cuts=[0, 1])
    @example(records=[], cuts=[0, 0])
    # the array's first object comes after two empty blocks, and follows no comma
    @example(records=_RECORDS, cuts=[0, 0, 1])
    @settings(max_examples=100, deadline=None)
    def test_json_blocks_are_one_dumps(self, records, cuts):
        bounds = [0, *sorted(min(cut, len(records)) for cut in cuts), len(records)]
        blocks = [records[i:j] for i, j in zip(bounds, bounds[1:])]
        stream = WriteLog()
        _write_cut(blocks, "json", stream)
        with _unlimited_int_digits():
            document = json.dumps({"records": [r.to_dict() for r in records]}, indent=2) + "\n"
        assert "".join(stream.writes) == document
        # the opening, one write a block, and the closing
        assert len(stream.writes) == len(blocks) + 2
        assert [bool(text) for text in stream.writes[1:-1]] == [bool(b) for b in blocks]

    @given(records=st.lists(_records(), max_size=8), cuts=st.lists(st.integers(0, 8)))
    @example(records=[replace(_RECORDS[0], w=-(10**5000))], cuts=[])
    @settings(max_examples=100, deadline=None)
    def test_text_blocks_are_key_value_lines(self, records, cuts):
        bounds = [0, *sorted(min(cut, len(records)) for cut in cuts), len(records)]
        blocks = [records[i:j] for i, j in zip(bounds, bounds[1:])]
        stream = WriteLog()
        _write_cut(blocks, "text", stream)
        with _unlimited_int_digits():
            expected = [
                "".join(" ".join(f"{k}={v}" for k, v in r.to_dict().items()) + "\n" for r in b)
                for b in blocks
            ]
        assert stream.writes == expected


_STR_COLUMNS = ("exact", "std_err", "ci_lo", "ci_hi", "reference", "z_score", "note")
_INT_FIELDS = ("target", "horizon", "samples", "seed", "streams")


@st.composite
def _rows(draw):
    """A row, ``(shape, values)``, and the columns it sets, in CSV order: b,
    w, the value and some other str columns vary, in CSV order, and some str
    and int columns are fixed in its shape, a ``%`` among them, some of them
    added by ``output._with``, which also leaves some unset (None)."""
    text = _TEXT | st.text('%s,"\n 0', max_size=6)
    others = draw(st.lists(st.sampled_from(_STR_COLUMNS), unique=True))
    str_varying = ["value", *sorted(others, key=CSV_COLUMNS.index)]
    fixed_columns = draw(st.lists(
        st.sampled_from([c for c in CSV_COLUMNS[3:] if c not in str_varying]), unique=True
    ))
    fixed = tuple(
        (c, draw(st.integers(0, 10**20) if c in _INT_FIELDS else text)) for c in fixed_columns
    )
    varying = ("b", "w", *str_varying)
    values = (draw(st.integers(2, 10**20)), draw(st.integers(1, 9)))
    values += tuple(draw(text) for _ in str_varying)
    cut = draw(st.integers(0, len(fixed)))
    # the fixed columns past the cut are added by ``_with``, some of them unset
    added = {c: draw(st.none() | st.just(v)) for c, v in fixed[cut:]}
    row = output._with((output._shape("mc", varying, fixed[:cut]), values), **added)
    columns = {"method": "mc", **dict(zip(varying, values)), **dict(fixed[:cut]), **added}
    return row, {c: columns[c] for c in CSV_COLUMNS if columns.get(c) is not None}


def _stdlib_block(columns: list[dict], fmt: str) -> str:
    """The rows that set ``columns`` as ``csv.writer``, ``json.dumps`` (the
    records array's objects, after one record) or ``key=value`` lines render
    them."""
    if fmt == "csv":
        return _csv_writer_text([[row.get(c) for c in CSV_COLUMNS] for row in columns])
    with _unlimited_int_digits():
        if fmt == "text":
            return "".join(" ".join(f"{k}={v}" for k, v in row.items()) + "\n" for row in columns)
        document = json.dumps({"records": [{}, *columns]}, indent=2)
    # the array's objects, less the one before them and the array's closing
    return document[len('{\n  "records": [\n    {}'):-len("\n  ]\n}")]


_PERCENT_ROW = (
    (output._shape("dp", ("b", "w", "value", "exact"), (("note", "100%"),)), (2, 1, "0.5", "1/2")),
    {"b": 2, "w": 1, "method": "dp", "value": "0.5", "exact": "1/2", "note": "100%"},
)
_NOTED_ROW = (
    output._with(
        (output._shape("exact", ("b", "w", "value", "exact")), (5, 3, "0.25", "1/4")),
        note='50%, a "half"',
    ),
    {"b": 5, "w": 3, "method": "exact", "value": "0.25", "exact": "1/4", "note": '50%, a "half"'},
)


class TestRowShapes:
    """A row renders in every format as the stdlib writers render the columns
    it sets: its csv template falls back to ``csv.writer`` where a field needs
    quoting, and a fixed ``%`` stays a ``%``."""

    @given(
        rows=st.lists(_rows(), min_size=1, max_size=3),
        fmt=st.sampled_from(["csv", "json", "text"]),
    )
    @example(rows=[_PERCENT_ROW], fmt="csv")
    @example(rows=[_NOTED_ROW], fmt="csv")
    @example(rows=[_NOTED_ROW, _PERCENT_ROW], fmt="json")
    @example(rows=[_NOTED_ROW], fmt="text")
    @settings(max_examples=100, deadline=None)
    def test_a_row_renders_as_its_record(self, rows, fmt):
        block, columns = [row for row, _ in rows], [columns for _, columns in rows]
        got = output._render_block(block, fmt)
        assert got == _stdlib_block(columns, fmt)
        if fmt == "json":
            # written after an empty block, the array's first object follows no comma
            stream = io.StringIO()
            output._write_texts(["", got], fmt, stream)
            with _unlimited_int_digits():
                assert stream.getvalue() == json.dumps({"records": columns}, indent=2) + "\n"

    def test_varying_columns_keep_csv_order(self):
        with pytest.raises(ValueError, match="not in CSV order"):
            output._shape("mc", ("b", "w", "value", "ci_lo", "std_err"))


# past the 4,300 digits that ``str(int)`` renders by default
_HUGE = 10**5000
_URN = UrnConfig(2, 1)
# each refusal names a number of about 5,000 digits or more
_REFUSED = {
    "dp-negative-term": (DomainError, lambda: DPTable(_URN, 0, (0, Fraction(-1, _HUGE)))),
    "dp-mass-above-one": (DomainError, lambda: DPTable(_URN, 0, (0, Fraction(_HUGE + 1, _HUGE)))),
    "exact-probability": (DomainError, lambda: ExactProbability(Fraction(_HUGE + 1, _HUGE))),
    "beta-cdf": (DomainError, lambda: beta_cdf_rational(_URN, Fraction(-1, _HUGE))),
    "urn-config": (DomainError, lambda: UrnConfig(-_HUGE, 1)),
    "strict-majority": (DomainError, lambda: normal_approximation(UrnConfig(1, _HUGE))),
    "horizon": (DomainError, lambda: estimate_equalization(_URN, 0, -_HUGE, 10, RngSeed(0))),
    "streams": (DomainError, lambda: estimate_equalization(_URN, 0, 5, 10, RngSeed(0), -_HUGE)),
    "path-state": (
        ResourceLimitError,
        lambda: estimate_equalization(UrnConfig(_HUGE, 1), 0, 5, 10, RngSeed(0)),
    ),
    "work-ceiling": (ResourceLimitError, lambda: cost.check("exact", UrnConfig(_HUGE, 1))),
    "seed": (DomainError, lambda: RngSeed(_HUGE)),
    "stream": (DomainError, lambda: RngSeed(0).generator(_HUGE)),
    "estimate": (DomainError, lambda: EstimateWithCI(_HUGE, 1.0, 2.0)),
}


class TestRefusalsPastTheDigitLimit:
    def test_int_str_renders_every_digit(self):
        assert int_str(-_HUGE) == "-1" + "0" * 5000
        assert int_str(42) == "42"

    @pytest.mark.parametrize("error, refused", _REFUSED.values(), ids=_REFUSED)
    def test_refusal_renders_its_numbers(self, error, refused):
        """Each refusal renders the numbers it names in full, so a number past
        ``str(int)``'s digit limit still gives the package's own error."""
        with pytest.raises(error) as exc:
            refused()
        assert type(exc.value) is error
        assert "0" * 4400 in str(exc.value)
