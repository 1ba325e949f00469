"""Tests for record rendering: decimal policy, round-trips, validation."""

import csv
import io
import json
from fractions import Fraction

import pytest

from polya_urn.output import (
    CSV_COLUMNS,
    OutputRecord,
    parse_rational,
    rational_str,
    records_to_csv,
    records_to_json,
    record_to_text,
    render_decimal,
    write_records,
)


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

    @pytest.mark.parametrize("text", ["1.5/2", "1e3/7", "NaN/1", "1/", "x/2"])
    def test_parse_rejects_non_integer_parts(self, text):
        with pytest.raises(ValueError):
            parse_rational(text)


class TestOutputRecord:
    def test_exact_methods_require_rational(self):
        with pytest.raises(ValueError):
            OutputRecord(b=2, w=1, method="exact", value="0.5")
        with pytest.raises(ValueError):
            OutputRecord(b=2, w=1, method="dp", value="0.4")

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            OutputRecord(b=2, w=1, method="guess", value="0.5")

    def test_to_dict_drops_missing_fields(self):
        rec = OutputRecord(b=2, w=1, method="mc", value="0.5", samples=100)
        assert rec.to_dict() == {
            "b": 2, "w": 1, "method": "mc", "value": "0.5", "samples": 100,
        }


class TestWriters:
    def test_csv_has_lf_endings_and_header(self):
        rec = OutputRecord(b=2, w=1, method="exact", value="0.5", exact="1/2")
        text = records_to_csv([rec])
        assert "\r" not in text
        lines = text.split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        parsed = next(csv.DictReader(io.StringIO(text)))
        assert parsed["exact"] == "1/2"

    def test_json_shape(self):
        import json

        rec = OutputRecord(b=3, w=2, method="exact", value="0.625", exact="5/8")
        doc = json.loads(records_to_json([rec]))
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
        buf = io.StringIO()
        write_records(iter(_RECORDS[:count]), "json", buf)
        document = {"records": [rec.to_dict() for rec in _RECORDS[:count]]}
        assert buf.getvalue() == json.dumps(document, indent=2) + "\n"

    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_csv_and_text_match_the_string_renderings(self, count):
        records = _RECORDS[:count]
        for fmt, expected in (
            ("csv", records_to_csv(records)),
            ("text", "".join(record_to_text(rec) + "\n" for rec in records)),
        ):
            buf = io.StringIO()
            write_records(iter(records), fmt, buf)
            assert buf.getvalue() == expected

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
