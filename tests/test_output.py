"""Tests for record rendering: decimal policy, round-trips, validation."""

import csv
import io
from fractions import Fraction

import pytest

from polya_urn.output import (
    CSV_COLUMNS,
    OutputRecord,
    parse_rational,
    rational_str,
    records_to_csv,
    records_to_json,
    render_decimal,
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
