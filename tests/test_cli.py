"""CLI surface tests: formats, round-trips, exit codes, determinism."""

import argparse
import contextlib
import csv
import gc
import io
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import warnings
from decimal import Decimal
from fractions import Fraction

import jsonschema
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from polya_urn import (
    ApproxResult,
    ExactProbability,
    RngSeed,
    UrnConfig,
    chernoff_bound,
    cli,
    definetti_estimator,
    equalization_probability,
    equalization_probability_binomial,
    equalization_probability_complement,
    estimate_equalization,
    first_passage_dp,
    normal_approximation,
    output,
    split,
)
from polya_urn.cli import main
from polya_urn.cost import MEMORY_BUDGET_BYTES, estimate_dp_memory_bytes
from polya_urn.output import load_output_schema, rational_str, render_decimal

from oracles import beta_cdf_by_polynomial_integration, parse_rational


def run_cli(capsys, *args: str) -> tuple[int, str, str]:
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_subprocess(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "polya_urn.cli", *args], capture_output=True)


class TestExactCommand:
    def test_all_forms_agree(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "--b", "3", "--w", "2", "--form", "all")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert all("exact=5/8" in line and "value=0.625" in line for line in lines)

    def test_equal_start_convention_note(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "--b", "5", "--w", "5")
        assert code == 0
        assert "exact=1/1" in out
        assert "convention" in out

    def test_minority_swap_matches(self, capsys):
        _, swapped, _ = run_cli(capsys, "exact", "--b", "2", "--w", "3")
        _, straight, _ = run_cli(capsys, "exact", "--b", "3", "--w", "2")
        assert "exact=5/8" in swapped and "exact=5/8" in straight
        assert "color-swapped" in swapped

    @pytest.mark.parametrize("b, w", [(10000, 5000), (20000, 1)])
    def test_rationals_past_the_int_string_limit(self, capsys, b, w):
        code, out, err = run_cli(capsys, "exact", "--b", str(b), "--w", str(w))
        assert code == 0 and not err
        fields = dict(f.split("=", 1) for f in out.split(" note=")[0].split())
        assert len(fields["exact"]) > 4300
        assert parse_rational(fields["exact"]) == equalization_probability(UrnConfig(b, w)).value

    def test_sum_form_needs_majority(self, capsys):
        code, _, err = run_cli(capsys, "exact", "--b", "2", "--w", "3", "--form", "binomial")
        assert code == 2
        assert "black > white" in err

    def test_zero_count_is_usage_error(self):
        proc = run_subprocess("exact", "--b", "0", "--w", "1")
        assert proc.returncode == 2

    def test_non_integer_is_usage_error(self):
        proc = run_subprocess("exact", "--b", "2.5", "--w", "1")
        assert proc.returncode == 2


class TestDpCommand:
    def test_negative_horizon_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dp", "--b", "2", "--w", "1", "--horizon", "-1"])
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        assert "argument --horizon: must be >= 0, got -1" in captured.err

    def test_cumulative(self, capsys):
        code, out, _ = run_cli(capsys, "dp", "--b", "2", "--w", "1", "--horizon", "3")
        assert code == 0
        assert "exact=2/5" in out and "value=0.4" in out

    def test_zero_horizon(self, capsys):
        _, out, _ = run_cli(capsys, "dp", "--b", "2", "--w", "1", "--horizon", "0")
        assert "exact=0/1" in out

    def test_pmf_parity_rows_are_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "dp", "--b", "2", "--w", "1", "--horizon", "8", "--emit-pmf"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 9
        for row in rows:
            n = int(row["n"])
            p = Fraction(int(row["p_tau_n_num"]), int(row["p_tau_n_den"]))
            if n % 2 == 0:
                assert p == 0
        table = first_passage_dp(UrnConfig(2, 1), 0, 8)
        got = [
            Fraction(int(r["p_tau_n_num"]), int(r["p_tau_n_den"])) for r in rows
        ]
        assert got == list(table.hit_pmf)

    def test_pmf_to_file_keeps_record_on_stdout(self, capsys, tmp_path):
        target = tmp_path / "pmf.csv"
        code, out, _ = run_cli(
            capsys,
            "dp", "--b", "2", "--w", "1", "--horizon", "4",
            "--emit-pmf", "--output", str(target),
        )
        assert code == 0
        assert "method=dp" in out
        assert target.read_text().startswith("n,p_tau_n_num")

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_pmf_to_file_is_the_stdout_pmf_byte_for_byte(self, capsys, tmp_path, fmt):
        """``--emit-pmf --output F``: F holds what stdout holds without
        ``--output``, and stdout holds the plain ``dp`` record."""
        argv = ("dp", "--b", "5", "--w", "3", "--target", "-1", "--horizon", "30", "--format", fmt)
        _, pmf, _ = run_cli(capsys, *argv, "--emit-pmf")
        _, record, _ = run_cli(capsys, *argv)
        target = tmp_path / "pmf.csv"
        code, out, err = run_cli(capsys, *argv, "--emit-pmf", "--output", str(target))
        assert (code, err) == (0, "")
        assert target.read_bytes() == pmf.encode()
        assert out == record
        assert pmf.startswith("n,p_tau_n_num,p_tau_n_den,p_tau_n_decimal\n")
        assert len(pmf.splitlines()) == 1 + 31

    def test_memory_budget_error_names_feasible_horizon(self):
        proc = run_subprocess("dp", "--b", "2", "--w", "1", "--horizon", "10000000")
        assert proc.returncode == 2
        assert b"largest feasible horizon" in proc.stderr

    def test_default_budget_admits_horizon_ten_thousand(self, capsys):
        code, out, _ = run_cli(capsys, "dp", "--b", "2", "--w", "1", "--horizon", "10000")
        assert code == 0
        assert "exact=5000/10001" in out

    def test_target_out_of_reach(self, capsys):
        code, out, _ = run_cli(
            capsys, "dp", "--b", "2", "--w", "1", "--target", "-10000000", "--horizon", "10"
        )
        assert code == 0
        assert "exact=0/1" in out


class TestSimulateCommand:
    def test_byte_identical_reruns(self):
        args = (
            "simulate", "--b", "3", "--w", "2", "--samples", "20000",
            "--seed", "7", "--streams", "3",
        )
        first = run_subprocess(*args)
        second = run_subprocess(*args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_direct_reports_dp_reference_and_z(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--b", "2", "--w", "1", "--samples", "50000", "--seed", "3",
        )
        assert code == 0
        assert "reference=" in out and "z_score=" in out and "std_err=" in out

    def test_direct_skips_dp_reference_over_memory_budget(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--b", "500001", "--w", "500000", "--horizon", "20000",
            "--samples", "1", "--seed", "11",
        )
        assert code == 0
        assert "DP reference skipped (memory budget)" in out
        assert "reference=" not in out and "z_score=" not in out

    def test_streams_past_the_samples(self, capsys):
        args = ("simulate", "--b", "5", "--w", "3", "--samples", "10", "--format", "csv")
        code, most, _ = run_cli(capsys, *args, "--streams", str(2**64 - 1))
        assert code == 0
        _, ten, _ = run_cli(capsys, *args, "--streams", "10")
        assert most.replace(str(2**64 - 1), "10") == ten

    # each stream's share of the samples is past the int64 counts
    @pytest.mark.parametrize(
        "samples, streams", [(2**63, 1), (2**64 - 1, 1), (2**64 - 1, 2)],
    )
    def test_oversized_samples_is_resource_error(self, capsys, samples, streams):
        code, out, err = run_cli(
            capsys, "simulate", "--b", "5", "--w", "3", "--horizon", "5",
            "--samples", str(samples), "--streams", str(streams),
        )
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: cannot count ")

    @pytest.mark.parametrize(
        "samples, streams, horizon", [(10**8, 2, 200), (2**61, 1, 5), (2**63 - 1, 1, 5)],
    )
    def test_samples_that_fit_the_int64_counts_run(self, capsys, samples, streams, horizon):
        code, out, err = run_cli(
            capsys, "simulate", "--b", "5", "--w", "3", "--horizon", str(horizon),
            "--samples", str(samples), "--streams", str(streams), "--format", "json",
        )
        assert (code, err) == (0, "")
        (record,) = json.loads(out)["records"]
        assert abs(float(record["z_score"])) < 4

    @pytest.mark.parametrize(
        "argv, name",
        [
            (("--method", "definetti", "--b", str(2**1100), "--w", "3"), "b"),
            (
                ("--b", "2", "--w", str(10**400), "--target", str(3 - 10**400),
                 "--horizon", "5"),
                "b + w + horizon - 1",
            ),
            (("--method", "definetti", "--b", "1", "--w", str(10**400)), "w"),
        ],
    )
    def test_urn_past_the_float_range_is_resource_error(self, capsys, argv, name):
        code, out, err = run_cli(capsys, "simulate", *argv, "--samples", "10")
        assert (code, out) == (2, "")
        assert re.fullmatch(rf"error: {re.escape(name)} = \d+ exceeds the float range of .*\n", err)

    @pytest.mark.parametrize("horizon", [0, 5])
    def test_urn_past_the_float_range_with_the_target_out_of_reach_runs(self, capsys, horizon):
        code, out, _ = run_cli(
            capsys, "simulate", "--b", "2", "--w", str(10**400), "--horizon", str(horizon),
            "--samples", "10",
        )
        assert code == 0 and "method=mc value=0 " in out

    def test_sweep_refuses_a_float_range_b_at_its_largest_pair(self, capsys):
        b = 2**1024
        code, out, err = run_cli(
            capsys, "sweep", "--b-range", f"{b - 3}:{b}", "--w-range", "1:2",
            "--methods", "definetti", "--samples", "2",
        )
        assert (code, out) == (2, "")
        assert err == (
            f"error: b = {b} exceeds the float range of the de Finetti estimator, below 2^1024\n"
        )

    @pytest.mark.parametrize(
        "b, w, horizon",
        [(2**63, 1, 3), (2**63 - 3, 1, 3), (2**63 - 4, 2**64, 4), (2**64, 2**64 - 1, 0)],
    )
    def test_path_state_past_int64_is_resource_error(self, capsys, b, w, horizon):
        code, out, err = run_cli(
            capsys, "simulate", "--b", str(b), "--w", str(w), "--horizon", str(horizon),
            "--samples", "2",
        )
        assert (code, out) == (2, "")
        assert err == (
            f"error: b + horizon = {b + horizon} exceeds the int64 path-state limit "
            "of direct simulation, 2^63 - 1\n"
        )

    def test_path_state_at_the_int64_limit_runs(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--b", str(2**63 - 4), "--w", "1", "--horizon", "3",
            "--samples", "2",
        )
        assert code == 0
        assert "method=mc value=0 " in out and "reference=0 " in out

    def test_direct_skips_dp_reference_over_horizon_cap(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--b", "2", "--w", "1", "--samples", "20", "--seed", "3",
            "--horizon", "20001",
        )
        assert code == 0
        assert "DP reference skipped (horizon over 20000)" in out
        assert "reference=" not in out and "z_score=" not in out

    def test_direct_with_target_out_of_reach(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--b", "2", "--w", "1", "--samples", "100", "--seed", "3",
            "--target", "-10000000", "--horizon", "10",
        )
        assert code == 0
        assert "value=0 " in out and "reference=0 " in out

    def test_definetti_z_within_four_sigma(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--b", "3", "--w", "2", "--method", "definetti",
            "--samples", "100000", "--seed", "5",
        )
        assert code == 0
        z_field = next(f for f in out.split() if f.startswith("z_score="))
        assert abs(float(z_field.partition("=")[2])) < 4

    @pytest.mark.parametrize(
        "flag, value, default", [("--streams", "7", "1"), ("--horizon", "0", "200")]
    )
    def test_definetti_ignores_streams_and_horizon(self, capsys, flag, value, default):
        """The untruncated estimator draws from stream 0 alone, at no horizon."""
        argv = ("simulate", "--b", "5", "--w", "3", "--method", "definetti", "--samples", "1000")
        _, changed, _ = run_cli(capsys, *argv, flag, value)
        _, baseline, _ = run_cli(capsys, *argv, flag, default)
        assert changed == baseline and "method=definetti" in changed

    def test_zero_samples_usage_error(self):
        proc = run_subprocess("simulate", "--b", "2", "--w", "1", "--samples", "0")
        assert proc.returncode == 2

    def test_definetti_answers_a_minority(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--b", "3", "--w", "5", "--method", "definetti",
            "--samples", "100000", "--seed", "3", "--format", "json",
        )
        assert (code, err) == (0, "")
        (record,) = json.loads(out)["records"]
        assert record["reference"] == "0.453125"  # 29/64, the value of (5, 3)
        assert abs(float(record["z_score"])) < 4

    def test_definetti_answers_a_tie_with_exactly_one(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--b", "2", "--w", "2", "--method", "definetti", "--samples", "1000",
        )
        assert (code, err) == (0, "")
        assert " value=1 " in out and " ci_lo=1 ci_hi=1 reference=1 " in out
        assert "z_score=" not in out and "degenerate CI" in out

    def test_definetti_refuses_nonzero_target(self, capsys):
        """The estimator answers target 0 only; any other target is refused, not misreported."""
        code, out, err = run_cli(
            capsys,
            "simulate", "--b", "5", "--w", "3", "--method", "definetti",
            "--target", "3", "--samples", "1000", "--seed", "1",
        )
        assert code == 2
        assert out == ""
        assert err == "error: the de Finetti estimator targets 0 only, got --target 3\n"

    def test_degenerate_single_sample_flagged(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--b", "2", "--w", "1", "--samples", "1", "--seed", "1"
        )
        assert code == 0
        assert "degenerate" in out

    @pytest.mark.parametrize(
        "argv, ess",
        [
            (("--b", "500", "--w", "300", "--samples", "1000000", "--seed", "42"), "4.33"),
            (("--b", "3000", "--w", "2", "--samples", "100000"), "0"),
        ],
    )
    def test_tiny_definetti_estimate_flagged(self, capsys, argv, ess):
        """One draw dominates (or none counts): the note says the estimate is out of reach."""
        code, out, _ = run_cli(capsys, "simulate", "--method", "definetti", *argv)
        assert code == 0
        assert f"; effective sample size {ess} < 10: out of MC reach" in out

    @pytest.mark.parametrize("samples, ess", [("1", "0"), ("20", "8")])
    def test_direct_estimate_with_few_hits_flagged(self, capsys, samples, ess):
        """A direct estimate's effective sample size is its hit count."""
        code, out, _ = run_cli(
            capsys, "simulate", "--b", "2", "--w", "1", "--samples", samples, "--seed", "1"
        )
        assert code == 0
        assert f"; effective sample size {ess} < 10: out of MC reach" in out

    def test_definetti_estimate_with_many_effective_samples_not_flagged(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--b", "5", "--w", "3", "--method", "definetti",
            "--samples", "2000", "--seed", "11",
        )
        assert code == 0
        assert "effective sample size" not in out


class TestApproxCommand:
    def test_both_methods(self, capsys):
        code, out, _ = run_cli(capsys, "approx", "--b", "5", "--w", "3")
        assert code == 0
        assert "method=normal" in out and "method=chernoff" in out
        assert "rel_error=" in out

    def test_requires_majority(self, capsys):
        code, _, err = run_cli(capsys, "approx", "--b", "3", "--w", "3")
        assert code == 2

    @pytest.mark.parametrize("b, w", [(3, 5), (5, 5)])
    def test_refuses_a_minority_before_any_closed_form(self, capsys, monkeypatch, b, w):
        """The refusal is immediate even where the exact reference would take seconds."""

        def computed(config):
            raise AssertionError("computed the exact reference")

        monkeypatch.setattr(cli, "equalization_probability", computed)
        code, out, err = run_cli(capsys, "approx", "--b", str(b), "--w", str(w))
        assert (code, out) == (2, "")
        assert err == (
            f"error: the normal approximation requires black > white, got black={b}, white={w}\n"
        )

    def test_rebinding_an_approximation_reaches_every_row(self, capsys, monkeypatch):
        """The approximations are looked up at each call, as the closed forms are,
        so a rebound name reaches both the ``approx`` and the ``sweep`` rows."""

        def bound(config, exact_ref=None):
            return ApproxResult(0.75, "upper_bound", exact_ref)

        monkeypatch.setattr(cli, "chernoff_bound", bound)
        code, out, _ = run_cli(capsys, "approx", "--b", "5", "--w", "3", "--method", "chernoff")
        assert code == 0 and out.startswith("b=5 w=3 method=chernoff value=0.75 ")
        code, out, _ = run_cli(
            capsys, "sweep", "--b-range", "3:4", "--w-range", "1:2", "--methods", "chernoff,normal"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["value"] for r in rows if r["method"] == "chernoff"] == ["0.75"] * 4
        assert "0.75" not in {r["value"] for r in rows if r["method"] == "normal"}

    def test_exact_value_below_float_range(self):
        proc = run_subprocess("approx", "--b", "2000", "--w", "1", "--method", "normal")
        assert proc.returncode == 0
        assert b"Traceback" not in proc.stderr
        # the exact value underflows float, so no relative error is reported
        assert b"note=approximation\n" in proc.stdout

    @pytest.mark.parametrize(
        "argv",
        [("--b", "2000", "--w", "1"), ("--b", "1200", "--w", "2", "--method", "chernoff")],
    )
    def test_chernoff_bound_below_float_range(self, capsys, argv):
        code, out, _ = run_cli(capsys, "approx", *argv, "--format", "json")
        assert code == 0
        record = next(r for r in json.loads(out)["records"] if r["method"] == "chernoff")
        exact = equalization_probability(UrnConfig(record["b"], record["w"])).value
        assert Fraction(Decimal(record["value"])) >= exact


class TestSweepCommand:
    def test_row_count_and_order(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--b-range", "2:5", "--w-range", "1:4", "--methods", "exact"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 10
        pairs = [(int(r["b"]), int(r["w"])) for r in rows]
        assert pairs == sorted(pairs)
        # the 6 pairs with w >= b are counted in one stderr line
        assert err.splitlines() == ["# skipped 6 (b, w) pair(s): sweep requires w < b"]

    def test_values_inside_unit_interval_and_monotone(self, capsys):
        _, out, _ = run_cli(
            capsys, "sweep", "--b-range", "2:8", "--w-range", "1:1", "--methods", "exact"
        )
        rows = list(csv.DictReader(io.StringIO(out)))
        values = [parse_rational(r["exact"]) for r in rows]
        assert all(0 < v < 1 for v in values)
        assert all(a > b for a, b in zip(values, values[1:]))  # b grows, P falls

    def test_each_exact_value_is_converted_once(self, capsys, monkeypatch):
        """A pair's three closed-form rows and two approximation references share one
        ``Decimal`` conversion of its exact value, as ``exact --form all``'s three
        rows do; a pmf converts each non-zero term once and no zero term."""
        context, divisions = output._CONTEXT, []

        class CountingContext:
            def __getattr__(self, name):
                return getattr(context, name)

            def divide(self, num, den):
                divisions.append((num, den))
                return context.divide(num, den)

        monkeypatch.setattr(output, "_CONTEXT", CountingContext())
        code, out, _ = run_cli(
            capsys,
            "sweep", "--b-range", "2:5", "--w-range", "1:4",
            "--methods", "exact,binomial,complement,normal,chernoff",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 5 * 10  # the 10 pairs with w < b, each with its own value
        values = [parse_rational(row["exact"]) for row in rows[::5]]
        assert [Fraction(int(n), int(d)) for n, d in divisions] == values

        divisions.clear()
        code, out, _ = run_cli(
            capsys, "exact", "--b", "7", "--w", "3", "--form", "all", "--format", "csv"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [row["method"] for row in rows] == ["exact", "binomial", "complement"]
        assert [Fraction(int(n), int(d)) for n, d in divisions] == [parse_rational(rows[0]["exact"])]

        divisions.clear()
        code, out, _ = run_cli(capsys, "dp", "--b", "2", "--w", "1", "--horizon", "10", "--emit-pmf")
        assert code == 0
        pmf = [
            Fraction(int(row["p_tau_n_num"]), int(row["p_tau_n_den"]))
            for row in csv.DictReader(io.StringIO(out))
        ]
        nonzero = [p for p in pmf if p]
        assert len(pmf) == 11 and len(nonzero) == 5
        # the row's cumulative value, built before the pmf is written, then each non-zero term
        assert [Fraction(int(n), int(d)) for n, d in divisions] == [sum(pmf), *nonzero]

    def test_no_record_is_built_per_row(self, capsys, monkeypatch):
        """Rows go from the row builders to the renderer as rows: no
        ``OutputRecord`` is built, by a sweep or by a single-record command."""
        built = []
        init = output.OutputRecord.__init__

        def counting(self, *args, **kwargs):
            built.append(args or kwargs)
            init(self, *args, **kwargs)

        monkeypatch.setattr(output.OutputRecord, "__init__", counting)
        for fmt in ("csv", "json", "text"):
            code, out, _ = run_cli(
                capsys, "sweep", "--b-range", "2:30", "--w-range", "1:29", "--format", fmt,
                "--methods", "exact,binomial,complement,normal,chernoff",
            )
            assert code == 0 and out.count("chernoff") == 435  # the pairs with w < b
        assert built == []
        urn = ("--b", "5", "--w", "3")
        for argv in (
            ("exact", *urn),
            ("exact", *urn, "--form", "all"),
            ("dp", *urn, "--horizon", "20"),
            ("simulate", *urn, "--samples", "100"),
            ("simulate", *urn, "--samples", "100", "--method", "definetti"),
            ("approx", *urn),
        ):
            for fmt in ("csv", "json", "text"):
                assert run_cli(capsys, *argv, "--format", fmt)[0] == 0
        assert built == []

    def test_csv_round_trips_exact_rationals(self, capsys):
        _, out, _ = run_cli(
            capsys,
            "sweep", "--b-range", "2:6", "--w-range", "1:5",
            "--methods", "exact,binomial,complement",
        )
        for row in csv.DictReader(io.StringIO(out)):
            config = UrnConfig(int(row["b"]), int(row["w"]))
            assert parse_rational(row["exact"]) == equalization_probability(config).value

    def test_json_validates_against_published_schema(self, capsys):
        _, out, _ = run_cli(
            capsys,
            "sweep", "--b-range", "2:4", "--w-range", "1:3",
            "--methods", "exact,mc,normal", "--samples", "1000", "--format", "json",
        )
        document = json.loads(out)
        jsonschema.validate(document, load_output_schema())
        # pairs with w < b in the 2..4 x 1..3 box, times three methods
        assert len(document["records"]) == 18

    def test_malformed_range_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--b-range", "a:3", "--w-range", "1"])
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        assert "argument --b-range: expected N or LO:HI, got 'a:3'" in captured.err

    def test_empty_effective_range_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--b-range", "2:3", "--w-range", "5:6"
        )
        assert code == 2
        assert "empty effective range" in err

    @pytest.mark.parametrize("samples", [2**63, 2**64 - 1])
    def test_oversized_mc_samples_is_resource_error(self, capsys, samples):
        code, out, err = run_cli(
            capsys, "sweep", "--b-range", "2:3", "--w-range", "1:1",
            "--methods", "exact,mc", "--samples", str(samples),
        )
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: cannot count ")

    def test_definetti_with_nonzero_target_refused(self, capsys):
        """No target-0 de Finetti row lands among rows at another target."""
        code, out, err = run_cli(
            capsys,
            "sweep", "--b-range", "5:5", "--w-range", "3:3",
            "--methods", "dp,mc,definetti", "--target", "-2", "--horizon", "40",
        )
        assert code == 2
        assert out == ""
        assert err == "error: the de Finetti estimator targets 0 only, got --target -2\n"

    def test_unknown_method_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--b-range", "2:3", "--w-range", "1:1", "--methods", "magic"
        )
        assert code == 2

    def test_empty_method_list_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--b-range", "2:3", "--w-range", "1:1", "--methods", " , "
        )
        assert code == 2 and out == ""
        assert err == "error: --methods must name at least one method\n"

    def test_late_dp_refusal_prints_no_rows(self, capsys):
        """Rows stream, yet a refusal at the sweep's last pair still leaves stdout empty."""
        horizon = 2_100_000
        # (2, 1) and (3, 1) fit the dp budget at this horizon; (3, 2), the last pair, does not
        fits = [estimate_dp_memory_bytes(UrnConfig(b, w), horizon) <= MEMORY_BUDGET_BYTES
                for b, w in ((2, 1), (3, 1), (3, 2))]
        assert fits == [True, True, False]
        code, out, err = run_cli(
            capsys,
            "sweep", "--b-range", "2:3", "--w-range", "1:2", "--methods", "exact,dp",
            "--target", "-10000000", "--horizon", str(horizon),
        )
        assert code == 2 and out == ""
        assert err.splitlines()[-1].startswith(f"error: horizon {horizon} needs ~")

    def test_late_path_state_refusal_prints_no_rows(self, capsys):
        """Direct simulation's int64 limit is checked at the sweep's largest b."""
        code, out, err = run_cli(
            capsys,
            "sweep", "--b-range", f"{2**63 - 5}:{2**63 - 2}", "--w-range", "1:1",
            "--methods", "mc", "--horizon", "2", "--samples", "2",
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"error: b + horizon = {2**63} exceeds the int64 path-state")

    def test_methods_without_closed_forms_build_none(self, capsys, monkeypatch):
        """A sweep of only dp, mc and definetti never builds the closed forms, so
        a b past 2^63 costs nothing, and its rows are those of a sweep that does."""
        argv = (
            "sweep", "--b-range", "4:9", "--w-range", "2:6", "--target", "0",
            "--horizon", "12", "--samples", "40", "--seed", "5", "--streams", "2",
        )
        _, with_forms, _ = run_cli(capsys, *argv, "--methods", "dp,exact,mc,definetti")

        def refuse(*args):
            raise AssertionError("closed forms built")

        monkeypatch.setattr(cli, "equalization_sweep", refuse)
        code, out, _ = run_cli(capsys, *argv, "--methods", "dp,mc,definetti")
        assert code == 0
        lines = with_forms.splitlines(keepends=True)
        assert out == "".join(line for line in lines if line.split(",")[2] != "exact")
        assert len(out.splitlines()) == 1 + 3 * 24
        code, out, _ = run_cli(
            capsys,
            "sweep", "--b-range", f"{2**63}:{2**63 + 1}", "--w-range", "1:2",
            "--methods", "definetti,dp", "--horizon", "2", "--samples", "2", "--format", "text",
        )
        assert code == 0
        assert [line.split()[:3] for line in out.splitlines()] == [
            [f"b={b}", f"w={w}", f"method={m}"]
            for b in (2**63, 2**63 + 1) for w in (1, 2) for m in ("definetti", "dp")
        ]

    @pytest.mark.parametrize("fmt", ["csv", "json", "text"])
    def test_each_pair_is_one_write_before_the_next_pair_is_built(self, monkeypatch, fmt):
        """Past the header (csv) or the opening and closing (json), each write holds
        exactly one pair's rows, and is made before the next pair is built; the
        first pair is built before anything is written."""
        events = []

        class WriteLog(io.StringIO):
            def write(self, text):
                events.append(("write", text))
                return super().write(text)

        def recorded(*ranges, sweep=cli.equalization_sweep):
            for config, probability in sweep(*ranges):
                events.append(("built", (config.black, config.white)))
                yield config, probability

        monkeypatch.setattr(cli, "equalization_sweep", recorded)
        monkeypatch.setattr(sys, "stdout", WriteLog())
        argv = ["sweep", "--b-range", "2:12", "--w-range", "1:11", "--methods", "exact,normal"]
        assert main([*argv, "--format", fmt]) == 0
        pairs = [item for kind, item in events if kind == "built"]
        assert len(pairs) == 66
        # the writes after each pair is built, up to the next pair
        writes = []
        for kind, item in events:
            if kind == "built":
                writes.append([])
            else:
                writes[-1].append(item)
        opening = {"csv": 1, "json": 1, "text": 0}[fmt]
        closing = {"csv": 0, "json": 1, "text": 0}[fmt]
        framing = writes[0][:opening] + writes[-1][len(writes[-1]) - closing:]
        writes[0], writes[-1] = writes[0][opening:], writes[-1][:len(writes[-1]) - closing]
        assert [len(w) for w in writes] == [1] * len(pairs)
        assert framing == {
            "csv": [",".join(output.CSV_COLUMNS) + "\n"],
            "json": ['{\n  "records": [', "\n  ]\n}\n"],
            "text": [],
        }[fmt]

        def rows(text):
            if fmt == "csv":
                return [tuple(row[:3]) for row in csv.reader(io.StringIO(text))]
            if fmt == "json":
                records = json.loads("[" + text.lstrip(",") + "]")
                return [(str(r["b"]), str(r["w"]), r["method"]) for r in records]
            return [tuple(f.split("=")[1] for f in line.split()[:3]) for line in text.splitlines()]

        for (b, w), [text] in zip(pairs, writes):
            assert rows(text) == [(str(b), str(w), "exact"), (str(b), str(w), "normal")]

    def test_closed_forms_come_from_the_column_recurrence(self, capsys, monkeypatch):
        """``sweep`` never calls the per-pair closed forms; the cross-checking routes do."""

        def refuse(config):
            raise AssertionError(f"per-pair closed form called for {config}")

        for name in (
            "equalization_probability",
            "equalization_probability_binomial",
            "equalization_probability_complement",
        ):
            monkeypatch.setattr(cli, name, refuse)
        code, out, _ = run_cli(
            capsys, "sweep", "--b-range", "2:12", "--w-range", "1:11",
            "--methods", "exact,binomial,complement,normal,chernoff",
        )
        assert code == 0 and len(out.splitlines()) == 1 + 5 * 66
        for argv in (
            ("identity-check", "--max-total", "12"),
            ("exact", "--b", "7", "--w", "3", "--form", "all"),
        ):
            with pytest.raises(AssertionError, match="per-pair closed form called"):
                main(list(argv))

    @given(
        b_range=st.tuples(st.integers(1, 60), st.integers(0, 60)).map(
            lambda t: (t[0], min(60, t[0] + t[1]))
        ),
        w_range=st.tuples(st.integers(1, 60), st.integers(0, 60)).map(
            lambda t: (t[0], t[0] + t[1])
        ),
    )
    @example(b_range=(30, 45), w_range=(7, 50))  # w_lo > 1, columns starting mid-range
    @example(b_range=(40, 60), w_range=(3, 9))  # b_lo > w_hi + 1
    @example(b_range=(5, 5), w_range=(3, 3))  # one pair
    @example(b_range=(60, 60), w_range=(59, 60))  # one pair at the edge, one skipped
    @example(b_range=(2, 5), w_range=(5, 9))  # no pair
    @settings(max_examples=30, deadline=None)
    def test_streamed_values_match_every_route(self, b_range, w_range):
        """Each streamed value equals all three per-pair forms and an independent oracle,
        in b-major order, with the brute-force skipped count on stderr."""
        (b_lo, b_hi), (w_lo, w_hi) = b_range, w_range
        argv = [
            "sweep", "--b-range", f"{b_lo}:{b_hi}", "--w-range", f"{w_lo}:{w_hi}",
            "--methods", "exact,binomial,complement,normal",
        ]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        grid = [(b, w) for b in range(b_lo, b_hi + 1) for w in range(w_lo, w_hi + 1)]
        pairs = [(b, w) for b, w in grid if w < b]
        skipped = len(grid) - len(pairs)
        notes = [f"# skipped {skipped} (b, w) pair(s): sweep requires w < b"] if skipped else []
        if not pairs:
            assert code == 2 and out.getvalue() == ""
            return
        assert code == 0 and err.getvalue().splitlines() == notes
        rows = list(csv.DictReader(io.StringIO(out.getvalue())))
        assert [(int(r["b"]), int(r["w"])) for r in rows[::4]] == pairs
        for (b, w), group in zip(pairs, zip(*[iter(rows)] * 4)):
            config = UrnConfig(b, w)
            expected = 2 * beta_cdf_by_polynomial_integration(b, w, Fraction(1, 2))
            for fn in (
                equalization_probability,
                equalization_probability_binomial,
                equalization_probability_complement,
            ):
                assert fn(config).value == expected
            assert [r["method"] for r in group] == ["exact", "binomial", "complement", "normal"]
            assert {parse_rational(r["exact"]) for r in group[:3]} == {expected}
            assert group[3]["reference"] == render_decimal(expected)


# the columns of every output row, in order, as the published schema lists them
_COLUMNS = (
    "b", "w", "method", "value", "exact", "target", "horizon", "samples", "seed", "streams",
    "std_err", "ci_lo", "ci_hi", "reference", "z_score", "note",
)

_METHOD_NAMES = ("exact", "binomial", "complement", "dp", "mc", "definetti", "normal", "chernoff")


def _library_rows(sweep: dict) -> list[dict]:
    """The set fields of each row of ``sweep``, in b-major order, from the
    library's own values and renderings alone."""
    (b_lo, b_hi), (w_lo, w_hi) = sweep["b_range"], sweep["w_range"]
    target, horizon, samples, seed, streams = (
        sweep[k] for k in ("target", "horizon", "samples", "seed", "streams")
    )
    rows = []
    for b in range(b_lo, b_hi + 1):
        for w in range(w_lo, min(w_hi, b - 1) + 1):
            config = UrnConfig(b, w)
            exact = equalization_probability(config).value
            for method in sweep["methods"]:
                row = {"b": b, "w": w, "method": method}
                if method in ("exact", "binomial", "complement"):
                    row.update(value=render_decimal(exact), exact=rational_str(exact))
                elif method in ("normal", "chernoff"):
                    approximation = normal_approximation if method == "normal" else chernoff_bound
                    row["value"] = render_decimal(approximation(config).value)
                    row["reference"] = render_decimal(exact)
                elif method == "dp":
                    cumulative = first_passage_dp(config, target, horizon).cumulative
                    row.update(
                        value=render_decimal(cumulative), exact=rational_str(cumulative),
                        target=target, horizon=horizon, note="cumulative P(tau <= horizon)",
                    )
                else:
                    if method == "mc":
                        est = estimate_equalization(
                            config, target, horizon, samples, RngSeed(seed), streams
                        )
                        row.update(target=target, horizon=horizon, streams=streams)
                    else:
                        est = definetti_estimator(config, samples, RngSeed(seed))
                    row.update(
                        value=render_decimal(est.p_hat), samples=samples, seed=seed,
                        std_err=render_decimal(est.std_err),
                        ci_lo=render_decimal(est.ci95[0]), ci_hi=render_decimal(est.ci95[1]),
                    )
                rows.append({c: row[c] for c in _COLUMNS if c in row})
    return rows


def _library_text(sweep: dict) -> str:
    """``sweep``'s stdout as the stdlib's ``csv.writer`` and ``json.dumps`` render it."""
    return _stdlib_text(_library_rows(sweep), sweep["fmt"])


def _stdlib_text(rows: list[dict], fmt: str) -> str:
    """Rows given as their set fields, as ``csv.writer``, ``json.dumps`` or
    ``key=value`` lines render them."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_COLUMNS)
        writer.writerows([row.get(c) for c in _COLUMNS] for row in rows)
        return buf.getvalue()
    if fmt == "json":
        return json.dumps({"records": rows}, indent=2) + "\n"
    return "".join(" ".join(f"{k}={v}" for k, v in row.items()) + "\n" for row in rows)


def _sweep_stdout(sweep: dict) -> str:
    """``sweep`` run through the CLI in this process; its stdout."""
    argv = [
        "sweep",
        "--b-range", "{}:{}".format(*sweep["b_range"]),
        "--w-range", "{}:{}".format(*sweep["w_range"]),
        "--methods", ",".join(sweep["methods"]),
        "--format", sweep["fmt"],
        *(f"--{k}={sweep[k]}" for k in ("target", "horizon", "samples", "seed", "streams")),
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0
    return out.getvalue()


def _assert_same_text(got: str, want: str) -> None:
    """Fail at the first line where ``got`` and ``want`` differ: pytest's diff
    of two long texts takes minutes."""
    if got != want:
        pairs = zip(got.splitlines(), want.splitlines())
        line, (ours, theirs) = next(
            ((i, pair) for i, pair in enumerate(pairs) if pair[0] != pair[1]), (None, ("", ""))
        )
        pytest.fail(f"{len(got)} chars, not {len(want)}; line {line}: {ours!r}, not {theirs!r}")


@st.composite
def _sweeps(draw) -> dict:
    """A small sweep with at least one pair: b up to 40, a random subset of
    the methods in random order, dp at a short horizon, and the estimators
    with a fixed seed and a few samples."""
    b_hi = draw(st.integers(2, 40))
    b_lo = draw(st.integers(max(1, b_hi - 12), b_hi))
    w_lo = draw(st.integers(1, b_hi - 1))  # so (b_hi, w_lo) is a pair
    methods = draw(st.lists(st.sampled_from(_METHOD_NAMES), min_size=1, max_size=5, unique=True))
    return {
        "b_range": (b_lo, b_hi),
        "w_range": (w_lo, draw(st.integers(w_lo, w_lo + 12))),
        "methods": methods,
        # the de Finetti estimator answers target 0 only
        "target": 0 if "definetti" in methods else draw(st.integers(-3, 3)),
        "horizon": draw(st.integers(0, 12)),
        "samples": draw(st.integers(1, 40)),
        "seed": draw(st.integers(0, 2**32)),
        "streams": draw(st.integers(1, 3)),
        "fmt": draw(st.sampled_from(["csv", "json", "text"])),
    }


class TestSweepOracle:
    @given(sweep=_sweeps())
    @example(sweep={
        "b_range": (2, 40), "w_range": (1, 13), "fmt": "csv",
        "methods": ["exact", "binomial", "complement", "normal", "chernoff"],
        "target": 0, "horizon": 200, "samples": 100_000, "seed": 0, "streams": 1,
    })
    @settings(max_examples=40, deadline=None)
    def test_sweep_rows_are_the_library_values(self, sweep):
        """Every row of a sweep, in every format, is what the stdlib writers
        render from the library's values and decimals, none of the CLI's rows
        or ``output``'s renderers in between."""
        _assert_same_text(_sweep_stdout(sweep), _library_text(sweep))


def _command_rows(command: dict) -> list[dict]:
    """The set fields of each row that the single-record ``command`` prints,
    from the library's values and decimals alone; notes are literal strings."""
    config = UrnConfig(command["b"], command["w"])
    b, w, name = config.black, config.white, command["name"]
    target, horizon, samples, seed, streams = (
        command.get(k) for k in ("target", "horizon", "samples", "seed", "streams")
    )
    exact = equalization_probability(config)
    rows = []
    if name == "exact":
        forms = {
            "exact": equalization_probability,
            "binomial": equalization_probability_binomial,
            "complement": equalization_probability_complement,
        }
        form = command["form"]
        if form != "all":
            methods = ["exact" if form == "theorem" else form]
        else:
            methods = list(forms) if b > w else ["exact"]
        notes = {
            "exact": "triple identity verified" if len(methods) == 3
            else "starts equal: equalized at step 0 by convention" if b == w
            else f"black < white: value taken from the color-swapped urn ({w}, {b})" if b < w
            else None,
            "binomial": f"head sum, {w} term(s)",
            "complement": f"complement sum, {b - w} term(s)",
        }
        for method in methods:
            value = forms[method](config).value
            rows.append({
                "method": method, "value": render_decimal(value), "exact": rational_str(value),
                "note": notes[method],
            })
    elif name == "dp":
        cumulative = first_passage_dp(config, target, horizon).cumulative
        rows.append({
            "method": "dp", "value": render_decimal(cumulative), "exact": rational_str(cumulative),
            "target": target, "horizon": horizon, "note": "cumulative P(tau <= horizon)",
        })
    elif name == "approx":
        methods = ("normal", "chernoff") if command["method"] == "all" else (command["method"],)
        for method in methods:
            approximation = normal_approximation if method == "normal" else chernoff_bound
            result = approximation(config, exact)
            note = "guaranteed upper bound" if method == "chernoff" else "approximation"
            if result.rel_error is not None:
                note += f"; rel_error={render_decimal(result.rel_error)}"
            rows.append({
                "method": method, "value": render_decimal(result.value),
                "reference": render_decimal(exact.value), "note": note,
            })
    else:
        if command["method"] == "direct":
            est = estimate_equalization(config, target, horizon, samples, RngSeed(seed), streams)
            reference = first_passage_dp(config, target, horizon).cumulative
            row = {"method": "mc", "target": target, "horizon": horizon, "streams": streams}
            note = "estimates P(tau <= horizon); reference is the exact DP value"
        else:
            est = definetti_estimator(config, samples, RngSeed(seed))
            reference = exact.value
            row = {"method": "definetti"}
            note = "untruncated estimate of P(tau < infinity); reference is the exact value"
        row.update(
            value=render_decimal(est.p_hat), samples=samples, seed=seed,
            std_err=render_decimal(est.std_err),
            ci_lo=render_decimal(est.ci95[0]), ci_hi=render_decimal(est.ci95[1]),
            reference=render_decimal(reference),
        )
        if est.degenerate:
            note += "; degenerate CI (zero standard error)"
        else:
            row["z_score"] = render_decimal(est.z_score(float(reference)))
        if est.effective_samples < 10:
            note += f"; effective sample size {est.effective_samples:.3g} < 10: out of MC reach"
        rows.append({**row, "note": note})
    return [
        {c: row[c] for c in _COLUMNS if row.get(c) is not None}
        for row in ({"b": b, "w": w, **row} for row in rows)
    ]


@st.composite
def _commands(draw) -> dict:
    """A single-record command on a small urn: ``exact`` in every form, at
    b <= w where the form allows it; ``dp`` at a short horizon and a small
    target; ``approx`` with every method; ``simulate`` with a fixed seed and
    a few samples."""
    name = draw(st.sampled_from(["exact", "dp", "approx", "simulate"]))
    command = {"name": name, "fmt": draw(st.sampled_from(["csv", "json", "text"]))}
    if name == "exact":
        command["form"] = draw(st.sampled_from(["theorem", "binomial", "complement", "all"]))
    elif name == "approx":
        command["method"] = draw(st.sampled_from(["normal", "chernoff", "all"]))
    elif name == "simulate":
        command["method"] = draw(st.sampled_from(["direct", "definetti"]))
        command["samples"] = draw(st.integers(1, 40))
        command["seed"] = draw(st.integers(0, 2**32))
        if command["method"] == "direct":
            command["streams"] = draw(st.integers(1, 3))
    if name in ("dp", "simulate"):
        command["horizon"] = draw(st.integers(0, 12))
        command["target"] = 0 if command.get("method") == "definetti" else draw(st.integers(-3, 3))
    # the sum forms and the approximations need b > w
    if command.get("form") in ("binomial", "complement") or name == "approx":
        command["b"] = draw(st.integers(2, 40))
        command["w"] = draw(st.integers(1, command["b"] - 1))
    else:
        command["b"], command["w"] = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    return command


def _command_stdout(command: dict) -> str:
    """``command`` run through the CLI in this process; its stdout."""
    options = {("format" if k == "fmt" else k): v for k, v in command.items() if k != "name"}
    argv = [command["name"], *(f"--{k}={v}" for k, v in options.items())]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0
    return out.getvalue()


class TestCommandOracle:
    @given(command=_commands())
    @example(command={"name": "exact", "form": "all", "b": 7, "w": 3, "fmt": "csv"})
    @example(command={"name": "exact", "form": "all", "b": 3, "w": 3, "fmt": "text"})
    @example(command={"name": "exact", "form": "theorem", "b": 2, "w": 5, "fmt": "json"})
    @example(command={"name": "exact", "form": "theorem", "b": 7, "w": 3, "fmt": "text"})
    @example(command={"name": "dp", "b": 5, "w": 3, "target": -1, "horizon": 9, "fmt": "csv"})
    @example(command={"name": "approx", "method": "all", "b": 9, "w": 4, "fmt": "json"})
    @example(command={
        "name": "simulate", "method": "direct", "b": 5, "w": 3, "target": 0, "horizon": 12,
        "samples": 40, "seed": 7, "streams": 2, "fmt": "text",
    })
    @example(command={
        "name": "simulate", "method": "definetti", "b": 5, "w": 3, "target": 0, "horizon": 0,
        "samples": 1, "seed": 0, "fmt": "csv",
    })
    @settings(max_examples=60, deadline=None)
    def test_command_rows_are_the_library_values(self, command):
        """The rows of ``exact``, ``dp``, ``approx`` and ``simulate``, in every
        format, are what the stdlib writers render from the library's values
        and decimals, none of the CLI's rows or ``output``'s renderers in between."""
        want = _stdlib_text(_command_rows(command), command["fmt"])
        _assert_same_text(_command_stdout(command), want)


class TestSplitSweep:
    """A sweep over its estimate's floor splits its b range across the CPUs in
    its affinity mask; its output is the same as in one process, byte for byte."""

    @pytest.fixture
    def forks(self, monkeypatch):
        """Split every sweep across three processes, and list the workers forked."""
        assert split._threads() == 1, "a sweep splits only in a single-threaded process"
        monkeypatch.setattr(split, "SPLIT_FLOOR", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        forked = []

        def fork(fork=os.fork):
            pid = fork()
            if pid:
                forked.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", fork)
        return forked

    @staticmethod
    def _one_process(capsys, argv):
        """The sweep's code, stdout and stderr with one CPU in its affinity mask."""
        real = os.sched_getaffinity
        os.sched_getaffinity = lambda pid: {0}
        try:
            return run_cli(capsys, *argv)
        finally:
            os.sched_getaffinity = real

    @pytest.mark.parametrize("fmt", ["csv", "json", "text"])
    @pytest.mark.parametrize("slice_bytes", [1, 4096, 256 * 1024])
    @pytest.mark.parametrize(
        "ranges",
        [
            ("2:40", "1:30"),
            # w_lo > 1 and b_lo inside the w range: columns start mid-range in every slice
            ("9:33", "4:20"),
        ],
    )
    def test_split_output_is_byte_identical(
        self, capsys, monkeypatch, forks, fmt, slice_bytes, ranges
    ):
        argv = [
            "sweep", "--b-range", ranges[0], "--w-range", ranges[1],
            "--methods", "exact,binomial,complement,normal,chernoff", "--format", fmt,
        ]
        expected = self._one_process(capsys, argv)
        assert not forks
        monkeypatch.setattr(split, "SLICE_BYTES", slice_bytes)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            shared = run_cli(capsys, *argv)
            gc.collect()  # an unclosed pipe warns when it is collected
        assert shared == expected and expected[0] == 0
        assert len(forks) == 2
        assert caught == []

    def test_slices_cut_inside_w_columns(self):
        """Every slice after the first starts inside a w column, which the
        slice's own walk starts again from its first b."""
        slices = split.cut((9, 33), (4, 20), split.pair_count((9, 33), (4, 20)), 6)
        assert len(slices) == 6
        # (lo - 1, 4) and (lo, 4) are both pairs: column 4 crosses the cut
        assert all(lo - 1 > 4 for lo, _ in slices[1:])

    def test_output_file_is_byte_identical(self, capsys, tmp_path, forks):
        argv = ["sweep", "--b-range", "2:30", "--w-range", "1:29", "--methods", "exact,normal"]
        one, shared = tmp_path / "one.csv", tmp_path / "shared.csv"
        assert self._one_process(capsys, [*argv, "--output", str(one)])[:2] == (0, "")
        assert not forks
        assert run_cli(capsys, *argv, "--output", str(shared))[:2] == (0, "")
        assert len(forks) == 2
        assert shared.read_bytes() == one.read_bytes()

    def test_monte_carlo_rows_do_not_depend_on_the_cpu_count(self, capsys, monkeypatch, forks):
        """Each pair's estimates depend only on the parameters, the seed and the
        streams, so which process draws them does not change a byte."""
        monkeypatch.setattr(split, "SLICE_BYTES", 1)
        argv = [
            "sweep", "--b-range", "2:9", "--w-range", "1:6",
            "--methods", "exact,normal,mc,definetti", "--seed", "11",
            "--samples", "60", "--horizon", "12", "--streams", "2",
        ]
        for fmt in ("csv", "json"):
            expected = self._one_process(capsys, [*argv, "--format", fmt])
            forks.clear()
            assert run_cli(capsys, *argv, "--format", fmt) == expected
            assert len(forks) == 2

    @given(
        b_range=st.tuples(st.integers(1, 40), st.integers(0, 40)).map(
            lambda t: (t[0], t[0] + t[1])
        ),
        w_range=st.tuples(st.integers(1, 40), st.integers(0, 40)).map(
            lambda t: (t[0], t[0] + t[1])
        ),
        pieces=st.integers(1, 50),
    )
    @settings(max_examples=200, deadline=None)
    def test_slices_cover_the_range_in_about_equal_pair_counts(self, b_range, w_range, pieces):
        count = split.pair_count(b_range, w_range)
        if not count:
            return
        slices = split.cut(b_range, w_range, count, pieces)
        assert 1 <= len(slices) <= pieces
        assert slices[0][0] == b_range[0] and slices[-1][1] == b_range[1]
        assert all(hi + 1 == lo for (_, hi), (lo, _) in zip(slices, slices[1:]))
        counts = [split.pair_count(s, w_range) for s in slices]
        assert sum(counts) == count and min(counts) >= 1
        # no more slices than b values with pairs; a slice ends at the first b
        # that reaches its share, so it overshoots by less than one b's pairs
        shares = min(pieces, b_range[1] - max(b_range[0], w_range[0] + 1) + 1)
        widest = w_range[1] - w_range[0] + 1
        assert max(counts) < -(-count // shares) + widest

    def test_first_pair_refusal_comes_before_any_byte_or_fork(self, capsys, forks):
        code, out, err = run_cli(
            capsys,
            "sweep", "--b-range", "2:30", "--w-range", "1:29", "--methods", "exact,definetti",
            "--target", "1", "--samples", "10",
        )
        assert (code, out, forks) == (2, "", [])
        assert err.splitlines()[-1] == "error: the de Finetti estimator targets 0 only, got --target 1"

    def _failing(self, monkeypatch, at_b, fail):
        """Make the normal row of every pair with b == at_b call ``fail``."""
        row = cli.METHODS["normal"]

        def failing(config, *args):
            if config.black == at_b:
                fail()
            return row(config, *args)

        monkeypatch.setitem(cli.METHODS, "normal", failing)
        monkeypatch.setattr(split, "SLICE_BYTES", 1)  # as many slices as b values

    def _assert_stopped_cleanly(self, capsys, argv, code, out, err, message):
        expected = self._one_process(capsys, argv)[1]
        assert code == 2
        assert re.fullmatch(message + "\n", err)
        # the rows written are the first rows of the whole sweep, none twice
        assert expected.startswith(out) and len(out) < len(expected)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    # one pair a b, so that with one b a slice, b = 2 + k in slice k
    _ARGV = ("sweep", "--b-range", "2:20", "--w-range", "1:1", "--methods", "exact,normal")

    def test_worker_that_raises_stops_the_sweep(self, capsys, monkeypatch, forks):
        def fail():
            raise ZeroDivisionError("row")

        self._failing(monkeypatch, 3, fail)  # slice 1, the first worker's
        code, out, err = run_cli(capsys, *self._ARGV)
        assert len(forks) == 2
        monkeypatch.undo()
        self._assert_stopped_cleanly(
            capsys, self._ARGV, code, out, err,
            r"error: sweep worker for b 3:3 failed: ZeroDivisionError\('row'\)",
        )
        assert out.splitlines()[-1].startswith("2,1,normal,")

    def test_worker_killed_stops_the_sweep(self, capsys, monkeypatch, forks):
        self._failing(monkeypatch, 7, lambda: os.kill(os.getpid(), signal.SIGKILL))  # slice 5
        code, out, err = run_cli(capsys, *self._ARGV)
        assert len(forks) == 2
        monkeypatch.undo()
        self._assert_stopped_cleanly(
            capsys, self._ARGV, code, out, err,
            rf"error: sweep worker for b 7:7 was killed by signal {int(signal.SIGKILL)} "
            "before sending its rows",
        )
        assert out.splitlines()[-1].startswith("6,1,normal,")

    def test_parent_failure_kills_and_reaps_every_worker(self, capsys, monkeypatch, forks):
        def fail():
            raise cli.DomainError("late")

        self._failing(monkeypatch, 5, fail)  # slice 3, this process's own
        code, out, err = run_cli(capsys, *self._ARGV)
        assert len(forks) == 2
        monkeypatch.undo()
        self._assert_stopped_cleanly(capsys, self._ARGV, code, out, err, "error: late")

    def test_closed_stdout_stops_quietly_and_reaps_every_worker(self, forks):
        read_fd, write_fd = os.pipe()
        os.close(read_fd)
        stdout = open(write_fd, "w")
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                assert main(list(self._ARGV)) == 0
        finally:
            stdout.close()
        assert len(forks) == 2
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    # over the floor: split on a host with more than one CPU
    _LARGE = ("sweep", "--b-range", "2:160", "--w-range", "1:159", "--methods", "exact,normal")

    @pytest.mark.parametrize(
        "work, cpus, expected",
        [(0, 4, 1), (split.SPLIT_FLOOR - 1, 4, 1), (split.SPLIT_FLOOR, 4, 4), (10**12, 4, 4),
         (10**12, 1, 1)],
    )
    def test_every_cpu_from_the_floor_on(self, monkeypatch, work, cpus, expected):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        assert split.processes(work) == expected

    def test_large_sweep_is_over_the_floor(self):
        args = cli.build_parser().parse_args(self._LARGE)
        largest = cli.UrnConfig(160, 159)
        sizes = (args.horizon, args.samples, args.streams, split.pair_count((2, 160), (1, 159)))
        work = sum(cli.cost.estimate(m, largest, *sizes) for m in ("exact", "normal"))
        assert work >= split.SPLIT_FLOOR

    def test_dp_sweep_runs_in_one_process(self, capsys, forks):
        """dp's memory budget bounds one process, so no worker runs dp beside it."""
        argv = ["sweep", "--b-range", "2:30", "--w-range", "1:29", "--methods", "exact,dp",
                "--horizon", "12"]
        assert run_cli(capsys, *argv) == self._one_process(capsys, argv)
        assert forks == []

    def test_another_thread_keeps_the_sweep_in_one_process(self, capsys, forks):
        """A forked worker would inherit the locks another thread holds."""
        argv = ["sweep", "--b-range", "2:30", "--w-range", "1:29", "--methods", "exact,normal"]
        expected = self._one_process(capsys, argv)
        done = threading.Event()
        waiting = threading.Thread(target=done.wait)
        waiting.start()
        try:
            assert run_cli(capsys, *argv) == expected
        finally:
            done.set()
            waiting.join()
        assert forks == []

    def test_numpy_blas_threads_keep_the_sweep_in_one_process(self):
        """With numpy loaded first, and its BLAS pool as many threads as it
        starts, a sweep over the floor writes the same bytes, forks only in a
        single-threaded process, and warns of nothing (from Python 3.12
        ``os.fork`` warns in a process with more than one thread)."""
        script = (
            "import os, sys, numpy\n"
            "from polya_urn import cli, split\n"
            "split.SPLIT_FLOOR = 1\n"
            "threads, forks, fork = split._threads(), [], os.fork\n"
            "os.fork = lambda: forks.append(1) or fork()\n"
            "code = cli.main(sys.argv[1:])\n"
            "print(threads, len(forks), code, file=sys.stderr)\n"
        )
        argv = ["sweep", "--b-range", "2:60", "--w-range", "1:59", "--methods", "exact,mc",
                "--samples", "5", "--horizon", "4", "--seed", "3"]
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        run = subprocess.run(
            [sys.executable, "-W", "error", "-c", script, *argv],
            capture_output=True, env=env, check=True,
        )
        plain = subprocess.run(
            [sys.executable, "-m", "polya_urn.cli", *argv], capture_output=True, check=True
        )
        *notes, last = run.stderr.decode().splitlines()
        threads, forks, code = map(int, last.split())
        assert (code, forks) == (0, 0 if threads > 1 else len(os.sched_getaffinity(0)) - 1)
        assert run.stdout == plain.stdout and "\n".join(notes) + "\n" == plain.stderr.decode()

    @pytest.mark.parametrize("after_fork", [False, True])
    def test_fork_that_raises_reaps_the_child_it_made(self, capsys, monkeypatch, after_fork):
        """``os.fork`` may raise after it made the child, as from Python 3.12 its
        multi-threaded warning does under ``-W error``: the child is reaped, and
        the sweep exits 2 with one line, before any byte."""
        monkeypatch.setattr(split, "SPLIT_FLOOR", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

        def fork(fork=os.fork):
            if not after_fork:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            if fork():
                raise DeprecationWarning("multi-threaded")
            return 0

        monkeypatch.setattr(os, "fork", fork)
        code, out, err = run_cli(capsys, *self._ARGV)
        reason = "multi-threaded" if after_fork else r"\[Errno 11\] Resource temporarily unavailable"
        assert (code, out) == (2, "")
        assert re.fullmatch(rf"error: cannot start a sweep worker: {reason}\n", err)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(not shutil.which("taskset"), reason="needs taskset")
    def test_one_cpu_and_every_cpu_write_the_same_bytes(self):
        """The CLI as installed: ``taskset -c 0`` runs the sweep in one process."""
        argv = [sys.executable, "-m", "polya_urn.cli", *self._LARGE, "--format", "json"]
        one = subprocess.run(["taskset", "-c", "0", *argv], capture_output=True, check=True)
        every = subprocess.run(argv, capture_output=True, check=True)
        assert every.stdout == one.stdout and every.stderr == one.stderr

    def test_head_of_a_split_sweep_exits_zero(self):
        """``sweep ... | head -1`` over the floor: the sweep splits on a host with
        more than one CPU, and still stops with exit 0 and one stderr line."""
        argv = list(self._LARGE)
        with subprocess.Popen(
            [sys.executable, "-m", "polya_urn.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        ) as sweep:
            with subprocess.Popen(["head", "-1"], stdin=sweep.stdout, stdout=subprocess.PIPE) as head:
                sweep.stdout.close()  # head alone reads the rows
                first = head.stdout.read()
            err = sweep.stderr.read().decode()
        assert (sweep.returncode, head.returncode) == (0, 0)
        assert first == (",".join(output.CSV_COLUMNS) + "\n").encode()
        assert err == "# skipped 12561 (b, w) pair(s): sweep requires w < b\n"

    @given(sweep=_sweeps())
    @example(sweep={
        "b_range": (28, 40), "w_range": (5, 17), "fmt": "json",
        "methods": ["mc", "exact", "definetti", "chernoff"],
        "target": 0, "horizon": 9, "samples": 30, "seed": 5, "streams": 2,
    })
    @settings(
        max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_split_sweep_rows_are_the_library_values(self, monkeypatch, forks, sweep):
        """The library oracle of ``TestSweepOracle``, with the sweep split
        across three processes, one slice a b value."""
        monkeypatch.setattr(split, "SLICE_BYTES", 1)
        forks.clear()
        _assert_same_text(_sweep_stdout(sweep), _library_text(sweep))
        # with a byte a slice, as many slices as ``cut`` makes at most
        count = split.pair_count(sweep["b_range"], sweep["w_range"])
        slices = split.cut(sweep["b_range"], sweep["w_range"], count, count)
        assert len(forks) == (0 if "dp" in sweep["methods"] else min(3, len(slices)) - 1)


class TestIdentityCheck:
    def test_passes_and_reports_pair_count(self, capsys):
        code, out, _ = run_cli(capsys, "identity-check", "--max-total", "60")
        assert code == 0
        assert "870 pairs" in out

    @pytest.mark.parametrize("max_total", ["1", "2"])
    def test_grid_without_pairs_is_usage_error(self, capsys, max_total):
        code, out, err = run_cli(capsys, "identity-check", "--max-total", max_total)
        assert code == 2
        assert out == ""
        assert err == f"error: --max-total must be >= 3, got {max_total}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("identity-check", "--max-total", "8"),
            ("exact", "--b", "5", "--w", "2", "--form", "all"),
        ],
    )
    def test_mismatch_exits_one(self, capsys, monkeypatch, argv):
        def halved_head_sum(config):
            p = equalization_probability_binomial(config).value
            return ExactProbability(p * Fraction(1, 2))

        monkeypatch.setattr(cli, "equalization_probability_binomial", halved_head_sum)
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert "method=" not in out
        assert "MISMATCH b=5 w=2" in err


_FORMATS = ("text", "csv", "json")
_MC_OPTIONS = [("--target",), ("--horizon",), ("--samples",), ("--seed",), ("--streams",)]
# every option of every subcommand, with its choices: adding one must edit this list
_OPTIONS = {
    "exact": [
        ("--b",), ("--w",), ("--form", ("theorem", "binomial", "complement", "all")),
        ("--format", _FORMATS), ("--output",),
    ],
    "dp": [
        ("--b",), ("--w",), ("--target",), ("--horizon",), ("--emit-pmf",),
        ("--format", _FORMATS), ("--output",),
    ],
    "simulate": [
        ("--b",), ("--w",), *_MC_OPTIONS, ("--method", ("direct", "definetti")),
        ("--format", _FORMATS), ("--output",),
    ],
    "approx": [
        ("--b",), ("--w",), ("--method", ("normal", "chernoff", "all")),
        ("--format", _FORMATS), ("--output",),
    ],
    "sweep": [
        ("--b-range",), ("--w-range",), ("--methods",), *_MC_OPTIONS,
        ("--format", _FORMATS), ("--output",),
    ],
    "identity-check": [("--max-total",)],
}


def test_no_option_is_added():
    """Compares the parser's options, not ``--help`` text, whose layout varies with
    the Python version and the terminal width."""

    def options(parser):
        return [
            (*action.option_strings, *([tuple(action.choices)] if action.choices else []))
            for action in parser._actions
            if action.option_strings and action.dest != "help"
        ]

    parser = cli.build_parser()
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert options(parser) == []
    assert {name: options(sub) for name, sub in commands.choices.items()} == _OPTIONS
    # the names ``sweep --methods`` accepts
    assert list(cli.METHODS) == [
        "exact", "binomial", "complement", "dp", "mc", "definetti", "normal", "chernoff",
    ]


_FORMS = (
    "equalization_probability",
    "equalization_probability_binomial",
    "equalization_probability_complement",
)


@pytest.mark.parametrize(
    "argv, calls",
    [
        (("exact", "--b", "7", "--w", "3"), (1, 0, 0)),
        (("exact", "--b", "7", "--w", "3", "--form", "all"), (1, 1, 1)),
        (("approx", "--b", "7", "--w", "3", "--method", "all"), (1, 0, 0)),
        (("simulate", "--b", "7", "--w", "3", "--method", "definetti", "--samples", "9"),
         (1, 0, 0)),
        # (12 - 1)^2 // 4 = 30 pairs
        (("identity-check", "--max-total", "12"), (30, 30, 30)),
    ],
    ids=["exact", "exact-all", "approx-all", "simulate-definetti", "identity-check"],
)
def test_each_closed_form_is_evaluated_at_most_once_per_pair(capsys, monkeypatch, argv, calls):
    """A command evaluates a closed form only where it prints or checks it;
    ``sweep`` evaluates none (``test_closed_forms_come_from_the_column_recurrence``)."""
    counts = dict.fromkeys(_FORMS, 0)

    def counted(name):
        form = getattr(cli, name)

        def call(config):
            counts[name] += 1
            return form(config)

        return call

    for name in _FORMS:
        monkeypatch.setattr(cli, name, counted(name))
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    assert tuple(counts.values()) == calls


class TestOutputHygiene:
    def test_data_on_stdout_only(self, capsys):
        _, out, err = run_cli(capsys, "exact", "--b", "4", "--w", "1")
        assert out and not err

    def test_output_flag_writes_file(self, capsys, tmp_path):
        target = tmp_path / "out.csv"
        code, out, _ = run_cli(
            capsys,
            "exact", "--b", "3", "--w", "1", "--format", "csv", "--output", str(target),
        )
        assert code == 0 and out == ""
        rows = list(csv.DictReader(io.StringIO(target.read_text())))
        assert rows[0]["exact"] == "1/4"

    def test_reader_closing_stdout_early_stops_quietly(self):
        """``sweep ... | head``: once nobody reads the streamed rows, exit 0 without a traceback."""
        argv = ["sweep", "--b-range", "2:80", "--w-range", "1:79"]
        with subprocess.Popen(
            [sys.executable, "-m", "polya_urn.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        ) as proc:
            assert proc.stdout.readline().startswith(b"b,w,method,")
            proc.stdout.close()  # about 270 kB of rows are still to come
            err = proc.stderr.read().decode()
        assert proc.returncode == 0
        assert err == "# skipped 3081 (b, w) pair(s): sweep requires w < b\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize(
        "argv",
        [
            ("exact", "--b", "3", "--w", "2"),
            ("dp", "--b", "3", "--w", "2", "--horizon", "5"),
            ("dp", "--b", "3", "--w", "2", "--horizon", "5", "--emit-pmf"),
            ("simulate", "--b", "3", "--w", "2", "--samples", "10"),
            ("approx", "--b", "3", "--w", "2"),
            ("sweep", "--b-range", "5:8", "--w-range", "1:4"),
            # about 240 kB of rows, so writes fail while rows still stream
            ("sweep", "--b-range", "41:80", "--w-range", "1:40", "--methods", "exact,normal"),
            ("identity-check", "--max-total", "10"),
        ],
    )
    def test_stdout_write_error_is_usage_error(self, argv):
        """A stdout that cannot be written (a full disk) exits 2 with one line, like --output."""
        # buffered, so that a short output fails only when it is flushed
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "polya_urn.cli", *argv],
                stdout=full, stderr=subprocess.PIPE, env=env,
            )
        err = proc.stderr.decode()
        assert proc.returncode == 2, err
        assert err.startswith("error: stdout: ") and err.count("\n") == 1, err
        assert "Traceback" not in err and "Exception ignored" not in err

    def test_output_to_missing_directory_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.csv"
        for argv in (
            ("exact", "--b", "3", "--w", "2"),
            # sweep streams its rows into the file it opens
            ("sweep", "--b-range", "9:12", "--w-range", "1:8", "--methods", "exact,normal"),
        ):
            code, out, err = run_cli(capsys, *argv, "--output", str(target))
            assert code == 2 and out == ""
            assert err.startswith("error: --output: ") and err.count("\n") == 1
            assert not target.exists()
