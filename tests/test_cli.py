"""CLI surface tests: formats, round-trips, exit codes, determinism."""

import csv
import io
import json
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import jsonschema
import pytest

from polya_urn import (
    DPTable,
    ExactProbability,
    UrnConfig,
    cli,
    equalization_probability,
    equalization_probability_binomial,
    first_passage_dp,
)
from polya_urn.cli import main
from polya_urn.output import load_output_schema, parse_rational


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

    def test_pmf_csv_past_the_int_string_limit(self):
        p = Fraction(3, 10**5000)
        table = DPTable(UrnConfig(2, 1), 0, (Fraction(0), p))
        rows = list(csv.DictReader(io.StringIO(cli._pmf_csv(table))))
        assert [r["p_tau_n_num"] for r in rows] == ["0", "3"]
        assert [r["p_tau_n_den"] for r in rows] == ["1", "1" + "0" * 5000]

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

    # Every block below holds at least 2^50 paths (8 PiB of int64), an
    # allocation that fails at once under every overcommit mode, so these
    # tests never touch real memory.
    @pytest.mark.parametrize(
        "samples, streams",
        [(2**50, 1), (2**52, 4), (2**61, 1), (2**63, 1), (2**64 - 1, 1)],
    )
    def test_oversized_samples_is_resource_error(self, capsys, samples, streams):
        code, out, err = run_cli(
            capsys, "simulate", "--b", "5", "--w", "3", "--horizon", "5",
            "--samples", str(samples), "--streams", str(streams),
        )
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: cannot allocate ")

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

    def test_definetti_needs_majority(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--b", "2", "--w", "2", "--method", "definetti"
        )
        assert code == 2
        assert "black > white" in err

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

    def test_empty_effective_range_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--b-range", "2:3", "--w-range", "5:6"
        )
        assert code == 2
        assert "empty effective range" in err

    @pytest.mark.parametrize("samples", [2**50, 2**61, 2**64 - 1])
    def test_oversized_mc_samples_is_resource_error(self, capsys, samples):
        code, out, err = run_cli(
            capsys, "sweep", "--b-range", "2:3", "--w-range", "1:1",
            "--methods", "exact,mc", "--samples", str(samples),
        )
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: cannot allocate ")

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

    def test_output_to_missing_directory_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.csv"
        code, out, err = run_cli(
            capsys, "exact", "--b", "3", "--w", "2", "--output", str(target)
        )
        assert code == 2 and out == ""
        assert err.startswith("error: --output: ") and err.count("\n") == 1
        assert not target.exists()
