import json
import math
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

from permutent import cli
from permutent.cli import main
from permutent.combinatorics import composition_count

from _schema import assert_valid

SCHEMA_DIR = Path(__file__).parent.parent / "src/permutent/schemas"
SPECTRUM_SCHEMA = json.loads((SCHEMA_DIR / "spectrum.schema.json").read_text())
REPORT_SCHEMA = json.loads((SCHEMA_DIR / "entropy_report.schema.json").read_text())
VERIFY_SCHEMA = json.loads((SCHEMA_DIR / "verify_report.schema.json").read_text())


@pytest.fixture
def runner():
    return CliRunner()


def run_ok(runner, args, **kwargs):
    result = runner.invoke(main, args, **kwargs)
    assert result.exit_code == 0, result.output
    return result


class TestSpectrumCommand:
    def test_worked_case_json(self, runner, tmp_path):
        out = tmp_path / "spectrum.json"
        run_ok(runner, ["spectrum", "--L", "4", "--d", "2", "--occ", "2,2", "--n", "2",
                        "--format", "json", "--out", str(out)])
        payload = json.loads(out.read_text())
        assert_valid(payload, SPECTRUM_SCHEMA)
        weights = [Fraction(rec["weight"]) for rec in payload["entries"]]
        assert sum(weights) == 1
        assert sorted(weights) == [Fraction(1, 6), Fraction(1, 6), Fraction(2, 3)]

    def test_thermo_single_site(self, runner):
        result = run_ok(runner, ["spectrum", "--L", "inf", "--d", "3",
                                 "--dens", "1/3,1/3,1/3", "--n", "1"])
        payload = json.loads(result.stdout)
        assert payload["header"]["L"] == "inf"
        assert [rec["weight"] for rec in payload["entries"]] == ["1/3"] * 3

    def test_block_too_large_fails_validation(self, runner):
        result = runner.invoke(main, ["spectrum", "--L", "4", "--d", "2", "--occ", "2,2",
                                      "--n", "9"])
        assert result.exit_code == 1
        assert "n exceeds L" in result.output

    def test_csv_format(self, runner):
        result = run_ok(runner, ["spectrum", "--occ", "2,2", "--n", "2", "--format", "csv"])
        lines = result.stdout.strip().splitlines()
        assert lines[0] == "composition,log2_weight,weight"
        assert len(lines) == 4
        assert lines[1].startswith("0;2,")

    def test_uniform_flag(self, runner):
        result = run_ok(runner, ["spectrum", "--uniform", "--d", "2", "--n", "2"])
        payload = json.loads(result.stdout)
        assert payload["header"]["source"] == "uniform-mixed"
        assert [rec["weight"] for rec in payload["entries"]] == ["1/3"] * 3

    @pytest.mark.parametrize(
        "flag", [["--cutoff", "0.5"], ["--exact"], ["--no-exact"]], ids=["cutoff", "exact", "no-exact"]
    )
    def test_uniform_rejects_sector_flags(self, runner, flag):
        result = runner.invoke(main, ["spectrum", "--uniform", "--d", "2", "--n", "2", *flag])
        assert result.exit_code == 1
        assert "--uniform takes only --d and --n" in result.output

    def test_conflicting_flags(self, runner):
        result = runner.invoke(main, ["spectrum", "--occ", "2,2", "--dens", "1/2,1/2",
                                      "--n", "1"])
        assert result.exit_code == 1
        result = runner.invoke(main, ["spectrum", "--L", "5", "--occ", "2,2", "--n", "1"])
        assert result.exit_code == 1
        result = runner.invoke(main, ["spectrum", "--L", "inf", "--d", "2",
                                      "--dens", "1/2,1/3", "--n", "1"])
        assert result.exit_code == 1

    def test_cutoff_rejected_for_finite(self, runner):
        for cutoff in ("1e-6", "-1"):
            result = runner.invoke(main, ["spectrum", "--occ", "2,2", "--n", "1",
                                          "--cutoff", cutoff])
            assert result.exit_code == 1

    @pytest.mark.parametrize("cutoff", ["0.1", "2", "inf", "nan"])
    def test_cutoff_outside_range_exits_1(self, runner, cutoff):
        result = runner.invoke(main, ["spectrum", "--L", "inf", "--dens", "1/2,1/2", "--n", "4",
                                      "--cutoff", cutoff])
        assert result.exit_code == 1
        assert result.stderr.startswith("error: cutoff must lie in [0, 0.1)")
        assert result.stdout == ""

    def test_denominator_past_the_digit_limit_exits_3(self, runner, monkeypatch):
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300, raising=False)
        result = runner.invoke(main, ["spectrum", "--occ", "7200,7200", "--n", "7200", "--exact"])
        assert result.exit_code == 3
        assert "4300 decimal digits" in result.stderr

    def test_oversized_support_is_a_resource_error(self, runner):
        # composition_count(2500, (1000,) * 5) is about 6.0e11
        result = runner.invoke(main, ["spectrum", "--occ", "1000,1000,1000,1000,1000",
                                      "--n", "2500"])
        assert result.exit_code == 3
        assert "exceeds guard" in result.output

    def test_summary_reads_each_weight_once(self, runner, monkeypatch, conversion_counter):
        build = cli.exact_spectrum
        monkeypatch.setattr(
            cli, "exact_spectrum", lambda *args, **kw: conversion_counter.wrap(build(*args, **kw))
        )
        result = run_ok(runner, ["spectrum", "--occ", "6,5,4", "--n", "7", "--format", "csv"])
        support = len(result.stdout.strip().splitlines()) - 1
        assert support == composition_count(7, (6, 5, 4))
        assert conversion_counter.conversions == support
        assert f"support {support}  " in result.stderr


class TestEntropyCommand:
    def test_report_fields(self, runner):
        result = run_ok(runner, ["entropy", "--occ", "40,40,40", "--n", "60"])
        payload = json.loads(result.stdout)
        assert_valid(payload, REPORT_SCHEMA)
        report = payload["report"]
        # close to C + sigma*log2(2 pi e * 60*60/120) = 6.624 bits
        assert report["exact_bits"] == pytest.approx(6.636, abs=0.05)
        assert report["asymptotic_bits"] is not None
        assert report["exact_bits"] <= report["sup_bound_bits"]

    def test_nats_formatting(self, runner):
        bits = json.loads(run_ok(runner, ["entropy", "--occ", "5,5", "--n", "5"]).stdout)
        nats = json.loads(
            run_ok(runner, ["entropy", "--occ", "5,5", "--n", "5", "--units", "nats"]).stdout
        )
        assert_valid(nats, REPORT_SCHEMA)
        assert nats["report"]["exact_nats"] == pytest.approx(
            bits["report"]["exact_bits"] * math.log(2.0), abs=1e-12
        )

    def test_block_too_large_fails_validation(self, runner):
        result = runner.invoke(main, ["entropy", "--occ", "3,3", "--n", "7"])
        assert result.exit_code == 1
        assert "n exceeds L" in result.output


class TestSweepCommand:
    def test_csv_shape(self, runner, tmp_path):
        out = tmp_path / "sweep.csv"
        run_ok(runner, ["sweep", "--occ", "10,10", "--n-min", "0", "--n-max", "20",
                        "--out", str(out)])
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "L,d,n,occupations,S_exact,S_asym,S_sup,gap"
        assert len(lines) == 22
        first = lines[1].split(",")
        assert first[:5] == ["20", "2", "0", "10;10", "0.0"]
        assert first[5] == ""  # no asymptotic value at n = 0

    def test_singleton_range(self, runner):
        result = run_ok(runner, ["sweep", "--occ", "3,3", "--n-min", "0", "--n-max", "0"])
        lines = result.stdout.strip().splitlines()
        assert len(lines) == 2
        assert lines[1].split(",")[4] == "0.0"

    def test_infinite_sweep(self, runner):
        result = run_ok(runner, ["sweep", "--L", "inf", "--dens", "1/2,1/2",
                                 "--n-min", "2", "--n-max", "6"])
        lines = result.stdout.strip().splitlines()
        assert lines[1].split(",")[0] == "inf"

    def test_validation_errors(self, runner):
        assert runner.invoke(main, ["sweep", "--occ", "3,3", "--n-min", "2",
                                    "--n-max", "9"]).exit_code == 1
        assert runner.invoke(main, ["sweep", "--occ", "3,3", "--n-min", "3",
                                    "--n-max", "2"]).exit_code == 1
        assert runner.invoke(main, ["sweep", "--n-min", "0", "--n-max", "2"]).exit_code == 1

    def test_oversized_range_is_a_resource_error(self, runner):
        result = runner.invoke(main, ["sweep", "--occ", "2,2", "--n-min", "0",
                                      "--n-max", "3000000"])
        assert result.exit_code == 3
        assert result.stderr.startswith("error: 3000001 block sizes exceed guard 100000")

    def test_svg_output(self, runner, tmp_path):
        out = tmp_path / "sweep.svg"
        run_ok(runner, ["sweep", "--occ", "15,15", "--n-min", "0", "--n-max", "30",
                        "--format", "svg", "--out", str(out)])
        root = ET.fromstring(out.read_text())
        assert root.tag.endswith("svg")

    def test_deterministic_bytes(self, runner, tmp_path):
        args = ["sweep", "--occ", "12,12,12", "--n-min", "0", "--n-max", "36"]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        run_ok(runner, args + ["--out", str(first)])
        run_ok(runner, args + ["--out", str(second)])
        assert first.read_bytes() == second.read_bytes()

    def test_symmetric_peak_at_half_filling(self, runner, tmp_path):
        out = tmp_path / "shape.csv"
        run_ok(runner, ["sweep", "--occ", "40,40,40", "--n-min", "0", "--n-max", "120",
                        "--step", "5", "--out", str(out)])
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        entropies = {int(r[2]): float(r[4]) for r in rows}
        assert max(entropies, key=entropies.get) == 60
        for n in (0, 15, 40):
            assert entropies[n] == pytest.approx(entropies[120 - n], abs=1e-9)

    def test_curves_ordered_by_local_spin(self, runner, tmp_path):
        values = {}
        for d in (2, 3, 4, 5):
            out = tmp_path / f"d{d}.csv"
            occ = ",".join([str(120 // d)] * d)
            run_ok(runner, ["sweep", "--occ", occ, "--n-min", "60", "--n-max", "60",
                            "--out", str(out)])
            values[d] = float(out.read_text().strip().splitlines()[1].split(",")[4])
        assert values[2] < values[3] < values[4] < values[5]


class TestCorrectionsCommand:
    def test_csv_values(self, runner):
        result = run_ok(runner, ["corrections", "--L", "60", "--d", "3",
                                 "--n-min", "30", "--n-max", "30"])
        lines = result.stdout.strip().splitlines()
        assert lines[0] == ("n_over_L,delta_per_bits,delta_per_leading_bits,"
                            "delta_cr_bits,delta_cr_leading_bits")
        row = lines[1].split(",")
        assert float(row[0]) == 0.5
        assert float(row[1]) == pytest.approx(-1.0, abs=1e-12)  # sigma = 1 at half filling

    def test_correction_ratio_grows(self, runner):
        result = run_ok(runner, ["corrections", "--L", "1000", "--d", "2",
                                 "--n-min", "10", "--n-max", "200", "--step", "10"])
        rows = [line.split(",") for line in result.stdout.strip().splitlines()[1:]]
        ratios = [float(r[1]) / float(r[3]) for r in rows]
        # the linear-over-quadratic ratio decays as (n/L) grows
        assert ratios[0] > ratios[-1] > 1.0

    def test_validation(self, runner):
        assert runner.invoke(main, ["corrections", "--L", "10", "--d", "2",
                                    "--n-min", "0", "--n-max", "5"]).exit_code == 1
        assert runner.invoke(main, ["corrections", "--L", "10", "--d", "2",
                                    "--n-min", "5", "--n-max", "10"]).exit_code == 1


class TestVerifyCommand:
    def test_small_grid_passes(self, runner, tmp_path):
        out = tmp_path / "verify.json"
        result = run_ok(runner, ["verify", "--d2-max-l", "3", "--d3-max-l", "2",
                                 "--uniform-max-l", "2", "--out", str(out)])
        assert "0 failures" in result.output
        payload = json.loads(out.read_text())
        assert_valid(payload, VERIFY_SCHEMA)
        assert payload["pass"] is True
        assert all(case["pass"] for case in payload["cases"])

    def test_empty_grid_warns(self, runner):
        result = run_ok(runner, ["verify", "--d2-max-l", "0", "--d3-max-l", "0",
                                 "--uniform-max-l", "0"])
        assert "empty verification grid" in result.output
        assert "verified 0 cases" in result.output

    def test_fault_injection_identifies_config(self, runner):
        result = runner.invoke(main, ["verify", "--d2-max-l", "2", "--d3-max-l", "0",
                                      "--uniform-max-l", "0", "--inject-fault", "1e-6"])
        assert result.exit_code == 2
        assert "MISMATCH" in result.output
        assert "'L': 1" in result.output

    def test_resource_guard_exit_code(self, runner):
        result = runner.invoke(main, ["verify", "--d2-max-l", "21"])
        assert result.exit_code == 3


class TestFiguresCommand:
    def test_writes_deterministic_charts(self, runner, tmp_path):
        first = tmp_path / "one"
        second = tmp_path / "two"
        args = ["figures", "--points", "8", "--max-l", "30"]
        run_ok(runner, args + ["--out-dir", str(first)])
        run_ok(runner, args + ["--out-dir", str(second)])
        for name in ("entropy_scaling_d3.svg", "entropy_scaling_by_spin.svg"):
            data = (first / name).read_bytes()
            assert data == (second / name).read_bytes()
            ET.fromstring(data.decode())

    def test_points_validation(self, runner):
        assert runner.invoke(main, ["figures", "--out-dir", "x", "--points", "1"]).exit_code == 1


class TestExitCodes:
    @pytest.mark.parametrize(
        "args",
        [
            ["spectrum", "--occ", "3,3", "--n", "abc"],
            ["verify", "--d2-max-l", "x"],
            ["spectrum", "--occ", "3,3", "--n", "1", "--bogus"],
            ["--bogus", "spectrum"],
            ["bogus"],
        ],
        ids=["bad-int", "bad-verify-int", "unknown-option", "unknown-group-option",
             "unknown-command"],
    )
    def test_usage_errors_exit_1(self, runner, args):
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "Usage:" in result.stderr

    def test_unwritable_out_is_one_error_line(self, runner, tmp_path):
        result = runner.invoke(main, ["spectrum", "--occ", "2,2", "--n", "1",
                                      "--out", str(tmp_path)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize("command", ["entropy", "spectrum"])
    def test_log_factorial_guard_exits_3(self, runner, command):
        result = runner.invoke(main, [command, "--occ", "1000000000,1", "--n", "1"])
        assert result.exit_code == 3
        assert result.output.startswith("error: log-factorial table up to 10000000")

    def test_figures_out_dir_over_a_file(self, runner, tmp_path):
        taken = tmp_path / "file"
        taken.write_text("")
        result = runner.invoke(main, ["figures", "--out-dir", str(taken), "--max-l", "30"])
        assert result.exit_code == 1
        assert result.stderr.startswith("error: ")


def test_version_flag(runner):
    result = run_ok(runner, ["--version"])
    assert "permutent" in result.output
