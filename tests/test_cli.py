import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import permutent
from permutent import cli, svgplot
from permutent.cli import main
from permutent.combinatorics import composition_count
from permutent.entropy import EntropyReport
from permutent.spectrum import (
    SectorConfig,
    Spectrum,
    exact_spectrum,
    spectrum_to_json_obj,
    thermo_spectrum,
    uniform_mixed_spectrum,
)

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


def assert_chart(text):
    """An SVG document whose numeric attributes are all finite."""
    root = ET.fromstring(text)
    assert root.tag == "{http://www.w3.org/2000/svg}svg"
    for element in root.iter():
        for key, value in element.attrib.items():
            for token in re.split(r"[\s,]+", value.strip()):
                try:
                    number = float(token)
                except ValueError:
                    continue
                assert math.isfinite(number), (element.tag, key, value)


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

    def test_cutoff_dropping_more_than_ten_cutoffs_exits_1(self, runner):
        dens = ",".join(["1/2"] + ["1/4000"] * 2000)
        result = runner.invoke(main, ["spectrum", "--L", "inf", "--dens", dens, "--n", "1",
                                      "--cutoff", "0.001"])
        assert result.exit_code == 1
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: cutoff 0.001 drops 5.000e-01")
        assert result.stdout == ""

    def test_exact_below_the_smallest_float_exits_1(self, runner):
        # a density of 10^-400 rounds to float 0.0, which would drop its level
        big = 10**400
        dens = f"1/{big},{big - 1}/{big}"
        args = ["spectrum", "--L", "inf", "--dens", dens, "--n", "2"]
        result = runner.invoke(main, [*args, "--exact"])
        assert result.exit_code == 1
        assert result.stderr.startswith("error: exact weights need densities summing to exactly 1")
        run_ok(runner, args)  # the automatic choice takes the log domain

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

    def test_thermo_sector_is_checked_once(self, runner, monkeypatch):
        # the validated config goes to thermo_spectrum as it is, not rebuilt from its densities
        checked = []
        check = SectorConfig.__post_init__
        monkeypatch.setattr(SectorConfig, "__post_init__", lambda cfg: checked.append(cfg) or check(cfg))
        run_ok(runner, ["spectrum", "--L", "inf", "--dens", "1/2,1/3,1/6", "--n", "4"])
        assert len(checked) == 1

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


def reference_spectrum_json(spectrum):
    payload = {"generator": f"permutent {permutent.__version__}", **spectrum_to_json_obj(spectrum)}
    return json.dumps(payload, indent=2) + "\n"


def reference_spectrum_csv(spectrum):
    lines = ["composition,log2_weight,weight"]
    for e in spectrum.entries:
        weight = "" if e.weight_exact is None else str(e.weight_exact)
        lines.append(f"{';'.join(map(str, e.parts))},{e.log2_weight!r},{weight}")
    return "\n".join(lines) + "\n"


EXACT_FLAGS = {None: [], True: ["--exact"], False: ["--no-exact"]}

# Sectors whose levels are all equal: compositions that permute each other share weights
SYMMETRIC_SECTORS = [
    pytest.param(["--occ", "6,6,6", "--n", "9"],
                 lambda: exact_spectrum(SectorConfig.finite((6, 6, 6)), 9), id="finite-exact"),
    pytest.param(["--occ", "400,400,400", "--n", "9"],
                 lambda: exact_spectrum(SectorConfig.finite((400,) * 3), 9), id="finite-log"),
    pytest.param(["--L", "inf", "--dens", "1/4,1/4,1/4,1/4", "--n", "6"],
                 lambda: thermo_spectrum([Fraction(1, 4)] * 4, 6), id="thermo-exact"),
    pytest.param(["--uniform", "--d", "3", "--n", "6"],
                 lambda: uniform_mixed_spectrum(6, 3), id="uniform"),
]


class TestSpectrumWriters:
    """Both spectrum writers print exactly the bytes of their plain references."""

    @staticmethod
    def assert_writers_match(args, build):
        runner = CliRunner()
        try:
            spectrum = build()
        except ValueError:
            assert runner.invoke(main, ["spectrum", *args]).exit_code == 1
            return
        as_json = run_ok(runner, ["spectrum", *args])
        assert as_json.stdout == reference_spectrum_json(spectrum)
        as_csv = run_ok(runner, ["spectrum", *args, "--format", "csv"])
        assert as_csv.stdout == reference_spectrum_csv(spectrum)

    @given(st.data())
    @settings(max_examples=60)
    def test_finite_sectors(self, data):
        d = data.draw(st.integers(min_value=2, max_value=4))
        occ = data.draw(
            st.lists(st.integers(min_value=0, max_value=6), min_size=d, max_size=d).filter(any)
        )
        L = sum(occ)
        n = data.draw(st.one_of(st.sampled_from([0, L]), st.integers(min_value=0, max_value=L)))
        exact = data.draw(st.sampled_from(list(EXACT_FLAGS)))
        args = ["--occ", ",".join(map(str, occ)), "--n", str(n), *EXACT_FLAGS[exact]]
        self.assert_writers_match(
            args, lambda: exact_spectrum(SectorConfig.finite(occ), n, exact=exact)
        )

    @given(st.data())
    @settings(max_examples=60)
    def test_thermodynamic_sectors(self, data):
        d = data.draw(st.integers(min_value=2, max_value=4))
        counts = data.draw(
            st.lists(st.integers(min_value=0, max_value=4), min_size=d, max_size=d).filter(any)
        )
        dens = [Fraction(c, sum(counts)) for c in counts]
        n = data.draw(st.integers(min_value=0, max_value=9))
        cutoff = data.draw(st.sampled_from([0.0, 1e-6, 1e-3, 0.05]))
        exact = data.draw(st.sampled_from(list(EXACT_FLAGS)))
        args = ["--L", "inf", "--dens", ",".join(map(str, dens)), "--n", str(n),
                "--cutoff", repr(cutoff), *EXACT_FLAGS[exact]]
        self.assert_writers_match(args, lambda: thermo_spectrum(dens, n, cutoff, exact=exact))

    def test_dropped_mass_in_header(self):
        spectrum = thermo_spectrum([Fraction(1, 2), Fraction(3, 10), Fraction(1, 5)], 30, 1e-6)
        assert spectrum.dropped_mass > 0.0
        self.assert_writers_match(
            ["--L", "inf", "--dens", "1/2,3/10,1/5", "--n", "30", "--cutoff", "1e-6"],
            lambda: spectrum,
        )

    def test_large_denominators(self):
        spectrum = thermo_spectrum([Fraction(1, 3), Fraction(2, 3)], 300)
        assert spectrum.is_exact and spectrum.denominator == 3**300
        self.assert_writers_match(
            ["--L", "inf", "--dens", "1/3,2/3", "--n", "300"], lambda: spectrum
        )

    @given(st.integers(min_value=0, max_value=8), st.integers(min_value=2, max_value=5))
    @settings(max_examples=30)
    def test_uniform_mixture(self, n, d):
        self.assert_writers_match(
            ["--uniform", "--d", str(d), "--n", str(n)], lambda: uniform_mixed_spectrum(n, d)
        )


    @pytest.mark.parametrize(
        "args, build, exact",
        [
            pytest.param(["--occ", "3,0,2,4,1", "--n", "5"],
                         lambda: exact_spectrum(SectorConfig.finite((3, 0, 2, 4, 1)), 5),
                         True, id="finite-d5"),
            pytest.param(["--occ", "2,2,1,3,0,2", "--n", "6", "--no-exact"],
                         lambda: exact_spectrum(SectorConfig.finite((2, 2, 1, 3, 0, 2)), 6,
                                                exact=False),
                         False, id="finite-d6-log"),
            pytest.param(["--L", "inf", "--dens", ",".join(["1/5"] * 5), "--n", "6"],
                         lambda: thermo_spectrum([Fraction(1, 5)] * 5, 6), True, id="inf-d5"),
            pytest.param(["--L", "inf", "--dens", ",".join(["1/6"] * 6), "--n", "5",
                          "--cutoff", "1e-3"],
                         lambda: thermo_spectrum([Fraction(1, 6)] * 6, 5, 1e-3),
                         False, id="inf-d6-cutoff"),
            # L = 351 > EXACT_AUTO_MAX_L, so the default is the log domain
            pytest.param(["--occ", "200,150,1", "--n", "4"],
                         lambda: exact_spectrum(SectorConfig.finite((200, 150, 1)), 4),
                         False, id="finite-past-exact-auto"),
            pytest.param(["--uniform", "--d", "5", "--n", "12"],
                         lambda: uniform_mixed_spectrum(12, 5), True, id="uniform-d5"),
            pytest.param(["--L", "inf", "--dens", "1/4,1/4,1/4,1/4", "--n", "30"],
                         lambda: thermo_spectrum([Fraction(1, 4)] * 4, 30), True,
                         id="inf-5456-rows"),
        ],
    )
    def test_template_edges(self, args, build, exact):
        spectrum = build()
        assert spectrum.is_exact == exact
        assert spectrum.support_size > 1
        self.assert_writers_match(args, lambda: spectrum)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_log2_weight_refused(self, runner, monkeypatch, tmp_path, bad):
        spectrum = Spectrum(np.array([[1, 0], [0, 1]]), np.array([-1.0, bad]), 1)
        with pytest.raises(ValueError, match="non-finite log2 weight"):
            cli._spectrum_json(spectrum)
        monkeypatch.setattr(cli, "uniform_mixed_spectrum", lambda n, d: spectrum)
        result = runner.invoke(main, ["spectrum", "--uniform", "--d", "2", "--n", "1"])
        assert result.exit_code == 1
        assert result.stderr.startswith("error: spectrum has a non-finite log2 weight")
        assert result.stdout == ""
        # the writers stream, so the refusal must come before the output file is opened
        out = tmp_path / "spectrum.json"
        result = runner.invoke(main, ["spectrum", "--uniform", "--d", "2", "--n", "1",
                                      "--out", str(out)])
        assert result.exit_code == 1
        assert result.stderr.startswith("error: spectrum has a non-finite log2 weight")
        assert not out.exists()

    @pytest.mark.parametrize("chunk_rows", [1, 2, 3, 11, 12])
    def test_chunk_boundaries(self, monkeypatch, chunk_rows):
        # 11 rows (--occ 3,2,4 --n 4): chunks of one row, uneven chunks, one whole chunk, one
        # chunk larger than the spectrum
        monkeypatch.setattr(cli, "SPECTRUM_CHUNK_ROWS", chunk_rows)
        spectrum = exact_spectrum(SectorConfig.finite((3, 2, 4)), 4)
        assert spectrum.support_size == 11
        self.assert_writers_match(["--occ", "3,2,4", "--n", "4"], lambda: spectrum)

    @pytest.mark.parametrize("chunk_rows", [1, 2, 3, None])
    @pytest.mark.parametrize("args, build", SYMMETRIC_SECTORS)
    def test_symmetric_sectors_format_each_value_once(self, monkeypatch, chunk_rows, args, build):
        # repeated weights, in chunks of 1-3 rows and in one whole chunk: each chunk formats
        # each of its distinct log2 weights and numerators once
        if chunk_rows:
            monkeypatch.setattr(cli, "SPECTRUM_CHUNK_ROWS", chunk_rows)
        spectrum = build()
        logs = spectrum.log2_weights.tolist()
        assert len(set(logs)) < len(logs)
        self.assert_writers_match(args, lambda: spectrum)
        size = cli.SPECTRUM_CHUNK_ROWS
        chunks = [slice(i, i + size) for i in range(0, len(logs), size)]
        reprs, gcds, gcd = [], [], math.gcd
        with monkeypatch.context() as spy:
            spy.setattr(cli, "repr", lambda x: reprs.append(x) or repr(x), raising=False)
            spy.setattr(math, "gcd", lambda a, b: gcds.append(a) or gcd(a, b))
            written = "".join(cli._spectrum_csv(spectrum))
        assert written == reference_spectrum_csv(spectrum)
        assert sorted(reprs) == sorted(x for rows in chunks for x in set(logs[rows]))
        nums = spectrum.numerators or []
        assert sorted(gcds) == sorted(num for rows in chunks for num in set(nums[rows]))

    @pytest.mark.parametrize(
        "args, build",
        [
            pytest.param(["--occ", "6,6,6", "--n", "0"],
                         lambda: exact_spectrum(SectorConfig.finite((6, 6, 6)), 0), id="finite"),
            pytest.param(["--L", "inf", "--dens", "1/4,1/4,1/4,1/4", "--n", "0"],
                         lambda: thermo_spectrum([Fraction(1, 4)] * 4, 0), id="thermo"),
        ],
    )
    def test_zero_log2_weight_keeps_its_sign(self, args, build):
        # np.unique takes 0.0 and -0.0 as one value; only one-row spectra carry a zero log2
        # weight, and at n = 0 the all-equal sectors carry and write +0.0
        spectrum = build()
        assert spectrum.support_size == 1 and math.copysign(1.0, spectrum.log2_weights[0]) == 1.0
        self.assert_writers_match(args, lambda: spectrum)
        csv = run_ok(CliRunner(), ["spectrum", *args, "--format", "csv"]).stdout
        assert csv.splitlines()[1].endswith(",0.0,1")

    def test_write_holds_one_chunk(self, tmp_path):
        # equal levels repeat each weight at most d! times, so the 50,001 rows of d = 2 hold
        # 25,001 distinct log2 weights: strings kept across chunks would grow with them
        spectrum = exact_spectrum(SectorConfig.finite((50_000, 50_000)), 50_000)
        for writer, reference in [(cli._spectrum_json, reference_spectrum_json),
                                  (cli._spectrum_csv, reference_spectrum_csv)]:
            out = tmp_path / "spectrum"
            tracemalloc.start()
            try:
                cli._write_text(out, writer(spectrum))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 3 * 2**20, f"traced peak {peak / 2**20:.1f} MB"
            assert out.read_text() == reference(spectrum)

    def test_writer_memory_is_bounded_by_a_chunk(self, tmp_path):
        # 176,851 exact rows, 44.7 MB of JSON: the whole document held as rows, joined string
        # and copy peaked at 148.6 MB traced; streamed, the spectrum and a chunk remain
        out = tmp_path / "spectrum.json"
        args = ["spectrum", "--L", "inf", "--d", "4", "--dens", "1/4,1/4,1/4,1/4", "--n", "100",
                "--out", str(out)]
        tracemalloc.start()
        try:
            main(args, standalone_mode=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20, f"traced peak {peak / 2**20:.1f} MB"
        spectrum = thermo_spectrum([Fraction(1, 4)] * 4, 100)
        assert out.read_text() == reference_spectrum_json(spectrum)


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
        # at a block boundary the closed forms are null, and null fields are renamed too
        edge = json.loads(
            run_ok(runner, ["entropy", "--occ", "3,3", "--n", "0", "--units", "nats"]).stdout
        )
        assert_valid(edge, REPORT_SCHEMA)
        assert edge["report"]["asymptotic_nats"] is None
        assert not [key for key in edge["report"] if key.endswith("_bits")]

    @pytest.mark.parametrize("d, n, gaussian_bits", [(200, 1, -357.0136), (400, 10, -249.2554)],
                             ids=["d200-n1", "d400-n10"])
    def test_determinant_past_float_range(self, runner, d, n, gaussian_bits):
        # 1/det of the Gaussian covariance is 2^1528.8 and 2^2132.1: past the float range
        dens = ",".join([f"1/{d}"] * d)
        result = run_ok(runner, ["entropy", "--L", "inf", "--dens", dens, "--n", str(n)])
        payload = json.loads(result.stdout)
        assert_valid(payload, REPORT_SCHEMA)
        assert payload["report"]["gaussian_bits"] == pytest.approx(gaussian_bits, abs=1e-4)

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
        assert result.stderr.startswith("error: sweep work estimate")

    # 99,379 block sizes at L = 1.6e7: an estimated 1.0e10 block_entropy counts
    COSTLY_SWEEP = ["sweep", "--occ", "8000000,8000000", "--n-min", "0",
                    "--n-max", "16000000", "--step", "161"]

    @pytest.mark.parametrize(
        "args",
        [COSTLY_SWEEP[1:],
         ["--L", "inf", "--dens", "1/2,1/2", "--n-min", "0", "--n-max", str(10**30)]],
        ids=["costly-sizes", "past-maxsize"],
    )
    def test_work_guard_refuses_before_any_entropy(self, runner, monkeypatch, args):
        self.no_entropy(monkeypatch)
        result = runner.invoke(main, ["sweep", *args])
        assert result.exit_code == 3
        assert result.stderr.startswith("error: sweep work estimate")

    def test_block_past_l_refused_before_any_entropy(self, runner, monkeypatch):
        self.no_entropy(monkeypatch)
        result = runner.invoke(main, ["sweep", "--occ", "3,3", "--n-min", "0", "--n-max", "7"])
        assert result.exit_code == 1
        assert result.stderr.startswith("error: n exceeds L: n=7, L=6")

    @staticmethod
    def no_entropy(monkeypatch):
        def fail(sector, n):
            raise AssertionError("entropy_report called")

        monkeypatch.setattr(cli, "entropy_report", fail)

    def test_work_guard_exits_at_once(self):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
        result = subprocess.run([sys.executable, "-m", "permutent.cli", *self.COSTLY_SWEEP],
                                capture_output=True, env=env, timeout=5, check=False)
        assert result.returncode == 3, result.stderr.decode()

    @pytest.mark.parametrize(
        "args",
        [["--occ", "400,400,400,400,400", "--n-min", "0", "--n-max", "2000", "--step", "40"],
         ["--occ", "4000,4000,4000,4000,4000", "--n-min", "0", "--n-max", "10000",
          "--step", "2500"]],
        ids=["benchmark-sweep", "readme-sweep"],
    )
    def test_work_guard_admits_the_documented_sweeps(self, runner, monkeypatch, args):
        report = EntropyReport(1.0, None, None, 1.0, None, False)
        monkeypatch.setattr(cli, "entropy_report", lambda sector, n: report)
        run_ok(runner, ["sweep", *args])

    def test_svg_output(self, runner, tmp_path):
        out = tmp_path / "sweep.svg"
        run_ok(runner, ["sweep", "--occ", "15,15", "--n-min", "0", "--n-max", "30",
                        "--format", "svg", "--out", str(out)])
        root = ET.fromstring(out.read_text())
        assert root.tag.endswith("svg")

    def test_element_writer(self):
        circle = svgplot._element("circle", cx=1.0, cy=2, r="2.6")
        assert circle == '<circle cx="1.00" cy="2" r="2.6"/>'
        assert (svgplot._element("text", "S", x=0.125, font_size=11)
                == '<text x="0.12" font-size="11">S</text>')

    def test_single_point_svg(self, runner, tmp_path):
        # one exact point at n = 0 and no asymptotic value: zero x and y spans
        out = tmp_path / "one.svg"
        run_ok(runner, ["sweep", "--occ", "3,3", "--n-min", "0", "--n-max", "0",
                        "--format", "svg", "--out", str(out)])
        assert_chart(out.read_text())

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

    @pytest.mark.parametrize("c", ["nan", "inf", "-inf"])
    def test_non_finite_central_charge_exits_1(self, runner, c):
        result = runner.invoke(main, ["corrections", "--L", "10", "--d", "2", "--n-min", "1",
                                      "--n-max", "2", "--central-charge", c])
        assert result.exit_code == 1
        assert result.stderr.startswith("error: central charge must be finite")
        assert result.stdout == ""


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

    def test_one_check_call_per_sector_and_per_mixture(self, runner, monkeypatch):
        # perfbench's tracer wraps these two names in cli, so every case must go through them
        theorem, uniform = [], []

        def counted(calls, real):
            def call(*args, **kwargs):
                calls.append(args)
                return real(*args, **kwargs)
            return call

        monkeypatch.setattr(cli, "verify_theorem", counted(theorem, cli.verify_theorem))
        monkeypatch.setattr(cli, "verify_uniform_mixture",
                            counted(uniform, cli.verify_uniform_mixture))
        result = run_ok(runner, ["verify", "--d2-max-l", "3", "--d3-max-l", "2",
                                 "--uniform-max-l", "2"])
        sectors = [cfg.occupations for cfg, *_ in theorem]
        assert len(sectors) == len(set(sectors)) == (2 + 3 + 4) + (3 + 6)  # d = 2 and d = 3
        assert all(list(ns) == list(range(cfg.L + 1)) for cfg, ns, *_ in theorem)
        assert [(L, d, list(ns)) for L, d, ns, _ in uniform] == [
            (L, d, list(range(L + 1))) for d in (2, 3) for L in (1, 2)]
        cases = sum(len(args[1]) for args in theorem) + sum(len(args[2]) for args in uniform)
        assert cases == (4 + 9 + 16) + (6 + 18) + 2 * (2 + 3)
        assert "verified 63 cases, 0 failures" in result.output

    def test_empty_grid_warns(self, runner, tmp_path):
        out = tmp_path / "verify.json"
        result = run_ok(runner, ["verify", "--d2-max-l", "0", "--d3-max-l", "0",
                                 "--uniform-max-l", "0", "--out", str(out)])
        assert "empty verification grid" in result.stderr
        assert "verified 0 cases" in result.stdout
        payload = json.loads(out.read_text())
        assert_valid(payload, VERIFY_SCHEMA)
        assert payload["cases"] == [] and payload["pass"] is True

    def test_fault_injection_identifies_config(self, runner):
        result = runner.invoke(main, ["verify", "--d2-max-l", "2", "--d3-max-l", "0",
                                      "--uniform-max-l", "0", "--inject-fault", "1e-6"])
        assert result.exit_code == 2
        assert "MISMATCH" in result.output
        assert "'L': 1" in result.output

    def test_resource_guard_exit_code(self, runner):
        result = runner.invoke(main, ["verify", "--d2-max-l", "21"])
        assert result.exit_code == 3

    @pytest.mark.parametrize("tol", ["nan", "0", "-1", "inf"])
    def test_tolerance_outside_unit_interval_exits_1(self, runner, monkeypatch, tol):
        monkeypatch.setattr(cli, "verify_theorem", None)  # the grid must not start
        result = runner.invoke(main, ["verify", "--d2-max-l", "2", "--d3-max-l", "0",
                                      "--uniform-max-l", "0", "--tol", tol])
        assert result.exit_code == 1
        assert result.stderr.startswith("error: --tol must lie in (0, 1)")
        assert result.stdout == ""


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

    def test_single_sample_range(self, runner, tmp_path):
        # --max-l 1 samples the L = inf series over [1, 1] alone
        run_ok(runner, ["figures", "--out-dir", str(tmp_path), "--max-l", "1"])
        for name in ("entropy_scaling_d3.svg", "entropy_scaling_by_spin.svg"):
            assert_chart((tmp_path / name).read_text())

    @staticmethod
    def no_entropy(monkeypatch):
        def fail(sector, n):
            raise AssertionError("block_entropy called")

        monkeypatch.setattr(cli, "block_entropy", fail)

    @pytest.mark.parametrize("max_l", ["0", "-5"])
    def test_max_l_below_one_exits_1(self, runner, monkeypatch, tmp_path, max_l):
        self.no_entropy(monkeypatch)
        args = ["figures", "--out-dir", str(tmp_path / "f"), "--max-l", max_l]
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert result.stderr.startswith("error: --max-l must be >= 1")

    @pytest.mark.parametrize(
        "args",
        [["--max-l", "10000000000", "--points", "1000"],
         ["--max-l", "10000000000000", "--points", "2"],
         ["--max-l", "200000", "--points", "20000"], ["--max-l", "30000000", "--points", "2000000"],
         ["--max-l", str(10**30), "--points", str(10**30)]],
        ids=["points-1000", "two-points", "more-points", "sample-too-long", "huge"],
    )
    def test_work_guard_refuses_before_any_entropy(self, runner, monkeypatch, tmp_path, args):
        self.no_entropy(monkeypatch)
        out_dir = tmp_path / "f"
        result = runner.invoke(main, ["figures", "--out-dir", str(out_dir), *args])
        assert result.exit_code == 3
        assert result.stderr.startswith("error: figures work estimate")
        assert not out_dir.exists()

    @pytest.mark.parametrize("max_l", ["240", "20000", "200000", "1000000"])
    def test_work_guard_admits_the_documented_charts(self, runner, monkeypatch, tmp_path, max_l):
        monkeypatch.setattr(cli, "block_entropy", lambda sector, n: 1.0)
        run_ok(runner, ["figures", "--out-dir", str(tmp_path), "--max-l", max_l])
        assert (tmp_path / "entropy_scaling_d3.svg").exists()


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

    @pytest.mark.parametrize(
        "args, message",
        [
            (["sweep", "--occ", "3,3", "--n-min", "0", "--n-max", "2", "--step", "0"],
             "step must be >= 1"),
            (["entropy", "--L", "inf", "--dens", "1/0", "--n", "2"], "--dens expects"),
            (["entropy", "--L", "inf", "--n", "2"], "--L inf needs --dens"),
            (["entropy", "--L", "inf", "--d", "3", "--dens", "1/2,1/2", "--n", "2"],
             "--d 3 conflicts with 2 densities"),
            (["entropy", "--d", "3", "--occ", "1,1", "--n", "1"],
             "--d 3 conflicts with 2 occupations"),
            (["entropy", "--L", "abc", "--occ", "1,1", "--n", "1"],
             "--L must be an integer or 'inf'"),
            (["spectrum", "--uniform", "--n", "2"], "--uniform needs --d"),
            (["corrections", "--L", "10", "--d", "1", "--n-min", "1", "--n-max", "2"],
             "--d must be >= 2"),
        ],
        ids=["zero-step", "zero-denominator", "inf-without-dens", "d-vs-densities",
             "d-vs-occupations", "non-integer-L", "uniform-without-d", "corrections-d-1"],
    )
    def test_validation_errors_are_one_error_line(self, runner, args, message):
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {message}")

    def test_unwritable_out_is_one_error_line(self, runner, tmp_path):
        result = runner.invoke(main, ["spectrum", "--occ", "2,2", "--n", "1",
                                      "--out", str(tmp_path)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize("command", ["entropy", "spectrum"])
    def test_sector_past_2_24_sites_answers(self, runner, command):
        # a sector past the former log-factorial guard (2^24 sites) now answers
        result = runner.invoke(main, [command, "--occ", "1000000000,1", "--n", "1"])
        assert result.exit_code == 0
        payload = json.loads(result.stdout)
        p = 1 / 1000000001  # the weight of the composition (0, 1)
        if command == "entropy":
            expected = -p * math.log2(p) - (1 - p) * math.log2(1 - p)
            assert payload["report"]["exact_bits"] == pytest.approx(3.1340048e-08, rel=1e-7)
            assert payload["report"]["exact_bits"] == pytest.approx(expected, abs=1e-15)
        else:
            log2_weights = [entry["log2_weight"] for entry in payload["entries"]]
            assert log2_weights == pytest.approx([math.log2(p), math.log1p(-p) / math.log(2)],
                                                 abs=1e-15)

    @pytest.mark.parametrize("command", ["entropy", "spectrum"])
    def test_counts_past_int64_exit_3(self, runner, command):
        result = runner.invoke(main, [command, "--occ", "100000000000000000000,1", "--n", "1"])
        assert result.exit_code == 3
        assert result.output.startswith("error: n = 1 or L = 100000000000000000001 is past")

    def test_entropy_window_guard_exits_3(self, runner):
        result = runner.invoke(main, ["entropy", "--L", "inf", "--dens", "1/2,1/2",
                                      "--n", "100000000000000"])
        assert result.exit_code == 3
        assert result.output.startswith("error: block_entropy window")

    @pytest.mark.parametrize(
        "args",
        [
            ["spectrum", "--occ", "2000000,2000000", "--n", "1000000", "--exact"],
            ["verify", "--d2-max-l", "1", "--d3-max-l", "1000000000", "--uniform-max-l", "0"],
        ],
        ids=["exact-denominator", "verify-grid"],
    )
    def test_guards_exit_3_before_building_the_integer(self, args):
        # C(4000000, 1000000) alone takes most of a minute to build; 3^(10^9) does not finish
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
        result = subprocess.run([sys.executable, "-m", "permutent.cli", *args],
                                capture_output=True, env=env, timeout=20, check=False)
        assert result.returncode == 3, result.stderr.decode()

    @pytest.mark.parametrize(
        "args, rows, guard",
        [
            (["--uniform", "--d", "2000000", "--n", "2000000"], 5, 4),
            (["--uniform", "--d", "200000", "--n", "200000"], 41, 40),
            (["--L", "inf", "--dens", ",".join(["1/2000"] * 2000), "--n", "1000000"], 4001, 4000),
        ],
        ids=["uniform-2e6", "uniform-2e5", "inf-2000-levels"],
    )
    def test_unbounded_supports_exit_3_at_once(self, args, rows, guard):
        # the counts have 1.2e6, 1.2e5 and 6,300 digits: composition_count of the first
        # takes minutes, and printing any of them passes Python's int-to-str limit; the walk
        # refuses the first level, its counts clipped at the guard of 8e6 cells over d levels
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
        result = subprocess.run([sys.executable, "-m", "permutent.cli", "spectrum", *args],
                                capture_output=True, env=env, timeout=5, check=False)
        assert result.returncode == 3, result.stderr.decode()
        message = f"error: composition support of at least {rows} exceeds guard {guard}\n"
        assert re.fullmatch(re.escape(message), result.stderr.decode())

    def test_uniform_levels_past_the_cells_exit_3_at_once(self):
        # one row needs d cells; the bounds tuple (n,) * d alone would be 8 GB
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
        args = ["spectrum", "--uniform", "--d", "1000000000", "--n", "1"]
        start = time.perf_counter()
        result = subprocess.run([sys.executable, "-m", "permutent.cli", *args],
                                capture_output=True, env=env, timeout=5, check=False)
        assert time.perf_counter() - start < 1.0
        assert result.returncode == 3, result.stderr.decode()
        assert result.stderr.decode() == (
            "error: cells of a single row 1000000000 exceeds guard 8000000\n"
        )

    def test_figures_out_dir_over_a_file(self, runner, tmp_path):
        taken = tmp_path / "file"
        taken.write_text("")
        result = runner.invoke(main, ["figures", "--out-dir", str(taken), "--max-l", "30"])
        assert result.exit_code == 1
        assert result.stderr.startswith("error: ")


def test_version_flag(runner):
    result = run_ok(runner, ["--version"])
    assert "permutent" in result.output
