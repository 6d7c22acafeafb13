"""Tests of the benchmark itself: output shape and fault detection.

Run with ``python3 -m pytest perfbench`` from the root of the checkout.  No
test asserts on a timing.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def run_bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_benchmark_json_shape():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert BENCHMARK["paths"] == ["perfbench"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert NAME.match(metric["name"])
        assert metric["better"] in ("lower", "higher")
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_shape(trace, section):
    proc = run_bench("--workload", "verify-oracle", "--seed", "3", "--seconds", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_checkout_without_sources_fails(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "verify-oracle", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_injected_oracle_fault_fails_the_verify_check(tmp_path):
    (op,) = run.verify_oracle(tmp_path, seed=0, inject_fault=1e-6)
    result = run.run_subprocess(op.argv, tmp_path)
    assert result.returncode == 2
    assert op.check(result)


def _spectrum(tmp_path: Path, name: str, args: list[str]) -> Path:
    path = tmp_path / name
    proc = subprocess.run(
        [sys.executable, "-m", "permutent.cli", "spectrum", *args, "--out", str(path)],
        env=run.child_env(),
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return path


EXACT_CASES = [
    ({"kind": "finite", "occupations": [6, 5, 4], "n": 7}, ["--occ", "6,5,4", "--n", "7"]),
    ({"kind": "thermo", "densities": ["1/2", "1/3", "1/6"], "n": 9},
     ["--L", "inf", "--dens", "1/2,1/3,1/6", "--n", "9"]),
    ({"kind": "uniform", "d": 4, "n": 6}, ["--uniform", "--d", "4", "--n", "6"]),
]


@pytest.mark.parametrize("sector, args", EXACT_CASES)
def test_spectrum_check_catches_altered_weight_and_dropped_entry(tmp_path, sector, args):
    path = _spectrum(tmp_path, "spec.json", args)
    assert checks.check_spectrum_file(sector, path, seed=5) == []
    obj = json.loads(path.read_text())

    altered = json.loads(json.dumps(obj))
    w = altered["entries"][1]["weight"]
    num, den = w.split("/")
    altered["entries"][1]["weight"] = f"{int(num) + 1}/{den}"
    path.write_text(json.dumps(altered))
    assert checks.check_spectrum_file(sector, path, seed=5)

    dropped = json.loads(json.dumps(obj))
    del dropped["entries"][2]
    path.write_text(json.dumps(dropped))
    assert checks.check_spectrum_file(sector, path, seed=5)


def test_log_domain_check_catches_altered_weight_and_dropped_entry(tmp_path):
    sector = {"kind": "finite", "occupations": [120, 130, 140], "n": 20}
    path = _spectrum(tmp_path, "spec.csv", ["--occ", "120,130,140", "--n", "20", "--format", "csv"])
    assert checks.check_spectrum_file(sector, path, seed=2) == []
    header, *lines = path.read_text().splitlines()
    heaviest = max(range(len(lines)), key=lambda i: float(lines[i].split(",")[1]))

    comp, lw, w = lines[heaviest].split(",")
    altered = lines.copy()
    altered[heaviest] = f"{comp},{float(lw) * (1 + 1e-6)!r},{w}"
    path.write_text("\n".join([header, *altered]) + "\n")
    assert checks.check_spectrum_file(sector, path, seed=2)

    path.write_text("\n".join([header, *lines[:-1]]) + "\n")
    assert checks.check_spectrum_file(sector, path, seed=2)


def test_bounded_count_matches_brute_force():
    import itertools

    bounds = (3, 0, 5, 2)
    for n in range(12):
        brute = sum(1 for k in itertools.product(*(range(b + 1) for b in bounds)) if sum(k) == n)
        assert checks.bounded_count(n, bounds) == brute
