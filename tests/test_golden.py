"""Golden CLI outputs: each command's bytes must match the committed file.

Every command runs as a fresh ``python -m permutent.cli`` process, so the
result does not depend on what other tests computed earlier in this process.
Regenerate a file only for a declared output change:
``python tests/test_golden.py`` rewrites every golden file from the current
code.
"""

from __future__ import annotations

import difflib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).resolve().parent / "data" / "golden"

# file name -> CLI arguments; "{out}" is replaced by an output path, and the
# file written there (not stdout) is then the golden output.  "{dir}" is
# replaced by that path's directory, for commands that write into an output
# directory; the golden output is then the file of the golden name in it.
FIGURES = ["figures", "--points", "8", "--max-l", "30", "--out-dir", "{dir}"]
GOLDEN = {
    "spectrum_occ_6_5_4_n7.json": ["spectrum", "--occ", "6,5,4", "--n", "7"],
    "spectrum_occ_400_300_200_n12.csv": [
        "spectrum", "--occ", "400,300,200", "--n", "12", "--format", "csv",
    ],
    "spectrum_inf_exact_n9.json": ["spectrum", "--L", "inf", "--dens", "1/2,1/3,1/6", "--n", "9"],
    "spectrum_inf_cutoff_n30.csv": [
        "spectrum", "--L", "inf", "--dens", "0.5,0.3,0.2", "--n", "30",
        "--no-exact", "--cutoff", "1e-6", "--format", "csv",
    ],
    "spectrum_inf_empty_level_n6.json": ["spectrum", "--L", "inf", "--dens", "1/2,0,1/2", "--n", "6"],
    "spectrum_uniform_d3_n5.json": ["spectrum", "--uniform", "--d", "3", "--n", "5"],
    "entropy_occ_40_40_40_n60.json": ["entropy", "--occ", "40,40,40", "--n", "60"],
    "entropy_inf_nats_n100.json": [
        "entropy", "--L", "inf", "--dens", "1/3,1/3,1/3", "--n", "100", "--units", "nats",
    ],
    "sweep_occ_40_30_20_10.csv": [
        "sweep", "--occ", "40,30,20,10", "--n-min", "0", "--n-max", "100", "--step", "5",
    ],
    "sweep_occ_40_30_20_10.svg": [
        "sweep", "--occ", "40,30,20,10", "--n-min", "0", "--n-max", "100", "--step", "5",
        "--format", "svg",
    ],
    "sweep_inf_empty_level.csv": [
        "sweep", "--L", "inf", "--dens", "1/2,1/4,1/4,0", "--n-min", "0", "--n-max", "200",
        "--step", "10",
    ],
    "corrections_L100_d3.csv": ["corrections", "--L", "100", "--d", "3", "--n-min", "1", "--n-max", "50"],
    "verify_small_grid.json": [
        "verify", "--d2-max-l", "3", "--d3-max-l", "3", "--uniform-max-l", "2", "--out", "{out}",
    ],
    "entropy_scaling_d3.svg": FIGURES,
    "entropy_scaling_by_spin.svg": FIGURES,
}


def run_cli(args: list[str], out: Path) -> bytes:
    argv = [a.replace("{out}", str(out)).replace("{dir}", str(out.parent)) for a in args]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-m", "permutent.cli", *argv],
        capture_output=True,
        env=env,
        timeout=120,
        check=False,
    )
    assert result.returncode == 0, result.stderr.decode()
    return out.read_bytes() if "{out}" in args or "{dir}" in args else result.stdout


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_output(name, tmp_path):
    expected = (GOLDEN_DIR / name).read_bytes()
    got = run_cli(GOLDEN[name], tmp_path / name)
    if got != expected:  # show the differing lines; the bytes must still match exactly
        diff = difflib.unified_diff(expected.decode().splitlines(keepends=True),
                                    got.decode().splitlines(keepends=True), name, "output", n=0)
        pytest.fail("".join(diff), pytrace=False)


if __name__ == "__main__":
    import tempfile

    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, args in sorted(GOLDEN.items()):
            (GOLDEN_DIR / name).write_bytes(run_cli(args, Path(tmp) / name))
            print(name)
