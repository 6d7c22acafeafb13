"""permutent benchmark: end-to-end runs of fixed workloads, with output checks.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

With ``--trace 0`` every operation is a subprocess (interpreter start-up
included), run one at a time, and the run repeats the workload's operation
list until ``--seconds`` have passed.  It prints ``setup_s``, ``wall_ref`` (one
pass in units of a reference loop timed around each operation on the same
CPU) and ``peak_rss_mb``.  With ``--trace 1`` the same operations run in
this process under the span tracer and the per-layer metrics are printed
instead.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--seed`` selects the
entries that the spectrum checks sample; the workload inputs are fixed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
OP_TIMEOUT_S = 150
SETUP_SAMPLES = 3
REFERENCE_LOOPS = 700_000  # 50-70 ms on a 2.0 GHz Xeon
IMPORT_TIMER = "import time; t = time.perf_counter(); import permutent.cli; print(time.perf_counter() - t)"

VERIFY_GRID = (10, 6, 6)
FINITE_SWEEP = {"kind": "finite", "occupations": [400] * 5}
THERMO_SWEEP = {"kind": "thermo", "densities": ["1/5"] * 5}


@dataclass
class OpResult:
    returncode: int
    stdout: str
    seconds: float = 0.0
    rss_mb: float = 0.0
    value: object = None  # what a library call sequence returned
    in_process: bool = False


@dataclass
class Op:
    """One operation: a CLI command or a library call sequence, plus its check.

    ``outputs`` are the files the operation writes; their bytes must be the
    same on every pass.  ``check`` returns a list of problems.
    """

    name: str
    argv: list[str]
    check: Callable[[OpResult], list[str]]
    outputs: list[Path] = field(default_factory=list)
    call: Callable[[], object] | None = None


def cli_op(name: str, args: list[str], check, outputs=()) -> Op:
    return Op(name, ["-m", "permutent.cli", *args], check, list(outputs), None)


def _exit_ok(result: OpResult) -> list[str]:
    return [] if result.returncode == 0 else [f"exit code {result.returncode}"]


def spectrum_support(work: Path, seed: int) -> list[Op]:
    specs = [
        (
            "thermo-json",
            {"kind": "thermo", "densities": ["1/4"] * 4, "n": 60},
            ["--L", "inf", "--d", "4", "--dens", "1/4,1/4,1/4,1/4", "--n", "60"],
            "thermo.json",
        ),
        (
            "finite-csv",
            {"kind": "finite", "occupations": [400] * 5, "n": 30},
            ["--occ", "400,400,400,400,400", "--n", "30", "--format", "csv"],
            "finite.csv",
        ),
        (
            "uniform-json",
            {"kind": "uniform", "d": 5, "n": 24},
            ["--uniform", "--d", "5", "--n", "24"],
            "uniform.json",
        ),
    ]
    ops = []
    for name, sector, args, filename in specs:
        path = work / filename

        def check(result, sector=sector, path=path):
            return _exit_ok(result) or checks.check_spectrum_file(sector, path, seed)

        ops.append(cli_op(name, ["spectrum", *args, "--out", str(path)], check, [path]))
    return ops


def reduce_spectra(work: Path, seed: int) -> list[Op]:
    import reduce_op

    ops = []
    for name, sector in reduce_op.SECTORS.items():
        # Computed before any timing or tracing starts.
        expected_entropy = chain_entropy(sector)

        def check(result, sector=sector, expected_entropy=expected_entropy):
            if result.returncode != 0:
                return _exit_ok(result)
            return checks.check_reduction(sector, result.value, expected_entropy)

        ops.append(
            Op(
                name,
                [str(Path(__file__).with_name("reduce_op.py")), name],
                check,
                call=lambda name=name: reduce_op.reduce_sector(name),
            )
        )
    return ops


def chain_entropy(sector: dict) -> float | None:
    """block_entropy for the sector: the chain rule, a route apart from the spectrum."""
    from fractions import Fraction

    from permutent.entropy import block_entropy
    from permutent.spectrum import SectorConfig

    if sector["kind"] == "finite":
        return block_entropy(SectorConfig.finite(sector["occupations"]), sector["n"])
    if sector["kind"] == "thermo":
        return block_entropy(
            SectorConfig.infinite([Fraction(p) for p in sector["densities"]]), sector["n"]
        )
    return None


def sweep_chain(work: Path, seed: int) -> list[Op]:
    ops = []
    for name, sector, args, ns in (
        (
            "sweep-finite",
            FINITE_SWEEP,
            ["--occ", "400,400,400,400,400"],
            range(0, 2001, 40),
        ),
        (
            "sweep-thermo",
            THERMO_SWEEP,
            ["--L", "inf", "--dens", "1/5,1/5,1/5,1/5,1/5"],
            range(0, 1001, 40),
        ),
    ):
        path = work / f"{name}.csv"

        def check(result, sector=sector, ns=ns, path=path):
            return _exit_ok(result) or checks.check_sweep_csv(sector, ns, path.read_text())

        range_args = ["--n-min", str(ns.start), "--n-max", str(ns.stop - 1), "--step", str(ns.step)]
        ops.append(cli_op(name, ["sweep", *args, *range_args, "--out", str(path)], check, [path]))

    fig_dir = work / "figures"
    svgs = [fig_dir / "entropy_scaling_d3.svg", fig_dir / "entropy_scaling_by_spin.svg"]

    def check_figures(result):
        return _exit_ok(result) or [p for svg in svgs for p in checks.check_svg(svg.read_text())]

    ops.append(cli_op("figures", ["figures", "--out-dir", str(fig_dir)], check_figures, svgs))
    return ops


def verify_oracle(work: Path, seed: int, inject_fault: float = 0.0) -> list[Op]:
    path = work / "verify.json"
    d2, d3, uniform = VERIFY_GRID
    cases = checks.verify_case_count(d2, d3, uniform)
    args = ["verify", "--d2-max-l", str(d2), "--d3-max-l", str(d3), "--uniform-max-l", str(uniform)]
    if inject_fault:
        args += ["--inject-fault", repr(inject_fault)]

    def check(result):
        problems = _exit_ok(result)
        if f"verified {cases} cases, 0 failures" not in result.stdout:
            problems.append(f"stdout does not report {cases} cases and 0 failures")
        if not path.exists():
            return problems + ["no verify report written"]
        return problems + checks.check_verify_report(path.read_text(), cases)

    return [cli_op("verify", [*args, "--out", str(path)], check, [path])]


WORKLOADS = {
    "spectrum-support": spectrum_support,
    "reduce-spectra": reduce_spectra,
    "sweep-chain": sweep_chain,
    "verify-oracle": verify_oracle,
}


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PERMUTENT_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    # Every child compiles permutent from source, whatever the caller's
    # environment, so that set-up time does not depend on a bytecode cache.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_subprocess(argv: list[str], work: Path) -> OpResult:
    """Run one child to its end; time it and read its peak RSS from wait4."""
    out_path = work / ".stdout"
    with open(out_path, "w+b") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv],
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=out,
            stderr=subprocess.DEVNULL,
        )
        timer = threading.Timer(OP_TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read().decode()
    return OpResult(proc.returncode, stdout, seconds, usage.ru_maxrss / 1024.0)


def digest(op: Op, result: OpResult) -> str:
    h = hashlib.sha256()
    for path in op.outputs:
        h.update(path.read_bytes() if path.exists() else b"<missing>")
    if result.value is not None:
        h.update(json.dumps(result.value, sort_keys=True).encode())
    return h.hexdigest()


class Tally:
    """Operations attempted and failed, and every problem found."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = False
        self.first_digest: dict[str, str] = {}

    def record(self, op: Op, result: OpResult) -> None:
        """Check the first result of each operation in full; later ones must match it.

        Subprocess and in-process results are compared apart: the library's
        log-factorial table depends on what the process computed before, so
        log-domain values may differ from a fresh process in the last bits.
        """
        self.attempted += 1
        key = f"{op.name}:{'in-process' if result.in_process else 'subprocess'}"
        if result.returncode != 0:
            problems = [f"exit code {result.returncode}"]
        elif key not in self.first_digest:
            problems = op.check(result)
            self.first_digest[key] = digest(op, result)
            self.wrong |= bool(problems)
        elif digest(op, result) != self.first_digest[key]:
            problems = ["output bytes differ from the first pass"]
            self.wrong = True
        else:
            problems = []
        if problems:
            self.failed += 1
            for line in problems:
                print(f"FAIL {op.name}: {line}", file=sys.stderr)


def setup_sample(work: Path) -> float:
    result = run_subprocess(["-m", "permutent.cli", "--version"], work)
    if result.returncode != 0 or "permutent" not in result.stdout:
        raise RuntimeError(f"permutent --version failed with exit code {result.returncode}")
    return result.seconds


def reference_seconds() -> float:
    """Time a fixed pure-Python loop: the speed of this CPU at this moment."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOPS):
        total += i * i
    return time.perf_counter() - start


def untraced_pass(
    ops: list[Op], work: Path, tally: Tally, setups: list[float] | None = None
) -> tuple[list[float], list[float], float]:
    """One pass of subprocess operations.

    Returns the seconds of each operation, each operation's seconds divided
    by the reference loop's mean time just before and just after it, and the
    peak RSS in MB.  With ``setups`` given, a start-up sample follows the
    pass, so that the samples spread over the whole run.
    """
    times = []
    ratios = []
    rss = 0.0
    for op in ops:
        before = reference_seconds()
        result = run_subprocess(op.argv, work)
        after = reference_seconds()
        if op.call is not None and result.returncode == 0:
            result.value = json.loads(result.stdout)
        times.append(result.seconds)
        ratios.append(result.seconds / ((before + after) / 2))
        rss = max(rss, result.rss_mb)
        tally.record(op, result)
    if setups is not None:
        setups.append(setup_sample(work))
    return times, ratios, rss


def run_untraced(ops: list[Op], work: Path, seconds: float, tally: Tally) -> dict:
    """Whole passes for ``seconds``; ``wall_ref`` sums each operation's median ratio.

    The CPU this runs on switches between speeds about 40 % apart, in phases
    of seconds to tens of seconds, so raw times over one run depend on how
    much of it fell in slow phases.  An operation's time divided by the
    reference loop timed on the same CPU around it does not.
    """
    setups = [setup_sample(work) for _ in range(SETUP_SAMPLES)]
    per_op: list[list[float]] = [[] for _ in ops]
    passes = []
    peak = 0.0
    deadline = Deadline(seconds)
    while deadline.another_pass():
        times, ratios, rss = untraced_pass(ops, work, tally, setups)
        for samples, ratio in zip(per_op, ratios):
            samples.append(ratio)
        passes.append(sum(times))
        peak = max(peak, rss)
    print(f"pass walls (s): {' '.join(f'{w:.3f}' for w in passes)}", file=sys.stderr)
    for op, samples in zip(ops, per_op):
        print(f"{op.name} (ref): {' '.join(f'{r:.2f}' for r in samples)}", file=sys.stderr)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_ref": (sum(statistics.median(samples) for samples in per_op), "ref"),
        "peak_rss_mb": (peak, "MB"),
    }


class Deadline:
    """Whole passes only: start another while it should end within the run length."""

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.start = time.perf_counter()
        self.last_start: float | None = None

    def another_pass(self) -> bool:
        now = time.perf_counter()
        if self.last_start is not None:
            last_pass = now - self.last_start
            if now - self.start + last_pass > self.seconds:
                return False
        self.last_start = now
        return True


def run_in_process(op: Op, tracer: spans.Tracer) -> OpResult:
    """Run one operation in this process: the CLI through ``main``, or the library calls."""
    import permutent.cli as cli

    buf = io.StringIO()
    code = 0
    value = None
    try:
        if op.call is not None:
            value = op.call()
        else:
            args = op.argv[2:]  # the CLI arguments after "-m permutent.cli"
            with tracer.span(f"cli.{args[0]}"), contextlib.redirect_stdout(buf):
                cli.main(args, standalone_mode=False)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        code = 1
    return OpResult(code, buf.getvalue(), value=value, in_process=True)


def trace_targets(tracer: spans.Tracer) -> list:
    from permutent import cli, combinatorics, entropy, gaussian, oracle, spectrum

    build = spans.spectrum_builder(tracer, combinatorics.enumerate_compositions)

    def t(name):
        return spans.timed(tracer, name)

    return [
        (cli, "exact_spectrum", build),
        (cli, "thermo_spectrum", build),
        (cli, "uniform_mixed_spectrum", build),
        (cli, "spectrum_to_json_obj", t("spectrum.to_json_obj")),
        (cli, "entropy_report", t("entropy.entropy_report")),
        (cli, "block_entropy", t("entropy.block_entropy")),
        (cli, "render_chart", t("svgplot.render_chart")),
        (cli, "verify_theorem", t("oracle.verify_theorem")),
        (cli, "verify_uniform_mixture", t("oracle.verify_uniform_mixture")),
        (spectrum, "exact_spectrum", build),
        (spectrum, "thermo_spectrum", build),
        (spectrum, "uniform_mixed_spectrum", build),
        (entropy, "block_entropy", t("entropy.block_entropy")),
        (entropy, "entropy_of_spectrum", t("entropy.entropy_of_spectrum")),
        (gaussian, "build_gaussian", t("gaussian.build_gaussian")),
        (gaussian, "composition_moments", t("gaussian.composition_moments")),
        (oracle, "build_state", t("oracle.build_state")),
        (oracle, "partial_trace", t("oracle.partial_trace")),
        (oracle, "dense_eigenvalues", t("oracle.dense_eigenvalues")),
        (oracle, "exact_spectrum", t("oracle.formula")),
    ]


def run_traced(workload: str, ops: list[Op], work: Path, seconds: float, tally: Tally) -> dict:
    imports = []
    for _ in range(SETUP_SAMPLES):
        result = run_subprocess(["-c", IMPORT_TIMER], work)
        if result.returncode != 0:
            raise RuntimeError("importing permutent.cli failed")
        imports.append(float(result.stdout))
    os.environ.pop("PERMUTENT_THREADS", None)
    tracer = spans.Tracer()
    passes = []
    walls = []
    with spans.instrument(trace_targets(tracer)):
        deadline = Deadline(seconds)
        while deadline.another_pass():
            first = len(tracer.spans)
            wall = 0.0
            for op in ops:
                with tracer.span(f"op.{op.name}") as rec:
                    result = run_in_process(op, tracer)
                wall += rec["end"] - rec["start"]
                tally.record(op, result)
            walls.append(wall)
            passes.append(spans.layer_metrics(tracer.spans[first:]))
    tracer.write(OUT / f"trace-{workload}.json")
    # After the traced passes, so that the peak RSS of this process is still
    # the builders' own when they run.
    untraced_times, _, _ = untraced_pass(ops, work, tally)
    untraced_wall = sum(untraced_times)

    metrics = {"setup.import_s": (statistics.median(imports), "s")}
    units = {"_per_s": "1/s", "_s": "s", "_mb": "MB"}
    for name in passes[0]:
        values = [p[name] for p in passes]
        value = max(values) if name.endswith("_mb") else statistics.median(values)
        unit = next((u for suffix, u in units.items() if name.endswith(suffix)), "count")
        metrics[name] = (value, unit)
    traced_wall = statistics.median(walls)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return metrics


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> tuple[Tally, dict]:
    work = OUT / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tally = Tally()
    try:
        ops = WORKLOADS[name](work, seed)
        if traced:
            metrics = run_traced(name, ops, work, seconds, tally)
        else:
            metrics = run_untraced(ops, work, seconds, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return tally, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "permutent" / "cli.py").is_file():
        print(f"error: no permutent sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.dont_write_bytecode = True  # no cache under src/ for the children to find
    # One CPU for this process and every child, so that the reference loop
    # and the operation it is compared with run on the same CPU.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    correct = True
    metrics = {}
    for name in names:
        tally, found = run_workload(name, args.seed, args.seconds, bool(args.trace))
        attempted += tally.attempted
        failed += tally.failed
        correct &= not tally.wrong
        prefix = f"{name}." if args.workload == "all" else ""
        for key, (value, unit) in found.items():
            metrics[prefix + key] = {"value": value, "unit": unit}
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(json.dumps(result, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
