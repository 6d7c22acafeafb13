"""Command-line front end: spectra, entropies, sweeps, verification, figures.

Outputs are deterministic: identical invocations produce byte-identical
files (no timestamps; the generator version string is the only metadata).
Usage, validation and write errors exit with code 1, verification
mismatches with 2, resource-guard violations with 3; the command group maps
the library's exceptions to these codes in one place.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import sys
from fractions import Fraction
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import click
import numpy as np

from . import __version__
from .combinatorics import ResourceLimitError, enumerate_compositions
from .entropy import (
    asymptotic_entropy,
    block_entropy,
    entropy_report,
    finite_size_corrections,
    bits_to_nats,
)
from .oracle import MatchReport, _block_dim, verify_theorem, verify_uniform_mixture
from .spectrum import (
    SectorConfig,
    Spectrum,
    exact_spectrum,
    spectrum_header,
    spectrum_to_json_obj,  # noqa: F401 -- unused; perfbench's tracer wraps it here by name
    thermo_spectrum,
    uniform_mixed_spectrum,
    weight_strings,
)
from .svgplot import Series, render_chart

EXIT_VALIDATION = 1
EXIT_MISMATCH = 2
EXIT_RESOURCE = 3

SWEEP_CSV_COLUMNS = "L,d,n,occupations,S_exact,S_asym,S_sup,gap"
# Budget for the exact entropies of a sweep or of the figures L = inf series, in the counts
# block_entropy sums: at most d * (13 sqrt(n) + 42) at block size n, plus 500 for the call
# (85-150 us a call, 0.2-0.6 us a count, on a 2-vCPU x86-64 VM); a sweep at the guard takes
# up to about 20 s.  Admits figures --max-l 1000000 --points 1000 (4.0e7, 5 s).
MAX_ENTROPY_WORK = 100_000_000

# Rows per chunk of the spectrum writers: a chunk is formatted and written before the next.
SPECTRUM_CHUNK_ROWS = 4096

CORRECTIONS_CSV_COLUMNS = (
    "n_over_L,delta_per_bits,delta_per_leading_bits,delta_cr_bits,delta_cr_leading_bits"
)


@contextlib.contextmanager
def _exit_codes():
    """Usage errors exit 1 with click's message; library errors print one error: line."""
    try:
        yield
    except click.UsageError as exc:
        exc.exit_code = EXIT_VALIDATION
        raise
    except (ResourceLimitError, ValueError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_RESOURCE if isinstance(exc, ResourceLimitError) else EXIT_VALIDATION)


class _Group(click.Group):
    """Command group that applies the documented exit codes to every failure."""

    def make_context(self, *args, **kwargs):
        with _exit_codes():
            return super().make_context(*args, **kwargs)

    def invoke(self, ctx):
        with _exit_codes():
            return super().invoke(ctx)


def _block_range(n_min: int, n_max: int, step: int = 1) -> range:
    """Validated block sizes n_min, n_min + step, ... up to n_max."""
    if step < 1:
        raise ValueError("step must be >= 1")
    if n_min < 0 or n_max < n_min:
        raise ValueError(f"invalid block range [{n_min}, {n_max}]")
    return range(n_min, n_max + 1, step)


def _check_entropy_work(command: str, d: int, count: int, last: int, hint: str) -> None:
    """Refuse count block sizes up to last, each charged as the largest, past MAX_ENTROPY_WORK."""
    work = count * (d * (13 * (math.isqrt(last) + 1) + 42) + 500)
    if work > MAX_ENTROPY_WORK:
        raise ResourceLimitError(
            f"{command} work estimate {work} (block_entropy counts, plus 500 a block size) "
            f"exceeds guard {MAX_ENTROPY_WORK}; {hint}"
        )


def _parse_list(text: str, flag: str, parse: type, example: str) -> tuple:
    """Comma-separated values, each read by ``parse`` (surrounding blanks allowed)."""
    try:
        return tuple(parse(part) for part in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{flag} expects comma-separated values like {example}, got {text!r}")


def _build_sector(L: str | None, d: int | None, occ: str | None, dens: str | None) -> SectorConfig:
    if occ is not None and dens is not None:
        raise ValueError("--occ and --dens are mutually exclusive")
    infinite = L is not None and L.strip().lower() == "inf"
    if infinite:
        if dens is None:
            raise ValueError("--L inf needs --dens")
        densities = _parse_list(dens, "--dens", Fraction, "1/3,2/3")
        if d is not None and d != len(densities):
            raise ValueError(f"--d {d} conflicts with {len(densities)} densities")
        return SectorConfig.infinite(densities)
    if occ is None:
        raise ValueError("finite sectors need --occ (or pass --L inf with --dens)")
    occupations = _parse_list(occ, "--occ", int, "3,4")
    if d is not None and d != len(occupations):
        raise ValueError(f"--d {d} conflicts with {len(occupations)} occupations")
    cfg = SectorConfig.finite(occupations)
    if L is not None:
        try:
            L_value = int(L)
        except ValueError:
            raise ValueError(f"--L must be an integer or 'inf', got {L!r}")
        if L_value != cfg.L:
            raise ValueError(f"--L {L_value} conflicts with occupations summing to {cfg.L}")
    return cfg


_SECTOR_OPTIONS = (
    click.option("--L", "L", default=None, help="System size, or 'inf' for the thermodynamic limit."),
    click.option("--d", "d", type=int, default=None, help="Local dimension (2*sigma + 1)."),
    click.option("--occ", default=None, help="Occupations N_0,...,N_{d-1} (finite L)."),
    click.option("--dens", default=None, help="Densities p_0,...,p_{d-1} (L = inf); fractions allowed."),
)


def _sector_options(command):
    """Add the --L/--d/--occ/--dens options that _build_sector reads, in that order."""
    for option in reversed(_SECTOR_OPTIONS):
        command = option(command)
    return command


def _write_text(path: Path | None, text: str | Iterable[str]) -> None:
    """Write text, or each chunk of an iterable as it is made, to path or to stdout."""
    chunks = [text] if isinstance(text, str) else text
    if path is None:
        for chunk in chunks:
            click.echo(chunk, nl=False)
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.writelines(chunks)


def _csv_text(columns: str, rows: Sequence[tuple]) -> str:
    """A CSV table under its header line: floats as repr, None as an empty field, else str."""
    lines = [
        ",".join(repr(v) if isinstance(v, float) else "" if v is None else str(v) for v in row)
        for row in rows
    ]
    return "\n".join([columns, *lines]) + "\n"


def _json_text(obj: dict) -> str:
    """obj as indented JSON, headed by the generator version."""
    return json.dumps({"generator": f"permutent {__version__}", **obj}, indent=2) + "\n"


def _spectrum_rows(spectrum: Spectrum, template: str, sep: str) -> Iterator[str]:
    """Each row as template % (k_0, ..., k_{d-1}, log2 weight[, weight string]), sep-joined,
    yielded SPECTRUM_CHUNK_ROWS rows at a time; the log2 weight is its repr, which prints
    floats as json does, and the weight strings (digits, "/") need no escaping.

    Compositions that permute equal levels share a weight, so each chunk formats each
    distinct log2 weight once (np.unique), as weight_strings does each distinct numerator."""
    for start in range(0, spectrum.support_size, SPECTRUM_CHUNK_ROWS):
        rows = slice(start, start + SPECTRUM_CHUNK_ROWS)
        values, inverse = np.unique(spectrum.log2_weights[rows], return_inverse=True)
        reprs = list(map(repr, values.tolist()))
        logs = list(map(reprs.__getitem__, inverse.tolist()))
        columns = [*spectrum.compositions[rows].T.tolist(), logs]
        if spectrum.is_exact:
            columns.append(weight_strings(spectrum, rows))
        yield (sep if start else "") + sep.join(map(template.__mod__, zip(*columns)))


def _spectrum_json(spectrum: Spectrum) -> Iterator[str]:
    """The bytes of _json_text(spectrum_to_json_obj(spectrum)) in chunks, one template per
    spectrum; refused here, before the first chunk, when JSON cannot hold it."""
    if not np.isfinite(spectrum.log2_weights).all():
        raise ValueError("spectrum has a non-finite log2 weight, which JSON cannot hold")
    head = _json_text({"header": spectrum_header(spectrum)})[: -len("\n}\n")]
    levels = ",\n        ".join(["%d"] * spectrum.d)
    weight = ',\n      "weight": "%s"' if spectrum.is_exact else ""
    template = (
        f'    {{\n      "composition": [\n        {levels}\n      ],\n'
        f'      "log2_weight": %s{weight}\n    }}'
    )
    records = _spectrum_rows(spectrum, template, ",\n")  # lazy: nothing is formatted yet
    return chain([f'{head},\n  "entries": [\n'], records, ["\n  ]\n}\n"])


def _spectrum_csv(spectrum: Spectrum) -> Iterator[str]:
    template = ";".join(["%d"] * spectrum.d) + (",%s,%s" if spectrum.is_exact else ",%s,")
    records = _spectrum_rows(spectrum, template, "\n")
    return chain(["composition,log2_weight,weight\n"], records, ["\n"])


@click.group(cls=_Group)
@click.version_option(version=__version__, prog_name="permutent")
def main() -> None:
    """Entanglement spectra and entropies of permutation-invariant spin states."""


@main.command("spectrum")
@_sector_options
@click.option("--n", "n", type=int, required=True, help="Block size.")
@click.option("--uniform", is_flag=True, help="Uniformly mixed global state instead of a sector.")
@click.option("--format", "out_format", type=click.Choice(["json", "csv"]), default="json")
@click.option("--out", type=click.Path(path_type=Path), default=None, help="Output file (default stdout).")
@click.option("--exact/--no-exact", "exact", default=None, help="Force exact rational weights on/off.")
@click.option("--cutoff", type=float, default=0.0, help="Relative weight cutoff (L = inf only).")
def cmd_spectrum(L, d, occ, dens, n, uniform, out_format, out, exact, cutoff):
    """Compute one block spectrum and write it as JSON or CSV."""
    if uniform and (any(v is not None for v in (L, occ, dens, exact)) or cutoff != 0.0):
        raise ValueError("--uniform takes only --d and --n")
    sector = None if uniform else _build_sector(L, d, occ, dens)
    if uniform:
        if d is None:
            raise ValueError("--uniform needs --d")
        spectrum = uniform_mixed_spectrum(n, d)
    elif sector.is_finite:
        if cutoff != 0.0:
            raise ValueError("--cutoff applies only to --L inf spectra")
        spectrum = exact_spectrum(sector, n, exact=exact)
    else:
        spectrum = thermo_spectrum(sector, n, cutoff, exact=exact)
    _write_text(out, _spectrum_json(spectrum) if out_format == "json" else _spectrum_csv(spectrum))
    weights = spectrum.weights
    click.echo(
        f"support {spectrum.support_size}  min_weight {min(weights):.6g}  "
        f"max_weight {max(weights):.6g}  "
        f"normalization_residual {spectrum.normalization_residual():.3e}",
        err=True,
    )


@main.command("entropy")
@_sector_options
@click.option("--n", "n", type=int, required=True)
@click.option("--units", type=click.Choice(["bits", "nats"]), default="bits")
@click.option("--out", type=click.Path(path_type=Path), default=None)
def cmd_entropy(L, d, occ, dens, n, units, out):
    """Exact block entropy with asymptotic / Gaussian / bound comparisons."""
    sector = _build_sector(L, d, occ, dens)
    obj = dataclasses.asdict(entropy_report(sector, n))
    if units == "nats":
        for key in ("exact_bits", "asymptotic_bits", "gaussian_bits", "sup_bound_bits", "constant_C_bits"):
            bits = obj.pop(key)
            obj[key.replace("_bits", "_nats")] = None if bits is None else bits_to_nats(bits)
    L_field = sector.L if sector.is_finite else "inf"
    payload = {"L": L_field, "d": sector.d, "n": n, "units": units, "report": obj}
    _write_text(out, _json_text(payload))


@main.command("sweep")
@_sector_options
@click.option("--n-min", type=int, required=True)
@click.option("--n-max", type=int, required=True)
@click.option("--step", type=int, default=1)
@click.option("--format", "out_format", type=click.Choice(["csv", "svg"]), default="csv")
@click.option("--out", type=click.Path(path_type=Path), default=None)
def cmd_sweep(L, d, occ, dens, n_min, n_max, step, out_format, out):
    """Sweep the block size: exact entropy, asymptotic value, sup bound, gap."""
    sector = _build_sector(L, d, occ, dens)
    ns = _block_range(n_min, n_max, step)
    _check_entropy_work("sweep", sector.d, (n_max - n_min) // step + 1, ns[-1],
                        "narrow the range or raise --step")  # len(ns) fails past sys.maxsize
    if sector.is_finite and n_max > sector.L:  # before any entropy, not at the first n past L
        raise ValueError(f"n exceeds L: n={n_max}, L={sector.L}")
    reports = [(n, entropy_report(sector, n)) for n in ns]
    occ_field = ";".join(map(str, sector.occupations or sector.densities))
    L_field = sector.L if sector.is_finite else "inf"
    if out_format == "csv":
        rows = []
        for n, rep in reports:
            asym = rep.asymptotic_bits
            gap = None if asym is None else rep.exact_bits - asym
            rows.append((L_field, sector.d, n, occ_field, rep.exact_bits, asym,
                         rep.sup_bound_bits, gap))
        _write_text(out, _csv_text(SWEEP_CSV_COLUMNS, rows))
    else:
        asym = [(n, rep.asymptotic_bits) for n, rep in reports if rep.asymptotic_bits is not None]
        series = [Series("asymptotic", "line", asym),
                  Series("exact", "points", [(n, rep.exact_bits) for n, rep in reports])]
        _write_text(out, render_chart(series, title=f"Block entropy, L={L_field}, d={sector.d}"))


@main.command("corrections")
@click.option("--L", "L", type=int, required=True)
@click.option("--d", "d", type=int, required=True)
@click.option("--central-charge", "central_charge", type=float, default=1.0)
@click.option("--n-min", type=int, required=True)
@click.option("--n-max", type=int, required=True)
@click.option("--step", type=int, default=1)
@click.option("--out", type=click.Path(path_type=Path), default=None)
def cmd_corrections(L, d, central_charge, n_min, n_max, step, out):
    """Finite-size corrections and their leading-order expansions as CSV."""
    if d < 2:
        raise ValueError("--d must be >= 2")
    if not (0 < n_min <= n_max < L):
        raise ValueError(f"corrections need 0 < n_min <= n_max < L, got [{n_min}, {n_max}]")
    base, extra = divmod(L, d)
    sector = SectorConfig.finite([base + (1 if i < extra else 0) for i in range(d)])
    reports = [(n, finite_size_corrections(sector, n, central_charge))
               for n in _block_range(n_min, n_max, step)]
    rows = [(n / L, rep.delta_per_bits, rep.delta_per_leading_bits, rep.delta_cr_bits,
             rep.delta_cr_leading_bits) for n, rep in reports]
    _write_text(out, _csv_text(CORRECTIONS_CSV_COLUMNS, rows))


@main.command("verify")
@click.option("--d2-max-l", type=int, default=8, help="Largest L for the d=2 theorem grid.")
@click.option("--d3-max-l", type=int, default=6, help="Largest L for the d=3 theorem grid.")
@click.option("--uniform-max-l", type=int, default=6, help="Largest L for uniform-mixture checks (d <= 3).")
@click.option("--tol", type=float, default=1e-10)
@click.option("--out", type=click.Path(path_type=Path), default=None)
@click.option("--inject-fault", type=float, default=0.0, hidden=True,
              help="Self-test hook: perturb one dense eigenvalue by this amount.")
def cmd_verify(d2_max_l, d3_max_l, uniform_max_l, tol, out, inject_fault):
    """Run the dense oracle over a grid and compare with the formula weights."""
    if not 0.0 < tol < 1.0:  # also refuses nan
        raise ValueError(f"--tol must lie in (0, 1), got {tol!r}")
    for d, max_l in ((2, d2_max_l), (3, d3_max_l), (2, uniform_max_l), (3, uniform_max_l)):
        if max_l >= 1:
            _block_dim(d, max_l, max_l)  # the grid's largest block, refused past the dense guard
    reports = []
    for d, max_l in ((2, d2_max_l), (3, d3_max_l)):
        for L in range(1, max_l + 1):
            for occupations in enumerate_compositions(L, (L,) * d):
                perturb = 0.0 if reports else inject_fault  # the first theorem case only
                cfg = SectorConfig.finite(occupations)
                batch = verify_theorem(cfg, range(L + 1), tol, perturb=perturb)
                _echo_mismatches("theorem", batch)
                reports += batch
    for d in (2, 3):
        for L in range(1, uniform_max_l + 1):
            batch = verify_uniform_mixture(L, d, range(L + 1), tol)
            _echo_mismatches("uniform", batch)
            reports += batch
    if not reports:
        click.echo("warning: empty verification grid, nothing checked", err=True)
    failures = [r for r in reports if not r.passed]
    if out is not None:
        cases = [r.to_json_obj() for r in reports]
        _write_text(out, _json_text({"tolerance": tol, "cases": cases, "pass": not failures}))
    click.echo(f"verified {len(reports)} cases, {len(failures)} failures")
    if failures:
        sys.exit(EXIT_MISMATCH)


def _echo_mismatches(kind: str, reports: list[MatchReport]) -> None:
    for report in reports:
        if not report.passed:
            click.echo(f"MISMATCH {kind}: config={report.config} n={report.n} "
                       f"max_abs_dev={report.max_abs_dev:.3e}", err=True)


@main.command("figures")
@click.option("--out-dir", type=click.Path(path_type=Path), required=True)
@click.option("--points", type=int, default=40, help="Exact points sampled per curve.")
@click.option("--max-l", type=int, default=240, help="Largest finite system in the d=3 chart.")
def cmd_figures(out_dir, points, max_l):
    """Write the two standard scaling charts as deterministic SVG files."""
    if points < 2:
        raise ValueError("--points must be >= 2")
    if max_l < 1:
        raise ValueError("--max-l must be >= 1")
    inf_sector = SectorConfig.infinite((Fraction(1, 3),) * 3)
    # the L = inf series samples min(points, max_l) sizes spread over 1..max_l
    _check_entropy_work("figures", inf_sector.d, min(points, max_l), max_l,
                        "lower --max-l or --points")
    inf_ns = _sample_range(1, max_l, points)
    out_dir.mkdir(parents=True, exist_ok=True)

    def finite(occupations: tuple[int, ...], tag: str) -> list[Series]:
        L = sum(occupations)
        return _scaling_series(SectorConfig.finite(occupations), tag,
                               _sample_range(1, L - 1, 160), _sample_range(0, L, points))

    d3 = [s for L in (30, 60, 120, 240) if L <= max_l for s in finite((L // 3,) * 3, f"L={L}")]
    d3 += _scaling_series(inf_sector, "L=inf", inf_ns, inf_ns)
    by_spin = [s for d in (2, 3, 4, 5) for s in finite((120 // d,) * d, f"d={d}")]
    for name, series, title in (
        ("entropy_scaling_d3.svg", d3, "Block entropy at d=3, equal occupations"),
        ("entropy_scaling_by_spin.svg", by_spin,
         "Block entropy by local spin, L=120, equal occupations"),
    ):
        (out_dir / name).write_text(render_chart(series, title=title))
        click.echo(f"wrote {out_dir / name}", err=True)


def _scaling_series(
    sector: SectorConfig, tag: str, curve_ns: Sequence[int], point_ns: Sequence[int]
) -> list[Series]:
    """The asymptotic curve over curve_ns and the exact points over point_ns."""
    asym = [(n, asymptotic_entropy(sector, n)) for n in curve_ns]
    exact = [(n, block_entropy(sector, n)) for n in point_ns]
    return [Series(f"asymptotic {tag}", "line", asym), Series(f"exact {tag}", "points", exact)]


def _sample_range(lo: int, hi: int, count: int) -> list[int]:
    if hi <= lo:
        return [lo]
    span = hi - lo
    steps = min(count - 1, span) if count > 1 else 1
    return sorted({lo + round(i * span / steps) for i in range(steps + 1)})


if __name__ == "__main__":  # pragma: no cover
    main()
