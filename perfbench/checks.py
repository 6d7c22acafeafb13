"""Output checks for the benchmark workloads.

Every expected value here is computed from the workload's inputs with
``math.comb``, ``math.factorial`` and ``fractions.Fraction``, or follows from a
property the method must have (normalisation, complementary-block symmetry,
the dimension bound).  Nothing is compared against a stored copy of earlier
output.  Each check returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

SAMPLE_SIZE = 64
LOG_SUM_TOL = 1e-9
LOG2_WEIGHT_TOL = 1e-9
ENTROPY_TOL = 1e-9
MOMENT_TOL = 1e-9
SYMMETRY_TOL = 1e-9
ASYMPTOTIC_GATE_BITS = 0.05
ASYMPTOTIC_MIN_BLOCK = 100
LOG2_2PIE = math.log2(2.0 * math.pi * math.e)


def bounded_count(n: int, bounds: tuple[int, ...]) -> int:
    """Number of k with sum(k) == n and 0 <= k_i <= bounds_i, by a prefix DP."""
    ways = [1] + [0] * n
    for b in bounds:
        nxt = [0] * (n + 1)
        running = 0
        for total in range(n + 1):
            running += ways[total]
            if total - b - 1 >= 0:
                running -= ways[total - b - 1]
            nxt[total] = running
        ways = nxt
    return ways[n]


def sector_bounds(sector: dict) -> tuple[int, ...]:
    """Level bounds of the compositions in a sector's block spectrum."""
    n = sector["n"]
    if sector["kind"] == "finite":
        return tuple(sector["occupations"])
    if sector["kind"] == "thermo":
        return tuple(n if Fraction(p) > 0 else 0 for p in sector["densities"])
    return (n,) * sector["d"]


def support_count(sector: dict) -> int:
    """Independent support size: C(n+d-1, d-1) when unbounded, the DP otherwise."""
    n = sector["n"]
    bounds = sector_bounds(sector)
    if all(b >= n for b in bounds):
        return math.comb(n + len(bounds) - 1, len(bounds) - 1)
    return bounded_count(n, bounds)


def expected_weight(sector: dict, parts: tuple[int, ...]) -> Fraction:
    """The eigenvalue labelled by a composition, from the closed forms."""
    n = sector["n"]
    if sector["kind"] == "finite":
        occ = sector["occupations"]
        num = 1
        for N, k in zip(occ, parts):
            num *= math.comb(N, k)
        return Fraction(num, math.comb(sum(occ), n))
    if sector["kind"] == "thermo":
        w = Fraction(math.factorial(n))
        for p, k in zip(sector["densities"], parts):
            w *= Fraction(p) ** k / math.factorial(k)
        return w
    return Fraction(1, math.comb(n + sector["d"] - 1, sector["d"] - 1))


def _log2_fraction(w: Fraction) -> float:
    return math.log2(w.numerator) - math.log2(w.denominator)


def check_spectrum_entries(
    sector: dict, entries: list[tuple[tuple[int, ...], float, Fraction | None]], seed: int
) -> list[str]:
    """Support, normalisation and sampled weights of one written spectrum."""
    problems = []
    n = sector["n"]
    bounds = sector_bounds(sector)
    expected_size = support_count(sector)
    if len(entries) != expected_size:
        problems.append(f"support {len(entries)} != independent count {expected_size}")
    labels = set()
    for parts, _, _ in entries:
        if len(parts) != len(bounds) or sum(parts) != n or any(
            not 0 <= k <= b for k, b in zip(parts, bounds)
        ):
            problems.append(f"composition {parts} is not a bounded composition of {n}")
            break
        labels.add(parts)
    if len(labels) != len(entries):
        problems.append(f"{len(entries) - len(labels)} repeated compositions")

    exact = [w for _, _, w in entries]
    if exact and all(w is not None for w in exact):
        den = math.lcm(*{w.denominator for w in exact})
        total = sum(w.numerator * (den // w.denominator) for w in exact)
        if total != den:
            problems.append(f"exact weights sum to {Fraction(total, den)}, not 1")
    elif any(w is not None for w in exact):
        problems.append("spectrum mixes exact and log-domain entries")
    else:
        total = math.fsum(2.0**lw for _, lw, _ in entries)
        if abs(total - 1.0) > LOG_SUM_TOL:
            problems.append(f"log-domain weights sum to {total!r}, off by more than {LOG_SUM_TOL}")

    if sector["kind"] == "uniform":
        flat = expected_weight(sector, ())
        sample = range(len(entries))
        if any(w != flat for w in exact):
            problems.append(f"uniform weights differ from 1/{flat.denominator}")
    else:
        rng = random.Random(seed)
        sample = rng.sample(range(len(entries)), min(SAMPLE_SIZE, len(entries)))
    for index in sample:
        parts, lw, w = entries[index]
        want = expected_weight(sector, parts)
        if w is not None and w != want:
            problems.append(f"entry {parts}: weight {w} != {want}")
        if abs(lw - _log2_fraction(want)) > LOG2_WEIGHT_TOL:
            problems.append(f"entry {parts}: log2_weight {lw!r} != {_log2_fraction(want)!r}")
        if len(problems) > 8:
            break
    return problems


def read_spectrum_json(path: Path) -> list[tuple[tuple[int, ...], float, Fraction | None]]:
    with open(path) as fh:
        obj = json.load(fh)
    return [
        (
            tuple(rec["composition"]),
            rec["log2_weight"],
            Fraction(rec["weight"]) if "weight" in rec else None,
        )
        for rec in obj["entries"]
    ]


def read_spectrum_csv(path: Path) -> list[tuple[tuple[int, ...], float, Fraction | None]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader) != ["composition", "log2_weight", "weight"]:
            raise ValueError("unexpected spectrum CSV header")
        return [
            (
                tuple(int(k) for k in comp.split(";")),
                float(lw),
                Fraction(w) if w else None,
            )
            for comp, lw, w in reader
        ]


def check_spectrum_file(sector: dict, path: Path, seed: int) -> list[str]:
    reader = read_spectrum_csv if path.suffix == ".csv" else read_spectrum_json
    try:
        entries = reader(path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"cannot read {path.name}: {exc}"]
    return check_spectrum_entries(sector, entries, seed)


def closed_form_moments(sector: dict) -> tuple[list[float], list[list[float]]]:
    """Mean and covariance of the block occupation counts.

    Finite sectors are multivariate hypergeometric (multinomial moments times
    the finite-population factor (L-n)/(L-1)), the thermodynamic limit is
    multinomial, and the uniform mixture is Dirichlet-multinomial with all
    parameters 1 (factor (n+d)/(d+1) on the multinomial covariance).
    """
    n = sector["n"]
    if sector["kind"] == "finite":
        occ = sector["occupations"]
        L = sum(occ)
        p = [Fraction(N, L) for N in occ]
        factor = Fraction(L - n, L - 1) if L > 1 else Fraction(0)
    elif sector["kind"] == "thermo":
        p = [Fraction(x) for x in sector["densities"]]
        factor = Fraction(1)
    else:
        d = sector["d"]
        p = [Fraction(1, d)] * d
        factor = Fraction(n + d, d + 1)
    d = len(p)
    mean = [float(n * pi) for pi in p]
    cov = [
        [float(n * factor * (p[i] * (1 - p[i]) if i == j else -p[i] * p[j])) for j in range(d)]
        for i in range(d)
    ]
    return mean, cov


def check_reduction(sector: dict, result: dict, chain_entropy: float | None) -> list[str]:
    """Entropy and moments of one reduced spectrum.

    ``chain_entropy`` is ``block_entropy`` for the same sector, or None for
    the uniform mixture, whose entropy is log2 C(n+d-1, d-1) exactly.
    """
    problems = []
    if result["exact"] != sector["exact"]:
        problems.append(f"took the {'exact' if result['exact'] else 'log-domain'} path")
    size = support_count(sector)
    if result["support"] != size:
        problems.append(f"support {result['support']} != independent count {size}")
    if sector["kind"] == "uniform":
        want = math.log2(math.comb(sector["n"] + sector["d"] - 1, sector["d"] - 1))
    else:
        want = chain_entropy
    if want is None or abs(result["entropy_bits"] - want) > ENTROPY_TOL:
        problems.append(f"entropy {result['entropy_bits']!r} != {want!r}")
    mean, cov = closed_form_moments(sector)
    dev = max(
        max(abs(a - b) for a, b in zip(result["mean"], mean)),
        max(abs(a - b) for ra, rb in zip(result["covariance"], cov) for a, b in zip(ra, rb)),
    )
    if len(result["mean"]) != len(mean) or dev > MOMENT_TOL:
        problems.append(f"moments deviate from the closed forms by {dev:.3e}")
    return problems


def asymptotic_law(sector: dict, n: int) -> float:
    """S(n) ~ sigma*log2[2 pi e n(L-n)/L] + C with C = sum(log2 p_i)/2."""
    if sector["kind"] == "finite":
        L = sum(sector["occupations"])
        p = [N / L for N in sector["occupations"]]
        geometric = n * (L - n) / L
    else:
        p = [float(Fraction(x)) for x in sector["densities"]]
        geometric = n
    sigma = (len(p) - 1) / 2.0
    return sigma * (LOG2_2PIE + math.log2(geometric)) + 0.5 * math.fsum(math.log2(x) for x in p)


def check_sweep_csv(sector: dict, ns: range, text: str) -> list[str]:
    """Complementary symmetry, the dimension bound and the paper's law on a sweep."""
    rows = list(csv.DictReader(io.StringIO(text)))
    problems = []
    got_ns = [int(r["n"]) for r in rows]
    if got_ns != list(ns):
        return [f"sweep rows cover n={got_ns[:3]}..., expected {ns}"]
    finite = sector["kind"] == "finite"
    L = sum(sector["occupations"]) if finite else None
    d = len(sector["occupations"] if finite else sector["densities"])
    exact = {n: float(r["S_exact"]) for n, r in zip(got_ns, rows)}
    for n, r in zip(got_ns, rows):
        s = exact[n]
        bound = math.log2(math.comb(n + d - 1, d - 1))
        if abs(float(r["S_sup"]) - bound) > ENTROPY_TOL:
            problems.append(f"n={n}: S_sup {r['S_sup']} != log2 C(n+d-1, d-1) = {bound!r}")
        if s > bound + 1e-12:
            problems.append(f"n={n}: S_exact {s!r} exceeds the bound {bound!r}")
        if n == 0 or n == L:
            if abs(s) > SYMMETRY_TOL:
                problems.append(f"n={n}: S_exact {s!r} should be 0 at the block edge")
        elif finite and L - n in exact and abs(s - exact[L - n]) > SYMMETRY_TOL:
            problems.append(f"S({n}) = {s!r} but S({L - n}) = {exact[L - n]!r}")
        if n >= 1 and (not finite or n < L):
            law = asymptotic_law(sector, n)
            if not r["S_asym"] or abs(float(r["S_asym"]) - law) > ENTROPY_TOL:
                problems.append(f"n={n}: S_asym {r['S_asym']!r} != closed form {law!r}")
            far = min(n, L - n) if finite else n
            if far >= ASYMPTOTIC_MIN_BLOCK and abs(s - law) > ASYMPTOTIC_GATE_BITS:
                problems.append(f"n={n}: |S_exact - S_asym| = {abs(s - law):.4f} bits")
        if len(problems) > 8:
            break
    return problems


def check_svg(text: str) -> list[str]:
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        return [f"SVG does not parse as XML: {exc}"]
    if root.tag != "{http://www.w3.org/2000/svg}svg":
        return [f"root element is {root.tag}, not svg"]
    return []


def verify_case_count(d2_max_l: int, d3_max_l: int, uniform_max_l: int) -> int:
    """Cases in the verify grid: sum (L+1)^2 + sum C(L+2,2)(L+1) + 2 sum (L+1)."""
    d2 = sum((L + 1) ** 2 for L in range(1, d2_max_l + 1))
    d3 = sum(math.comb(L + 2, 2) * (L + 1) for L in range(1, d3_max_l + 1))
    uniform = 2 * sum(L + 1 for L in range(1, uniform_max_l + 1))
    return d2 + d3 + uniform


def check_verify_report(text: str, expected_cases: int) -> list[str]:
    try:
        obj = json.loads(text)
    except ValueError as exc:
        return [f"verify report is not JSON: {exc}"]
    problems = []
    if obj.get("pass") is not True:
        problems.append("verify report says pass != true")
    cases = obj.get("cases", [])
    if len(cases) != expected_cases:
        problems.append(f"{len(cases)} cases, expected {expected_cases}")
    tol = obj.get("tolerance")
    worst = max((c["max_abs_dev"] for c in cases), default=0.0)
    if not isinstance(tol, float) or not worst < tol:
        problems.append(f"worst max_abs_dev {worst!r} is not below the tolerance {tol!r}")
    if not all(c["pass"] for c in cases):
        problems.append("some verify case failed")
    return problems
