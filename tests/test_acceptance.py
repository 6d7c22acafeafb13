"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and measured margins.
"""

import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

from click.testing import CliRunner

from permutent import (
    SectorConfig,
    block_entropy,
    build_gaussian,
    build_state,
    composition_count,
    composition_moments,
    dense_eigenvalues,
    entropy_of_spectrum,
    exact_spectrum,
    finite_size_corrections,
    fit_prefactor,
    max_entropy_bound,
    partial_trace,
    thermo_spectrum,
    uniform_mixed_spectrum,
    verify_theorem,
    verify_uniform_mixture,
)
from permutent.cli import main as cli_main
from permutent.entropy import asymptotic_entropy

LN2 = math.log(2.0)
HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)

GAP_ORACLE_PATH = Path(__file__).parent / "data" / "asymptotic_gap_first_oracle_run.json"
GAP_ORACLE = json.loads(GAP_ORACLE_PATH.read_text())


def _verdict(number: int, name: str, passed: bool, detail: str) -> bool:
    state = "PASS" if passed else "FAIL"
    print(f"[criterion {number:02d}] {state} {name}: {detail}")
    return passed


def _occupancy_vectors(total, length):
    if length == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _occupancy_vectors(total - first, length - 1):
            yield (first,) + rest


def test_criterion_01_theorem_oracle_equivalence():
    started = time.perf_counter()
    worst = 0.0
    cases = 0
    for d, max_l in ((2, 8), (3, 6)):
        for L in range(1, max_l + 1):
            for occupations in _occupancy_vectors(L, d):
                cfg = SectorConfig.finite(occupations)
                for report in verify_theorem(cfg, range(L + 1), tol=1e-10):
                    cases += 1
                    worst = max(worst, report.max_abs_dev)
                    assert report.passed, (occupations, report.n, report.max_abs_dev)
    elapsed = time.perf_counter() - started
    ok = worst < 1e-10 and elapsed < 60.0
    assert _verdict(
        1,
        "theorem oracle equivalence",
        ok,
        f"{cases} sectors/blocks, max |dev| {worst:.2e} < 1e-10, {elapsed:.1f}s < 60s",
    )


def test_criterion_02_exact_normalization():
    started = time.perf_counter()
    rng = random.Random(20260808)
    checked = 0
    for _ in range(100):
        d = rng.randint(2, 5)
        L = rng.randint(d, 300)
        cuts = sorted(rng.randint(0, L) for _ in range(d - 1))
        occupations = []
        last = 0
        for cut in cuts + [L]:
            occupations.append(cut - last)
            last = cut
        cfg = SectorConfig.finite(occupations)
        n = rng.randint(0, L)
        while composition_count(n, occupations) > 40_000:
            n //= 2
        spectrum = exact_spectrum(cfg, n, exact=True)
        assert sum(e.weight_exact for e in spectrum.entries) == 1, (occupations, n)
        checked += 1
    elapsed = time.perf_counter() - started
    ok = checked == 100 and elapsed < 30.0
    assert _verdict(
        2,
        "exact rational normalization",
        ok,
        f"{checked} random sectors (L<=300, d<=5) sum exactly to 1, {elapsed:.1f}s < 30s",
    )


def test_criterion_03_worked_two_level_case():
    cfg = SectorConfig.finite((2, 2))
    spectrum = exact_spectrum(cfg, 2)
    weights = sorted(e.weight_exact for e in spectrum.entries)
    spectrum_ok = weights == [Fraction(1, 6), Fraction(1, 6), Fraction(2, 3)]
    entropy = entropy_of_spectrum(spectrum)
    dense = dense_eigenvalues(partial_trace(build_state(cfg), 2), tol=1e-12)
    dense_entropy = -math.fsum(v * math.log2(v) for v in dense)
    deviation = abs(entropy - dense_entropy)
    ok = spectrum_ok and deviation < 1e-9 and abs(entropy - 1.25163) < 5e-6
    assert _verdict(
        3,
        "worked sigma=1/2 case",
        ok,
        f"weights {{1/6, 2/3, 1/6}}, S = {entropy:.6f} bits, |S - S_dense| = {deviation:.2e} < 1e-9",
    )


def test_criterion_04_asymptotic_agreement():
    # The tolerance is the gate fixed from the first oracle run recorded in
    # tests/data/asymptotic_gap_first_oracle_run.json (worst observed gap
    # 0.0480 bits at L=30, n=15 over the stated point set).
    started = time.perf_counter()
    gate = GAP_ORACLE["gate_bits"]
    worst_by_size: dict[str, float] = {}
    over_002 = 0
    points = 0
    for L in (30, 60, 120, 240):
        cfg = SectorConfig.finite((L // 3,) * 3)
        worst = 0.0
        for n in range(10, L - 9):
            gap = abs(
                entropy_of_spectrum(exact_spectrum(cfg, n, exact=False))
                - asymptotic_entropy(cfg, n)
            )
            worst = max(worst, gap)
            points += 1
            if gap >= 0.02:
                over_002 += 1
        worst_by_size[str(L)] = worst
    inf_cfg = SectorConfig.infinite((THIRD, THIRD, THIRD))
    worst = 0.0
    for n in range(10, 241):
        gap = abs(
            entropy_of_spectrum(thermo_spectrum((THIRD, THIRD, THIRD), n, exact=False))
            - asymptotic_entropy(inf_cfg, n)
        )
        worst = max(worst, gap)
        points += 1
        if gap >= 0.02:
            over_002 += 1
    worst_by_size["inf"] = worst
    elapsed = time.perf_counter() - started

    recorded_ok = all(
        abs(worst_by_size[key] - GAP_ORACLE["entries"][key]["worst_gap_bits"]) < 1e-6
        for key in worst_by_size
    )
    max_gap = max(worst_by_size.values())
    ok = max_gap < gate and recorded_ok and elapsed < 120.0
    detail = (
        f"max gap {max_gap:.4f} bits < recorded gate {gate} "
        f"(per-L worst: {', '.join(f'{k}:{v:.4f}' for k, v in worst_by_size.items())}; "
        f"{over_002}/{points} points exceed the 0.02 pre-estimate), {elapsed:.1f}s < 120s"
    )
    assert _verdict(4, "asymptotic agreement", ok, detail)


def test_criterion_05_prefactor_recovery():
    ns = (64, 128, 256, 512, 1024)
    failures = []
    details = []
    for d in (2, 3, 4, 5):
        sigma = (d - 1) / 2.0
        cfg = SectorConfig.infinite((Fraction(1, d),) * d)
        gamma = fit_prefactor([(n, block_entropy(cfg, n)) for n in ns])
        rel = abs(gamma - sigma) / sigma
        details.append(f"sigma={sigma:g}: gamma={gamma:.4f} ({rel:.2%})")
        if rel > 0.02:
            failures.append((d, gamma))
    for densities, sigma_eff in (
        ((HALF, HALF, Fraction(0)), 0.5),
        ((THIRD, THIRD, THIRD, Fraction(0), Fraction(0)), 1.0),
    ):
        cfg = SectorConfig.infinite(densities)
        gamma = fit_prefactor([(n, block_entropy(cfg, n)) for n in ns])
        rel = abs(gamma - sigma_eff) / sigma_eff
        details.append(f"sigma_eff={sigma_eff:g} (z>0): gamma={gamma:.4f} ({rel:.2%})")
        if rel > 0.03:
            failures.append((densities, gamma))
    ok = not failures
    assert _verdict(5, "prefactor recovery", ok, "; ".join(details))


def test_criterion_06_sup_bound_saturation():
    worst = 0.0
    for d in (2, 3, 4, 5):
        for n in range(51):
            entropy = entropy_of_spectrum(uniform_mixed_spectrum(n, d))
            worst = max(worst, abs(entropy - max_entropy_bound(n, d)))
    dense_ok = True
    for d in (2, 3):
        for L in range(1, 7):
            for report in verify_uniform_mixture(L, d, range(L + 1), tol=1e-10):
                if not report.passed:
                    dense_ok = False
    ok = worst < 1e-12 and dense_ok
    assert _verdict(
        6,
        "sup bound saturation",
        ok,
        f"max |S - log2 kappa| {worst:.2e} < 1e-12 (n<=50, d<=5); dense mixture checks "
        f"L<=6, d<=3 {'pass' if dense_ok else 'fail'}",
    )


def test_criterion_07_gaussian_determinant_identity():
    rng = random.Random(777)
    worst_rel = 0.0
    vectors = 0
    for d in (2, 3, 4, 5):
        for _ in range(50):
            while True:
                raw = [rng.random() for _ in range(d)]
                total = sum(raw)
                densities = [x / total for x in raw]
                if min(densities) >= 0.02:
                    break
            vectors += 1
            for n in (1, 10, 100):
                model = build_gaussian(densities, n)
                expected = n ** (d - 1) * math.prod(densities)
                rel = abs(1.0 / model.det_A - expected) / expected
                worst_rel = max(worst_rel, rel)
    ok = worst_rel < 1e-8
    assert _verdict(
        7,
        "Gaussian determinant identity",
        ok,
        f"{vectors} density vectors x n in {{1,10,100}}: worst rel dev {worst_rel:.2e} < 1e-8",
    )


def test_criterion_08_moment_exactness():
    grid = [
        ((HALF, HALF), 200),
        ((THIRD, THIRD, THIRD), 200),
        ((Fraction(1, 4),) * 4, 100),
        ((HALF, Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)), 50),
    ]
    worst = 0.0
    for densities, n in grid:
        spectrum = thermo_spectrum(densities, n)
        mean, cov = composition_moments(spectrum)
        p = [float(x) for x in densities]
        for i in range(len(p)):
            worst = max(worst, abs(mean[i] - n * p[i]))
            worst = max(worst, abs(cov[i, i] - n * p[i] * (1.0 - p[i])))
            for j in range(len(p)):
                if i != j:
                    worst = max(worst, abs(cov[i, j] + n * p[i] * p[j]))
    ok = worst < 1e-12
    assert _verdict(
        8,
        "moment exactness",
        ok,
        f"thermo moments vs closed forms (n<=200, d<=4): worst |dev| {worst:.2e} < 1e-12",
    )


def test_criterion_09_finite_size_correction_scaling():
    # Both scaling targets evaluated at n/L = 1e-3 with 1% tolerance.
    L = 1000
    n = 1
    x = n / L
    per_ratios = {}
    for d, sigma in ((2, 0.5), (3, 1.0)):
        cfg = SectorConfig.finite(_equal_split(L, d))
        report = finite_size_corrections(cfg, n, central_charge=1.0)
        per_ratios[sigma] = report.delta_per_bits / x
    per_ok = all(
        abs(ratio - (-sigma / LN2)) <= 0.01 * abs(sigma / LN2)
        for sigma, ratio in per_ratios.items()
    )

    cfg = SectorConfig.finite(_equal_split(L, 2))
    report = finite_size_corrections(cfg, n, central_charge=1.0)
    cr_ratio = report.delta_cr_bits / x**2
    cr_target = -(math.pi**2) / (9.0 * LN2)
    cr_ok = abs(cr_ratio - cr_target) <= 0.01 * abs(cr_target)

    detail = (
        f"per: ratio -> -sigma/ln2 within 1% ({'ok' if per_ok else 'FAIL'}); "
        f"cr: ratio {cr_ratio:.5f} vs target -(c/9)pi^2/ln2 = {cr_target:.5f} "
        f"({'ok' if cr_ok else 'FAIL'}, measured limit is -(c/18)pi^2/ln2 = "
        f"{-(math.pi ** 2) / (18.0 * LN2):.5f})"
    )
    ok = per_ok and cr_ok
    _verdict(9, "finite-size correction scaling", ok, detail)
    assert per_ok, "permutation-invariant linear coefficient off target"
    assert cr_ok, (
        "the critical correction (c/3)*log2((L/(pi n)) sin(pi n/L)) has quadratic "
        f"coefficient -(c/18)pi^2/ln2 = {-(math.pi ** 2) / (18.0 * LN2):.5f}; the stated "
        f"target -(c/9)pi^2/ln2 = {cr_target:.5f} is exactly twice that and cannot be met "
        "by the exact form (sin series: sin y = y(1 - y^2/6 + ...))"
    )


def _equal_split(L, d):
    base, extra = divmod(L, d)
    return tuple(base + (1 if i < extra else 0) for i in range(d))


def test_criterion_10_cli_determinism(tmp_path):
    runner = CliRunner()
    jobs = [
        (["spectrum", "--occ", "3,4,2", "--n", "4", "--format", "json"], "spectrum.json"),
        (["sweep", "--occ", "10,10,10", "--n-min", "0", "--n-max", "30"], "sweep.csv"),
        (
            ["corrections", "--L", "100", "--d", "3", "--n-min", "1", "--n-max", "50"],
            "corrections.csv",
        ),
        (
            ["verify", "--d2-max-l", "3", "--d3-max-l", "2", "--uniform-max-l", "2"],
            "verify.json",
        ),
    ]
    identical = True
    for args, name in jobs:
        paths = [tmp_path / f"{run}_{name}" for run in ("first", "second")]
        for path in paths:
            result = runner.invoke(cli_main, args + ["--out", str(path)])
            assert result.exit_code == 0, result.output
        if paths[0].read_bytes() != paths[1].read_bytes():
            identical = False
    for run in ("first", "second"):
        result = runner.invoke(
            cli_main,
            ["figures", "--points", "6", "--max-l", "30", "--out-dir", str(tmp_path / run)],
        )
        assert result.exit_code == 0, result.output
    for name in ("entropy_scaling_d3.svg", "entropy_scaling_by_spin.svg"):
        if (tmp_path / "first" / name).read_bytes() != (tmp_path / "second" / name).read_bytes():
            identical = False
    assert _verdict(
        10,
        "CLI determinism",
        identical,
        "spectrum/sweep/corrections/verify/figures byte-identical across repeated runs",
    )
