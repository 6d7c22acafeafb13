"""Entropy functionals over block spectra and the closed-form expressions.

Exact block entropies come either from a materialised spectrum
(:func:`entropy_of_spectrum`) or from :func:`block_entropies`, which computes
the same number through the chain rule over coordinates: conditioned on the
partial sum of the earlier levels, each occupation count is hypergeometric
(finite L) or binomial (thermodynamic limit).  The chain route costs
O(d * n^2) and stays exact, so sweeps over large blocks do not need to touch
the (possibly astronomically large) composition support; a sweep computes
each conditional entropy once.

All entropies are in bits; "nats" exist only as an output formatting option.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np

from .combinatorics import ResourceLimitError, log2_binom, log2_factorial_table
from .spectrum import SectorConfig, Spectrum

__all__ = [
    "EntropyReport",
    "CorrectionReport",
    "EffectiveSpin",
    "entropy_of_spectrum",
    "block_entropy",
    "block_entropies",
    "asymptotic_entropy",
    "asymptotic_validity",
    "max_entropy_bound",
    "effective_spin",
    "finite_size_corrections",
    "fit_prefactor",
    "entropy_report",
    "entropy_reports",
    "bits_to_nats",
]

LN2 = math.log(2.0)
LOG2_2PIE = math.log2(2.0 * math.pi * math.e)

# The asymptotic formula assumes n * prod(p_k) >> 1; below this product the
# value is still returned but flagged as outside stated validity.
ASYMPTOTIC_VALIDITY_FLOOR = 10.0

ZERO_DENSITY_TOL = 1e-12

# Largest |sum of weights + dropped mass - 1| entropy_of_spectrum accepts.
NORMALIZATION_TOL = 1e-9

# Most block sizes one block_entropies / entropy_reports call takes; longer
# sequences are refused by their length, before any per-row list is built.
MAX_BLOCK_SIZES = 100_000


def bits_to_nats(bits: float) -> float:
    return bits * LN2


@dataclass
class EntropyReport:
    """Exact entropy next to every closed-form comparison value.

    The asymptotic / Gaussian fields are None where the closed forms are
    undefined (block boundaries n in {0, L}, or fewer than two occupied
    levels after the effective-spin reduction).
    """

    exact_bits: float
    asymptotic_bits: float | None
    gaussian_bits: float | None
    sup_bound_bits: float
    constant_C_bits: float | None
    asymptotic_valid: bool = True


@dataclass
class CorrectionReport:
    """Finite-size entropy corrections and their small-n/L expansions."""

    delta_per_bits: float
    delta_cr_bits: float
    central_charge: float
    delta_per_leading_bits: float
    delta_cr_leading_bits: float


@dataclass
class EffectiveSpin:
    """Reduced growth rate when z spin levels carry no density."""

    sigma_eff: float
    z: int
    reduced_densities: tuple


def entropy_of_spectrum(spectrum: Spectrum) -> float:
    """Von Neumann entropy -sum(w log2 w) in bits, with 0*log(0) == 0."""
    residual = spectrum.normalization_residual()
    if residual > NORMALIZATION_TOL:
        raise ValueError(
            f"spectrum is not normalized: residual {residual:.3e} > {NORMALIZATION_TOL:g}"
        )
    weights = spectrum.weights
    if spectrum.is_exact:
        terms = (w * math.log2(w) for w in weights if w > 0.0)
    else:
        terms = (w * lw for w, lw in zip(weights, spectrum.log2_weights.tolist()) if w > 0.0)
    return 0.0 - math.fsum(terms)  # +0.0, not -0.0, for a point mass


def _hypergeometric_log2_pmf(L: int, K: int, n: int, t: np.ndarray) -> tuple[int, np.ndarray]:
    """(lo, log2 pmf over lo..hi) of the marked count in an n-draw from L with K marked."""
    lo = max(0, n - (L - K))
    hi = min(K, n)
    k = np.arange(lo, hi + 1)
    lw = (
        t[K]
        - t[k]
        - t[K - k]
        + t[L - K]
        - t[n - k]
        - t[L - K - n + k]
        - (t[L] - t[n] - t[L - n])
    )
    return lo, lw


def _binomial_log2_pmf(m: int, q: float, t: np.ndarray) -> tuple[int, np.ndarray]:
    """(lo, log2 pmf over lo..) of Binomial(m, q); a point mass when q is 0 or 1."""
    if q <= 0.0:
        return 0, np.zeros(1)
    if q >= 1.0:
        return m, np.zeros(1)
    k = np.arange(m + 1)
    return 0, t[m] - t[k] - t[m - k] + k * math.log2(q) + (m - k) * math.log2(1.0 - q)


def _entropy_bits(lw: np.ndarray) -> float:
    """Entropy in bits of a distribution given by its log2 pmf; 0.0 for a point mass."""
    if lw.size <= 1:
        return 0.0
    w = np.exp2(lw)
    return float(-(w * lw).sum())


def block_entropies(cfg: SectorConfig, ns: Sequence[int]) -> list[float]:
    """Exact block entropies at each n in ns via the conditional (chain-rule) decomposition.

    Agrees with ``entropy_of_spectrum(exact_spectrum(cfg, n))`` respectively
    ``thermo_spectrum`` to floating-point accuracy, at O(d * n^2) cost.
    ``before(j, n)`` is the pmf of the count s in levels 0..j-1 and
    ``given(j, r)`` that of the count in level j given r = n - s sites left;
    the two sector kinds differ only in these pmf families.  The conditional
    entropies do not depend on n, so each one is computed once per call, when
    first needed, and shared by all block sizes in ns.  A sequence longer
    than MAX_BLOCK_SIZES raises ResourceLimitError before it is iterated.
    """
    if len(ns) > MAX_BLOCK_SIZES:
        raise ResourceLimitError(f"{len(ns)} block sizes exceed guard {MAX_BLOCK_SIZES}")
    ns = list(ns)
    if any(n < 0 for n in ns):
        raise ValueError("block size must be nonnegative")
    if cfg.is_finite:
        levels = cfg.occupations
        assert levels is not None
        L = sum(levels)
        for n in ns:
            if n > L:
                raise ValueError(f"n exceeds L: n={n}, L={L}")
        pure = {0, L}
        t = log2_factorial_table(L)
        merged = list(accumulate(levels, initial=0))

        def before(j: int, n: int) -> tuple[int, np.ndarray]:
            return _hypergeometric_log2_pmf(L, merged[j], n, t)

        def given(j: int, r: int) -> tuple[int, np.ndarray]:
            return _hypergeometric_log2_pmf(L - merged[j], levels[j], r, t)

    else:
        levels = cfg.density_floats
        pure = {0}
        t = log2_factorial_table(max(ns, default=0))
        cum = list(accumulate(levels, initial=0))

        def before(j: int, n: int) -> tuple[int, np.ndarray]:
            return _binomial_log2_pmf(n, cum[j], t)

        def given(j: int, r: int) -> tuple[int, np.ndarray]:
            return _binomial_log2_pmf(r, min(levels[j] / (1.0 - cum[j]), 1.0), t)

    @functools.cache
    def given_entropy(j: int, r: int) -> float:
        return _entropy_bits(given(j, r)[1])

    def entropy(n: int) -> float:
        if n in pure:
            return 0.0
        total = _entropy_bits(before(1, n)[1])
        for j in range(1, cfg.d - 1):
            if levels[j] <= 0:
                continue
            lo, lw = before(j, n)
            # at s == n level j holds nothing, so its term is zero; skipping it
            # also avoids 1 - cum[j] == 0 when the earlier levels hold all mass
            for s, ws in enumerate(np.exp2(lw).tolist(), lo):
                if ws > 0.0 and s < n:
                    total += ws * given_entropy(j, n - s)
        return total

    return [entropy(n) for n in ns]


def block_entropy(cfg: SectorConfig, n: int) -> float:
    """Exact block entropy of one block size; see :func:`block_entropies`."""
    return block_entropies(cfg, [n])[0]


def _positive_densities(cfg: SectorConfig) -> tuple[float, ...]:
    p = cfg.density_floats
    if any(x <= ZERO_DENSITY_TOL for x in p):
        raise ValueError(
            "asymptotic form needs all densities > 0; apply effective_spin "
            "to drop empty levels first"
        )
    return p


def asymptotic_entropy(cfg: SectorConfig, n: int) -> float:
    """Large-n entropy: C + sigma*log2(2*pi*e * n(L-n)/L), C = log2(prod p)/2.

    For the thermodynamic limit the geometric factor is just n.
    """
    p = _positive_densities(cfg)
    sigma = float(cfg.sigma)
    C = 0.5 * math.fsum(math.log2(x) for x in p)
    if cfg.is_finite:
        L = cfg.L
        assert L is not None
        if not 0 < n < L:
            raise ValueError(f"asymptotic form needs 0 < n < L, got n={n}, L={L}")
        return C + sigma * (LOG2_2PIE + math.log2(n * (L - n) / L))
    if n < 1:
        raise ValueError("asymptotic form needs n >= 1")
    return C + sigma * (LOG2_2PIE + math.log2(n))


def asymptotic_validity(cfg: SectorConfig, n: int) -> bool:
    """Whether n * prod(p_k) clears the stated validity floor of 10."""
    prod = 1.0
    for x in cfg.density_floats:
        prod *= x
    return n * prod >= ASYMPTOTIC_VALIDITY_FLOOR


def max_entropy_bound(n: int, d: int) -> float:
    """Upper limit log2 binom(n + d - 1, d - 1), saturated by the uniform mixture."""
    if n < 0:
        raise ValueError("block size must be nonnegative")
    if d < 2:
        raise ValueError("local dimension must be >= 2")
    return log2_binom(n + d - 1, d - 1)


def effective_spin(densities: Sequence) -> EffectiveSpin:
    """Count vanished levels: z zero densities reduce sigma to sigma - z/2.

    The surviving densities are returned as given, so exact inputs stay exact.
    """
    p = tuple(densities)
    if not p:
        raise ValueError("density vector is empty")
    sigma = (len(p) - 1) / 2.0
    reduced = tuple(x for x in p if float(x) > ZERO_DENSITY_TOL)
    z = len(p) - len(reduced)
    if not reduced:
        raise ValueError("all densities vanish within tolerance")
    return EffectiveSpin(sigma_eff=sigma - z / 2.0, z=z, reduced_densities=reduced)


def finite_size_corrections(
    cfg: SectorConfig, n: int, central_charge: float = 1.0
) -> CorrectionReport:
    """Finite-size corrections of the block entropy at fixed n.

    delta_per is the exact shift sigma*log2(1 - n/L) of the permutation-
    invariant form; delta_cr is the shift (c/3)*log2((L/(pi*n))*sin(pi*n/L))
    of the conformal comparison curve against its L->inf limit.  The leading
    orders are -sigma*(n/L)/ln2 and -(c/18)*(pi*n/L)^2/ln2; the quadratic
    coefficient follows from sin(y) = y*(1 - y^2/6 + ...).
    """
    if not cfg.is_finite:
        raise ValueError("finite-size corrections need a finite sector")
    L = cfg.L
    assert L is not None
    if not 0 < n < L:
        raise ValueError(f"corrections need 0 < n < L, got n={n}, L={L}")
    sigma = float(cfg.sigma)
    c = float(central_charge)
    x = n / L
    delta_per = sigma * math.log2(1.0 - x)
    delta_cr = (c / 3.0) * math.log2(math.sin(math.pi * x) / (math.pi * x))
    per_leading = -sigma * x / LN2
    cr_leading = -(c / 18.0) * (math.pi * x) ** 2 / LN2
    return CorrectionReport(
        delta_per_bits=delta_per,
        delta_cr_bits=delta_cr,
        central_charge=c,
        delta_per_leading_bits=per_leading,
        delta_cr_leading_bits=cr_leading,
    )


def fit_prefactor(points: Sequence[tuple[int, float]]) -> float:
    """Least-squares slope of S against log2 n; the logarithmic growth prefactor."""
    if len(points) < 3:
        raise ValueError("prefactor fit needs at least 3 points")
    ns = [n for n, _ in points]
    if any(n < 2 for n in ns):
        raise ValueError("prefactor fit needs n >= 2")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("prefactor fit needs strictly increasing n")
    xs = [math.log2(n) for n in ns]
    ys = [s for _, s in points]
    xbar = math.fsum(xs) / len(xs)
    ybar = math.fsum(ys) / len(ys)
    sxx = math.fsum((x - xbar) ** 2 for x in xs)
    sxy = math.fsum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    return sxy / sxx


def entropy_reports(cfg: SectorConfig, ns: Sequence[int]) -> list[EntropyReport]:
    """Exact entropy plus all closed-form comparisons at each block size in ns.

    Levels with vanishing density are dropped (effective-spin reduction)
    before evaluating the asymptotic and Gaussian forms, which require
    strictly positive densities.
    """
    from .gaussian import build_gaussian, gaussian_entropy

    L = cfg.L  # None at L = inf; dropping empty levels leaves it unchanged
    reduced = effective_spin(cfg.density_fractions).reduced_densities
    reduced_cfg: SectorConfig | None = None
    C: float | None = None
    if len(reduced) >= 2:
        reduced_cfg = (
            SectorConfig.finite(p * L for p in reduced) if L else SectorConfig.infinite(reduced)
        )
        C = 0.5 * math.fsum(math.log2(float(p)) for p in reduced)
    reports = []
    for n, exact in zip(ns, block_entropies(cfg, ns)):  # block_entropies checks ns first
        asym: float | None = None
        gauss: float | None = None
        valid = False
        if reduced_cfg is not None:
            valid = asymptotic_validity(reduced_cfg, n)
            if (0 < n < L) if L else n >= 1:
                asym = asymptotic_entropy(reduced_cfg, n)
                gauss = gaussian_entropy(build_gaussian(reduced_cfg.density_fractions, n))
        reports.append(
            EntropyReport(
                exact_bits=exact,
                asymptotic_bits=asym,
                gaussian_bits=gauss,
                sup_bound_bits=max_entropy_bound(n, cfg.d),
                constant_C_bits=C,
                asymptotic_valid=valid,
            )
        )
    return reports


def entropy_report(cfg: SectorConfig, n: int) -> EntropyReport:
    """The report of one block size; see :func:`entropy_reports`."""
    return entropy_reports(cfg, [n])[0]
