"""Entropy functionals over block spectra and the closed-form expressions.

Exact block entropies come either from a materialised spectrum
(:func:`entropy_of_spectrum`) or from :func:`block_entropy`, which reads
the spectrum builders' product form: each weight is a constant times one
factor per level, so the expected log-weight is a sum of one expectation per
level.  The form is centred on the mean counts, so those expectations lose
no digits, and a block size costs O(d * sqrt(n)) without touching the
(possibly astronomically large) composition support.

All entropies are in bits; "nats" exist only as an output formatting option.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .combinatorics import _check_size, log2_binom
from .spectrum import (SectorConfig, Spectrum, _check_symmetric, _level_ranges, _product_form,
                       _stacked)

__all__ = [
    "EntropyReport",
    "CorrectionReport",
    "entropy_of_spectrum",
    "block_entropy",
    "asymptotic_entropy",
    "max_entropy_bound",
    "finite_size_corrections",
    "fit_prefactor",
    "entropy_report",
]

LN2 = math.log(2.0)
LOG2_2PIE = math.log2(2.0 * math.pi * math.e)

# The asymptotic formula assumes g * prod(p_k) >> 1, g its geometric factor (see
# _law); below this product the value is still returned but flagged as outside
# stated validity.
ASYMPTOTIC_VALIDITY_FLOOR = 10.0

ZERO_DENSITY_TOL = 1e-12

# Largest |sum of weights + dropped mass - 1| entropy_of_spectrum accepts.
NORMALIZATION_TOL = 1e-9


def bits_to_nats(bits: float) -> float:
    return bits * LN2


@dataclass
class EntropyReport:
    """Exact entropy next to every closed-form comparison value.

    The asymptotic / Gaussian fields are None where the closed forms are
    undefined (block boundaries n in {0, L}, or fewer than two occupied
    levels).
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


def block_entropy(cfg: SectorConfig, n: int) -> float:
    """Exact block entropy at block size n from the marginal law of each level.

    Every weight is 2^c * prod_i 2^f(x_i, k_i), one factor per level (the
    builders' product form), so S(n) = -E[log2 w] = -c - sum_i E[f(x_i, k_i)]
    needs only the law of each level's count k_i: hypergeometric at finite L,
    binomial at L = inf.  Merging the other levels adds their x, so k_i has
    the two-level weight c + f(x_i, k) + f(X - x_i, n - k), X = sum_i x_i.
    Every term is O(log n), so each law is summed plainly, all levels in one
    array pass, over mean +- (13 sd + 20) cut to the feasible counts.

    Costs O(d * sqrt(n)), refused past MAX_SPECTRUM_SUPPORT counts in all;
    agrees with 50-digit values to about 1e-14 bits up to L = 1.6 * 10^7.  A
    level whose float density is 1.0 holds every site: pure at every n.
    """
    if n < 0:
        raise ValueError("block size must be nonnegative")
    X = cfg.L or 1  # the levels' x add up to L, or to 1 at L = inf
    if cfg.is_finite and n > X:
        raise ValueError(f"n exceeds L: n={n}, L={X}")
    c, f, xs, bounds = _product_form(cfg, n)
    if max(xs) >= X:
        return 0.0
    shrink = (X - n) / (X - 1) if cfg.is_finite else 1.0  # hypergeometric over binomial variance
    windows = []
    for x, (lo, hi) in zip(xs, _level_ranges(n, bounds)):
        q = x / X
        reach = 13.0 * math.sqrt(n * q * (1.0 - q) * shrink) + 20.0
        windows.append((max(lo, math.floor(n * q - reach)), min(hi, math.ceil(n * q + reach))))
    _check_size("block_entropy window", sum(hi - lo + 1 for lo, hi in windows))
    x, k, starts = _stacked(xs, windows)
    both = f(np.concatenate((x, X - x)), np.concatenate((k, n - k)))
    own = both[: k.size]
    pmf = np.exp2(c + own + both[k.size :])
    means = np.add.reduceat(pmf * own, starts) / np.add.reduceat(pmf, starts)
    return 0.0 - math.fsum([c, *means.tolist()])  # +0.0, not -0.0, for a pure block


def _law(cfg: SectorConfig, n: int) -> tuple[tuple[float, ...], float | None]:
    """The paper's law's inputs at block size n: the occupied densities p and the factor g.

    Only levels above ZERO_DENSITY_TOL count, so sigma_eff = (len(p) - 1)/2.  g is n(L-n)/L
    for 0 < n < L, n for n >= 1 at L = inf, and None where the law is undefined.
    """
    p = tuple(x for x in cfg.density_floats if x > ZERO_DENSITY_TOL)
    L = cfg.L
    if L is None:
        return p, n if n >= 1 else None
    return p, n * (L - n) / L if 0 < n < L else None


def _closed_form(p: tuple[float, ...], g: float) -> float:
    """C + sigma_eff*log2(2*pi*e * g) over the occupied densities p, sigma_eff = (len(p) - 1)/2."""
    return 0.5 * math.fsum(map(math.log2, p)) + (len(p) - 1) / 2.0 * (LOG2_2PIE + math.log2(g))


def asymptotic_entropy(cfg: SectorConfig, n: int) -> float:
    """Large-n entropy: C + sigma_eff*log2(2*pi*e * n(L-n)/L), C = log2(prod p)/2.

    Only the occupied levels count (_law), so empty levels give the reduced sector's
    value.  For the thermodynamic limit the geometric factor is just n.
    """
    (p, g), L = _law(cfg, n), cfg.L
    if len(p) < 2:
        raise ValueError("asymptotic form needs at least two occupied levels")
    if g is None:
        raise ValueError("asymptotic form needs n >= 1" if L is None else
                         f"asymptotic form needs 0 < n < L, got n={n}, L={L}")
    return _closed_form(p, g)


def max_entropy_bound(n: int, d: int) -> float:
    """Upper limit log2 binom(n + d - 1, d - 1), saturated by the uniform mixture."""
    _check_symmetric(n, d)
    return log2_binom(n + d - 1, d - 1)


def finite_size_corrections(
    cfg: SectorConfig, n: int, central_charge: float = 1.0
) -> CorrectionReport:
    """Finite-size corrections of the block entropy at fixed n.

    delta_per is the exact shift sigma_eff*log2(1 - n/L) of the permutation-
    invariant form, sigma_eff over the occupied levels as in the law itself;
    delta_cr is the shift (c/3)*log2((L/(pi*n))*sin(pi*n/L)) of the conformal
    comparison curve against its L->inf limit.  The leading orders are
    -sigma_eff*(n/L)/ln2 and -(c/18)*(pi*n/L)^2/ln2; the quadratic
    coefficient follows from sin(y) = y*(1 - y^2/6 + ...).
    """
    if not cfg.is_finite:
        raise ValueError("finite-size corrections need a finite sector")
    (p, g), L = _law(cfg, n), cfg.L
    if g is None:
        raise ValueError(f"corrections need 0 < n < L, got n={n}, L={L}")
    c = float(central_charge)
    if not math.isfinite(c):
        raise ValueError(f"central charge must be finite, got {central_charge!r}")
    if len(p) < 2:
        raise ValueError("corrections need at least two occupied levels")
    sigma = (len(p) - 1) / 2.0
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
    return statistics.linear_regression([math.log2(n) for n in ns], [s for _, s in points]).slope


def entropy_report(cfg: SectorConfig, n: int) -> EntropyReport:
    """Exact entropy plus all closed-form comparisons at block size n, on the occupied levels.

    The Gaussian value is the asymptotic law with n(L-n)/(L-1) for n(L-n)/L, the closed-form
    determinant of the hypergeometric covariance; at L = inf the two are equal.
    """
    exact = block_entropy(cfg, n)  # validates n first
    (p, g), L = _law(cfg, n), cfg.L
    asym = gauss = C = None
    valid = False
    if len(p) >= 2:
        C = 0.5 * math.fsum(map(math.log2, p))
        if g is not None:
            valid = g * math.prod(p) >= ASYMPTOTIC_VALIDITY_FLOOR
            asym = _closed_form(p, g)  # asymptotic_entropy(cfg, n)
            gauss = _closed_form(p, n * (L - n) / (L - 1)) if L else asym
    return EntropyReport(exact_bits=exact, asymptotic_bits=asym, gaussian_bits=gauss,
                         sup_bound_bits=max_entropy_bound(n, cfg.d), constant_C_bits=C,
                         asymptotic_valid=valid)
