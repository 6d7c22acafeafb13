"""Gaussian limit of the composition distribution.

The block occupation counts have exact first and second moments
mean_i = n*p_i, var_i = n*p_i*(1-p_i), cov_ij = -n*p_i*p_j (multinomial
weights, L = inf), and for large n the weight distribution approaches the
multivariate normal with those moments.  In a finite sector of L sites the
counts are multivariate hypergeometric: same mean, covariance scaled by
(L-n)/(L-1).  One coordinate is redundant (the counts sum to n), so the
model lives on the 2*sigma coordinates left after eliminating level 0;
which level is eliminated does not affect the determinant or the entropy.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Sequence

import numpy as np

from .spectrum import Spectrum

__all__ = [
    "GaussianModel",
    "composition_moments",
    "build_gaussian",
    "gaussian_entropy",
]


@dataclass
class GaussianModel:
    """Normal approximation on the 2*sigma independent count coordinates."""

    dim: int
    mean: np.ndarray
    covariance: np.ndarray
    log2_det_covariance: float

    @property
    def det_A(self) -> float:
        """1/det(covariance), read off log2_det_covariance; OverflowError past float range."""
        return 2.0 ** (-self.log2_det_covariance)


def composition_moments(spectrum: Spectrum) -> tuple[np.ndarray, np.ndarray]:
    """Mean vector and covariance matrix of the composition under the weights.

    When the spectrum carries exact weights the sums are accumulated exactly,
    as integers over its shared denominator, one column at a time, and only
    the final division rounds; otherwise plain float summation is used.
    """
    d = spectrum.d
    if spectrum.support_size == 0:
        raise ValueError("empty spectrum has no moments")
    nums = spectrum.numerators
    if nums is not None:
        den = spectrum.denominator
        if sum(nums) != den:
            raise ValueError("exact spectrum weights do not sum to 1")

        def expect(column: np.ndarray) -> Fraction:
            return Fraction(sum(map(operator.mul, nums, column.tolist())), den)

        wraps = spectrum.compositions.max() > math.isqrt(2**63 - 1)  # int64 products would wrap
        ks = spectrum.compositions.astype(object if wraps else np.int64, copy=False)
        mean_frac = [expect(ks[:, i]) for i in range(d)]
        cov = np.empty((d, d))
        for i, j in combinations_with_replacement(range(d), 2):
            central = expect(ks[:, i] * ks[:, j]) - mean_frac[i] * mean_frac[j]
            cov[i, j] = cov[j, i] = float(central)
        return np.array([float(m) for m in mean_frac]), cov
    ks = spectrum.compositions.astype(np.float64)
    w = np.array(spectrum.weights)
    total = w.sum()
    mean = (w @ ks) / total
    centered = ks - mean
    cov = (centered.T * w) @ centered / total
    return mean, np.asarray(cov)


def build_gaussian(densities: Sequence, n: int, L: int | None = None) -> GaussianModel:
    """Gaussian model for block size n; level 0 is eliminated by the sum constraint.

    Without L the covariance is the multinomial one of the thermodynamic
    limit; with L it is the hypergeometric one of a finite sector.
    """
    p = tuple(float(x) for x in densities)
    if len(p) < 2:
        raise ValueError("need at least two levels")
    if n < 1:
        raise ValueError("block size must be >= 1")
    if L is not None and not n < L:
        raise ValueError(f"block size must be < L, got n={n}, L={L}")
    if any(x <= 0.0 for x in p):
        raise ValueError(
            "zero density makes the covariance singular; apply effective_spin "
            "to drop empty levels first"
        )
    if abs(math.fsum(p) - 1.0) > 1e-9:
        raise ValueError("densities must sum to 1")
    retained = np.array(p[1:])
    dim = retained.size
    mean = n * retained
    cov = n * (np.diag(retained) - np.outer(retained, retained))
    if L is not None:
        cov *= (L - n) / (L - 1)
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"covariance is not positive definite: {exc}") from exc
    log2_det_cov = 2.0 * float(np.log2(np.diag(chol)).sum())
    return GaussianModel(dim=dim, mean=mean, covariance=cov, log2_det_covariance=log2_det_cov)


def gaussian_entropy(model: GaussianModel) -> float:
    """Differential entropy sigma*log2(2*pi*e) + log2(1/det_A)/2, in bits.

    Identical by construction to the closed-form asymptotic entropy of the
    thermodynamic-limit spectrum.
    """
    sigma = model.dim / 2.0
    return sigma * math.log2(2.0 * math.pi * math.e) + 0.5 * model.log2_det_covariance
