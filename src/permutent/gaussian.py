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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .spectrum import Spectrum

__all__ = [
    "GaussianModel",
    "composition_moments",
    "build_gaussian",
    "gaussian_entropy",
]

# The exact moments' rows per float64 limb product, cells per chunk (a chunk's limbs and its
# columns each stay within 2^17 float64s, 1 MiB) and bound on rows and shifted counts;
# composition_moments says why they keep every sum exact.  MAX_SPECTRUM_SUPPORT keeps every
# built spectrum within them.
MOMENT_CHUNK_ROWS = 4096
MOMENT_CHUNK_CELLS = 2**17
MOMENT_COUNT_BOUND = 2**21


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

    Exact weights give the floats of the exact rational moments: the sums are
    integers over the shared denominator and only the final division rounds.
    They are taken in chunks of at most MOMENT_CHUNK_ROWS = 4096 rows, fewer
    when a row's numerator bytes or its 1 + d + d(d+1) columns pass
    MOMENT_CHUNK_CELLS / 4096 = 32: a chunk's limbs and columns each stay
    within 2^17 cells (one row alone passes that from d = 362).  So memory is
    set by the chunk and by the d(d+1)/2 moments (their sums and the returned
    arrays), not by the support.  Each count is shifted by its level's
    minimum (no covariance changes, and the mean adds the minimum back), so
    u < support <= 2^21.  Per chunk, one float64 product of the numerators'
    byte limbs with the columns [1, u_i, u_i*(u_j >> 11), u_i*(u_j & 2047)],
    i <= j, gives every sum: each entry is an integer below
    4096 * 255 * 2^32 < 2^53, exact in any summation order.  The chunks add
    up in int64 (below 2^21 * 255 * 2^32 < 2^63).  The ones column checks
    that the weights sum to 1.  A spectrum past 2^21 rows or count span
    (none that the builders admit) is refused with ValueError.

    Log-domain weights use plain float summation.
    """
    if spectrum.support_size == 0:
        raise ValueError("empty spectrum has no moments")
    if spectrum.numerators is not None:
        return _exact_moments(spectrum.compositions, spectrum.numerators, spectrum.denominator)
    ks = spectrum.compositions.astype(np.float64)
    w = np.array(spectrum.weights)
    total = w.sum()
    mean = (w @ ks) / total
    centered = ks - mean
    cov = (centered.T * w) @ centered / total
    return mean, np.asarray(cov)


def _exact_moments(ks: np.ndarray, nums: list[int], den: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact moments of the counts ks under the weights nums/den; see composition_moments."""
    support, d = ks.shape
    lo = ks.min(axis=0)
    if support > MOMENT_COUNT_BOUND or (ks.max(axis=0) - lo >= MOMENT_COUNT_BOUND).any():
        raise ValueError(f"exact moments need at most {MOMENT_COUNT_BOUND} rows and count spans")
    width = (den.bit_length() + 7) // 8
    first, second = np.triu_indices(d)
    pairs = first.size
    columns = 1 + d + 2 * pairs
    step = max(1, min(MOMENT_CHUNK_ROWS, MOMENT_CHUNK_CELLS // max(width, columns), support))
    buffer = np.ones((columns, step))  # row 0 stays the ones column
    acc = np.zeros((len(buffer), width), dtype=np.int64)
    for start in range(0, support, step):
        rows = slice(start, start + step)
        try:
            raw = b"".join([num.to_bytes(width, "little") for num in nums[rows]])
        except OverflowError:  # negative, or too wide for the denominator
            raise ValueError("exact numerators must lie in [0, denominator]") from None
        limbs = np.frombuffer(raw, dtype=np.uint8).reshape(-1, width)
        u = (ks[rows] - lo).T.copy()  # one row per level
        cols = buffer[:, : u.shape[1]]
        cols[1 : d + 1] = u
        ui, uj = u[first], u[second]
        np.multiply(ui, uj >> 11, out=cols[d + 1 : d + 1 + pairs], casting="unsafe")
        np.multiply(ui, uj & 2047, out=cols[d + 1 + pairs :], casting="unsafe")
        np.add(acc, cols @ limbs, out=acc, casting="unsafe")  # exact integers below 2^53
    # a column's sum is sum_b acc[c, b] * 256^b
    sums = [sum(limb << 8 * b for b, limb in enumerate(col.tolist())) for col in acc]
    total, firsts = sums[0], sums[1 : d + 1]
    highs, lows = sums[d + 1 : d + 1 + pairs], sums[d + 1 + pairs :]
    if total != den:
        raise ValueError("exact spectrum weights do not sum to 1")
    # int / int rounds once, correctly: the floats of the exact rational moments
    mean = np.array([(s + m * den) / den for s, m in zip(firsts, lo.tolist())])
    cov = np.empty((d, d))
    for i, j, high, low in zip(first.tolist(), second.tolist(), highs, lows):
        cov[i, j] = cov[j, i] = ((high * 2048 + low) * den - firsts[i] * firsts[j]) / den**2
    return mean, cov


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
            "zero density makes the covariance singular; drop empty levels first"
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
