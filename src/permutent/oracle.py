"""Brute-force verification path, independent of the combinatorial formulas.

The oracle builds the full state vector in the d^L-dimensional product space
by string indexing alone (amplitudes found by counting matching basis
strings, not by evaluating factorials), reduces it with an explicit partial
trace, and diagonalises with a cyclic threshold Jacobi scheme.  Nothing here
touches binomial shortcuts; the only contact with the formula side is inside
the verify_* comparisons.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import zip_longest

import numpy as np

from .combinatorics import enumerate_compositions
from .spectrum import (
    ResourceLimitError,
    SectorConfig,
    dimension_symmetric_subspace,
    exact_spectrum,
)

__all__ = [
    "ResourceLimitError",
    "EigensolverConvergenceError",
    "MatchReport",
    "build_state",
    "partial_trace",
    "dense_eigenvalues",
    "verify_theorem",
    "verify_uniform_mixture",
]

MAX_STATE_AMPLITUDES = 2_000_000
MAX_DENSITY_DIM = 2000
JACOBI_CONVERGENCE_TOL = 1e-12
JACOBI_SWEEP_BUDGET_FACTOR = 100  # rotations allowed: factor * dim^2


class EigensolverConvergenceError(RuntimeError):
    """Jacobi rotation budget exhausted before the off-diagonal norm target."""


@dataclass
class MatchReport:
    """Outcome of one formula-vs-dense comparison."""

    config: dict
    n: int
    max_abs_dev: float
    support_size_formula: int
    support_size_dense: int
    passed: bool

    def to_json_obj(self) -> dict:
        obj = asdict(self)
        obj["pass"] = obj.pop("passed")
        return obj


def build_state(cfg: SectorConfig) -> np.ndarray:
    """Equal-amplitude state on every basis string matching the occupations.

    Returns the real amplitudes as a (d,)*L array whose axis i holds the
    level of site i.  The amplitude is 1/sqrt(#matching strings), with the
    count taken by scanning all indices.
    """
    if not cfg.is_finite:
        raise ValueError("dense oracle needs a finite sector")
    occupations = cfg.occupations
    assert occupations is not None
    L = sum(occupations)
    d = cfg.d
    dim = d**L
    if dim > MAX_STATE_AMPLITUDES:
        raise ResourceLimitError(f"state dimension {dim} exceeds guard {MAX_STATE_AMPLITUDES}")
    # site levels of every basis string; the guard keeps L <= 20, so int8 sums fit
    levels = np.indices((d,) * L, dtype=np.int8)
    mask = np.ones(levels.shape[1:], dtype=bool)
    for level, count in enumerate(occupations):
        mask &= (levels == level).sum(axis=0, dtype=np.int8) == count
    amplitudes = np.zeros(mask.shape)
    amplitudes[mask] = 1.0 / math.sqrt(int(mask.sum()))
    return amplitudes


def partial_trace(state: np.ndarray, n: int) -> np.ndarray:
    """Trace out the last L-n sites: rho[a, b] = sum_e psi[a, e] psi[b, e], a d^n x d^n array.

    ``state`` is a (d,)*L amplitude array as returned by :func:`build_state`;
    the first n axes form the block.
    """
    if len(set(state.shape)) != 1:
        raise ValueError(f"state axes must all have the same length d, got shape {state.shape}")
    L, d = state.ndim, state.shape[0]
    if n < 0 or n > L:
        raise ValueError(f"block size must lie in [0, L], got {n}")
    dim_block = d**n
    if dim_block > MAX_DENSITY_DIM:
        raise ResourceLimitError(f"block dimension {dim_block} exceeds guard {MAX_DENSITY_DIM}")
    stacked = state.reshape(dim_block, -1)
    return stacked @ stacked.T


def _off_diagonal_norm(a: np.ndarray) -> float:
    off = a - np.diag(np.diag(a))
    return float(np.sqrt((off * off).sum()))


def dense_eigenvalues(rho: np.ndarray, tol: float = 1e-12) -> list[float]:
    """Eigenvalues above tol, descending, via cyclic threshold Jacobi rotations.

    Sweeps rotate every pair whose off-diagonal entry exceeds the per-pair
    threshold until the off-diagonal Frobenius norm drops below
    JACOBI_CONVERGENCE_TOL * trace, or the rotation budget
    (JACOBI_SWEEP_BUDGET_FACTOR * dim^2) runs out.
    """
    a = np.array(rho, dtype=np.float64)
    m = a.shape[0]
    if a.ndim != 2 or a.shape[1] != m:
        raise ValueError("density matrix must be square")
    if not np.isfinite(a).all():
        raise ValueError("density matrix has non-finite entries")
    if float(np.abs(a - a.T).max(initial=0.0)) > 1e-10:
        raise ValueError("density matrix must be symmetric")

    # zero diagonal of a PSD matrix forces the whole row to zero: compress
    diag = np.diag(a)
    keep = np.nonzero(diag > 0.0)[0]
    zeros = m - keep.size
    if keep.size and keep.size < m:
        a = a[np.ix_(keep, keep)]
        m = keep.size

    trace = float(np.trace(a))
    target = JACOBI_CONVERGENCE_TOL * max(trace, np.finfo(float).tiny)
    budget = JACOBI_SWEEP_BUDGET_FACTOR * m * m
    if m > 1:
        pair_threshold = target / math.sqrt(m * (m - 1))
        rotations = 0
        while _off_diagonal_norm(a) > target:
            rotated = False
            for p in range(m - 1):
                row = np.abs(a[p, p + 1 :])
                for q in np.nonzero(row > pair_threshold)[0] + (p + 1):
                    apq = a[p, q]
                    if abs(apq) <= pair_threshold:
                        continue
                    if rotations >= budget:
                        raise EigensolverConvergenceError(
                            f"no convergence after {rotations} rotations (dim {m})"
                        )
                    theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                    t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                    c = 1.0 / math.sqrt(t * t + 1.0)
                    s = t * c
                    row_p = a[p, :].copy()
                    row_q = a[q, :].copy()
                    a[p, :] = c * row_p - s * row_q
                    a[q, :] = s * row_p + c * row_q
                    col_p = a[:, p].copy()
                    col_q = a[:, q].copy()
                    a[:, p] = c * col_p - s * col_q
                    a[:, q] = s * col_p + c * col_q
                    a[p, q] = a[q, p] = 0.0
                    rotations += 1
                    rotated = True
            if not rotated:
                break  # every pair is below threshold, so the norm target holds
    values = sorted(np.diag(a).tolist(), reverse=True)
    values.extend([0.0] * zeros)
    return [v for v in values if v > tol]


def _match(
    config: dict, n: int, dense: list[float], formula: list[float], tol: float
) -> MatchReport:
    """Compare two descending eigenvalue lists, the shorter padded with zeros."""
    pairs = zip_longest(dense, formula, fillvalue=0.0)
    max_dev = max((abs(x - y) for x, y in pairs), default=0.0)
    return MatchReport(
        config=config,
        n=n,
        max_abs_dev=max_dev,
        support_size_formula=len(formula),
        support_size_dense=len(dense),
        passed=len(dense) == len(formula) and max_dev < tol,
    )


def verify_theorem(
    cfg: SectorConfig, n: int, tol: float = 1e-10, *, perturb: float = 0.0
) -> MatchReport:
    """Match the hypergeometric weights against dense partial-trace eigenvalues.

    ``perturb`` shifts the largest dense eigenvalue by the given amount before
    the comparison; it exists purely as a self-test hook for the harness.
    """
    dense = dense_eigenvalues(partial_trace(build_state(cfg), n), tol=1e-8)
    if perturb and dense:
        dense[0] += perturb
    formula = sorted(exact_spectrum(cfg, n).weights, reverse=True)
    config = {"L": cfg.L, "d": cfg.d, "occupations": list(cfg.occupations or ())}
    return _match(config, n, dense, formula, tol)


def verify_uniform_mixture(L: int, d: int, n: int, tol: float = 1e-10) -> MatchReport:
    """Check the flat reduced spectrum of the equally-weighted sector mixture.

    Builds rho as the average of the sector projectors, reduces it, and
    compares its nonzero eigenvalues against kappa(n) copies of 1/kappa(n).
    """
    sectors = list(enumerate_compositions(L, (L,) * d))
    rho = sum(partial_trace(build_state(SectorConfig.finite(occ)), n) for occ in sectors)
    dense = dense_eigenvalues(rho / len(sectors), tol=1e-8)
    kappa_n = dimension_symmetric_subspace(n, d)
    return _match({"L": L, "d": d, "occupations": None}, n, dense, [1.0 / kappa_n] * kappa_n, tol)
