"""Brute-force verification path, independent of the combinatorial formulas.

The oracle builds the full state vector in the d^L-dimensional product space
by string indexing alone (amplitudes found by counting matching basis
strings, not by evaluating factorials), reduces it with an explicit partial
trace, and diagonalises with a cyclic threshold Jacobi scheme.  Nothing here
touches binomial shortcuts; the only contact with the formula side is inside
the verify_* comparisons.

The verify_* checks hand the solver the smaller of two Gram matrices with the
same nonzero spectrum.  With the amplitudes reshaped to a d^n x d^(L-n)
matrix Y, the block's reduced state is Y Y^T and its complement's is Y^T Y,
and both have the squared singular values of Y as their nonzero eigenvalues
(the Schmidt decomposition).  A mixture of K states stacks their Y side by
side, so its Y Y^T / K and Y^T Y / K agree in the same way.  One loop,
_check_states, runs both checks: a pure state is the case K = 1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .combinatorics import ResourceLimitError
from .spectrum import SectorConfig, exact_spectrum, uniform_mixed_spectrum

__all__ = [
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
        obj = dict(vars(self))  # a shallow copy: asdict would deep-copy each config
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
    _check_power("state", d, L, MAX_STATE_AMPLITUDES)
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
    stacked = state.reshape(_block_dim(state.shape[0], state.ndim, n), -1)
    return stacked @ stacked.T


def _block_dim(d: int, L: int, n: int) -> int:
    """d^n for a block size n in [0, L]; refused past MAX_DENSITY_DIM."""
    if n < 0 or n > L:
        raise ValueError(f"block size must lie in [0, L], got {n}")
    return _check_power("block", d, n, MAX_DENSITY_DIM)


def _check_power(what: str, d: int, e: int, guard: int) -> int:
    """d^e, refused past guard before it is built: at d >= 2, d^64 passes every guard."""
    if d ** min(e, 64) > guard:
        shown = d**e if e <= 64 else f"{d}^{e}"  # d^e itself could take seconds to build
        raise ResourceLimitError(f"{what} dimension {shown} exceeds guard {guard}")
    return d**e


def _off_diagonal_norm(a: np.ndarray) -> float:
    off = a - np.diag(np.diag(a))
    return float(np.sqrt((off * off).sum()))


def dense_eigenvalues(rho: np.ndarray, tol: float = 1e-12) -> list[float]:
    """Eigenvalues above tol, descending, via cyclic threshold Jacobi rotations.

    Sweeps rotate every pair whose off-diagonal entry exceeds the per-pair
    threshold until the off-diagonal Frobenius norm drops below
    JACOBI_CONVERGENCE_TOL * trace, or the rotation budget
    (JACOBI_SWEEP_BUDGET_FACTOR * dim^2) runs out.  Rows with a zero diagonal
    are dropped first, which is exact only for a positive semidefinite matrix:
    such a row with an entry past 1e-10 raises ValueError.
    """
    a = np.array(rho, dtype=np.float64)
    m = a.shape[0]
    if a.ndim != 2 or a.shape[1] != m:
        raise ValueError("density matrix must be square")
    if not np.isfinite(a).all():
        raise ValueError("density matrix has non-finite entries")
    # in row tiles: one whole transposed read is slow at power-of-two sizes
    tiles = (np.abs(a[i : i + 128] - a[:, i : i + 128].T).max() for i in range(0, m, 128))
    if float(max(tiles, default=0.0)) > 1e-10:
        raise ValueError("density matrix must be symmetric")

    # zero diagonal of a PSD matrix forces the whole row to zero: compress
    diag = np.diag(a)
    keep = np.nonzero(diag > 0.0)[0]
    zeros = m - keep.size
    if zeros and float(np.abs(a[diag <= 0.0]).max()) > 1e-10:
        raise ValueError(
            "density matrix is not positive semidefinite: a row with zero diagonal is not zero"
        )
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
    pairs = itertools.zip_longest(dense, formula, fillvalue=0.0)
    max_dev = max((abs(x - y) for x, y in pairs), default=0.0)
    return MatchReport(
        config=config,
        n=n,
        max_abs_dev=max_dev,
        support_size_formula=len(formula),
        support_size_dense=len(dense),
        passed=len(dense) == len(formula) and max_dev < tol,
    )


def _check_states(
    config: dict, states: np.ndarray, ns: list[int], formula, tol: float, perturb: float = 0.0
) -> list[MatchReport]:
    """The one dense loop of the verify_* checks: per n, the smaller Gram side of K states.

    ``states`` is one (K, d, ..., d) array.  Y, the K states reshaped to d^n x d^(L-n) and
    put side by side, is a reshaped transposed view: a copy for K > 1, none for K = 1.  The
    dense eigenvalues are matched against ``formula(n)``, both descending; ``perturb`` moves
    the largest dense eigenvalue of the first report only.
    """
    reports = []
    k, d = states.shape[:2]
    for n in ns:
        y = states.reshape(k, d**n, -1).transpose(1, 0, 2).reshape(d**n, -1)
        gram = y @ y.T if y.shape[0] <= y.shape[1] else y.T @ y
        gram /= k
        dense = dense_eigenvalues(gram, tol=1e-8)
        if perturb and dense and not reports:
            dense[0] += perturb
        reports.append(_match(dict(config), n, dense, sorted(formula(n), reverse=True), tol))
    return reports


def verify_theorem(
    cfg: SectorConfig, ns: list[int] | range, tol: float = 1e-10, *, perturb: float = 0.0
) -> list[MatchReport]:
    """Match the hypergeometric weights against dense partial-trace eigenvalues.

    One report per block size in ``ns``, from one state built once per sector and run
    through _check_states as K = 1.  The solver sees a d^min(n, L-n) square matrix, built
    anew for each n: the spectrum of n is never reused for L - n, since that symmetry is
    part of what is checked.  A block past MAX_DENSITY_DIM is refused before the state is
    built, whichever side would be diagonalised.  ``perturb`` is a self-test hook.
    """
    ns = list(ns)
    if cfg.L is not None:  # build_state refuses an infinite sector
        for n in ns:
            _block_dim(cfg.d, cfg.L, n)
    config = {"L": cfg.L, "d": cfg.d, "occupations": list(cfg.occupations or ())}
    formula = lambda n: exact_spectrum(cfg, n).weights  # noqa: E731
    return _check_states(config, build_state(cfg)[np.newaxis], ns, formula, tol, perturb)


def verify_uniform_mixture(
    L: int, d: int, ns: list[int] | range, tol: float = 1e-10
) -> list[MatchReport]:
    """Check the flat reduced spectrum of the equally-weighted sector mixture.

    One report per block size in ``ns``, from the K sector states built once
    per mixture (_check_states with all K); Y Y^T / K is the sum of the sector
    partial traces over K, matched against uniform_mixed_spectrum's kappa(n)
    copies of 1/kappa(n).  A block past MAX_DENSITY_DIM at any n, and a Y of
    more than MAX_STATE_AMPLITUDES amplitudes (K = C(L + d - 1, d - 1) states
    of d^L each), are refused before any sector is listed.
    """
    ns = list(ns)
    for n in ns:
        _block_dim(d, L, n)
    stacked = math.comb(L + d - 1, L) * _check_power("state", d, L, MAX_STATE_AMPLITUDES)
    if stacked > MAX_STATE_AMPLITUDES:
        raise ResourceLimitError(
            f"mixture of {stacked} amplitudes exceeds guard {MAX_STATE_AMPLITUDES}"
        )
    sectors = [o for o in itertools.product(range(L + 1), repeat=d) if sum(o) == L]
    states = np.stack([build_state(SectorConfig.finite(o)) for o in sectors])
    formula = lambda n: uniform_mixed_spectrum(n, d).weights  # noqa: E731
    return _check_states({"L": L, "d": d, "occupations": None}, states, ns, formula, tol)
