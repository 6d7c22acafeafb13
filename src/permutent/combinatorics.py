"""Exact and log-domain combinatorial kernels.

Everything downstream (spectrum weights, entropies, Gaussian moments) reduces
to binomial/multinomial coefficients evaluated over bounded integer
compositions, listed by one level-by-level walk for the spectrum builders and
enumerate_compositions alike.  Two numeric representations are kept side by side:

* exact arbitrary-precision integers / rationals, used for identity checks
  and moderate system sizes, and
* logarithms from two stateless pieces of C. Loader, "Fast and Accurate
  Computation of Binomial Probabilities" (2000): Q(m) = ln m! - (m ln m - m)
  and bd0(k, mu) = k ln(k/mu) + mu - k, O(log m) where the weights live.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "ResourceLimitError",
    "log2_binom",
    "enumerate_compositions",
    "composition_count",
]


class ResourceLimitError(RuntimeError):
    """Requested computation exceeds the desk-scale guards."""


# Largest spectrum a builder materialises, and most counts block_entropy sums; larger
# requests fail fast.  Admits the 1,373,701 entries of thermo_spectrum((1/4,)*4, 200).
MAX_SPECTRUM_SUPPORT = 2_000_000

# Most int64 cells, support * d, of a composition matrix: past d = 4 the walk's row guard
# is MAX_SPECTRUM_CELLS // d, so the matrix and the walk's links stay bounded at any d.
MAX_SPECTRUM_CELLS = 8_000_000


def _check_size(what: str, size: int, guard: int = MAX_SPECTRUM_SUPPORT) -> None:
    """Refuse a size above guard before anything of that size is built."""
    if size > guard:
        raise ResourceLimitError(f"{what} {size} exceeds guard {guard}")


# Q(m) for m < 16, where Stirling's series below is not yet accurate to float64
_Q_SMALL = np.array([math.lgamma(m + 1) - m * math.log(m) + m if m else 0.0 for m in range(16)])


def _stirling_tail(m):
    """Q(m) for m >= 16 (a float or a float array): 1/2 ln(2 pi m) + 1/12m - 1/360m^3 + ..."""
    r = 1.0 / m
    r2 = r * r
    series = r * (1 / 12 - r2 * (1 / 360 - r2 * (1 / 1260 - r2 * (1 / 1680 - r2 / 1188))))
    return 0.5 * np.log(2.0 * math.pi * m) + series


def _q(m: int) -> float:
    """Q(m) = ln m! - (m ln m - m) for one integer m >= 0, with Q(0) = 0."""
    return float(_Q_SMALL[m]) if m < 16 else float(_stirling_tail(float(m)))


def _q_array(m: np.ndarray) -> np.ndarray:
    """Q elementwise over an array of nonnegative integers."""
    if m.max(initial=0) < 16:
        return _Q_SMALL[m]
    return np.where(m < 16, _Q_SMALL[np.minimum(m, 15)], _stirling_tail(np.maximum(m, 16.0)))


def _bd0(k: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """bd0(k, mu) = k ln(k/mu) + mu - k elementwise, for integers k >= 0 and floats mu >= 0.

    Within |k - mu| < mu it is k log1p((k - mu)/mu) - (k - mu), which keeps its
    digits near k = mu; elsewhere k (ln k - ln mu) - (k - mu), so k/mu cannot
    overflow for a subnormal mu, and k = 0 gives mu.
    """
    dev = k - mu
    near = np.abs(dev) < mu
    log_ratio = np.log(np.maximum(k, 1.0)) - np.log(np.maximum(mu, 5e-324))
    log_ratio[near] = np.log1p(dev[near] / mu[near])
    return k * log_ratio - dev


def log2_binom(n: int, k: int) -> float:
    """log2 of the binomial coefficient, for 0 <= k <= n, at any size.

    Exact below 16 on the smaller side; otherwise Q(n) - Q(k) - Q(n - k) plus
    k ln(n/k) + (n - k) ln(n/(n - k)), the larger side's log taken by log1p so
    that k near n is as accurate as k near 0 (4 ulp at n = 10^6 and 10^12).
    """
    if not 0 <= k <= n:
        raise ValueError(f"binomial requires 0 <= k <= n, got n={n}, k={k}")
    small, large = min(k, n - k), max(k, n - k)
    if small < 16:
        return math.log2(math.comb(n, small))
    spread = small * math.log(n / small) - large * math.log1p(-small / n)
    return (_q(n) - _q(small) - _q(large) + spread) / math.log(2.0)


def _walk(total: int, bounds: Sequence[int]) -> tuple[list, np.ndarray]:
    """The compositions of total under bounds in lexicographic order, as (links, last).

    Each prefix row is repeated once per admissible part of the next level, in ascending
    order.  links[i] holds the prefix row and the part k_i of every row after level i, or
    None, at no cost, where min(b_i, total) = 0 (each k_i is 0, the rows stay); last holds
    the last level's parts.  Needs d >= 1 and total <= sum(bounds).

    The only support guard: every prefix extends to a composition and rows never decrease,
    so a level past min(MAX_SPECTRUM_SUPPORT, MAX_SPECTRUM_CELLS // d) rows is refused
    unbuilt.  Each prefix's count is clipped at guard + 1 before summing, so the sum cannot
    wrap and passes exactly when the true count does; each bound, and what the later levels
    can hold, is clamped to total, which changes no composition and keeps every count in
    int64.  A total past 2^63 - 1 is refused.
    """
    if total > 2**63 - 1:
        raise ResourceLimitError("composition total past 2^63 - 1, the int64 counts")
    guard = min(MAX_SPECTRUM_SUPPORT, MAX_SPECTRUM_CELLS // len(bounds))
    rest = sum(bounds)
    left = np.array([total])
    links = []
    for b in bounds[:-1]:
        rest -= b  # what the later levels can hold
        if min(b, total) == 0:
            links.append(None)
            continue
        lo = np.maximum(0, left - min(rest, total))
        counts = np.minimum(np.minimum(min(b, total), left) - lo, guard) + 1
        ends = np.cumsum(counts)
        _check_size("composition support of at least", int(ends[-1]), guard)
        prefix = np.repeat(np.arange(left.size), counts)
        k = np.arange(ends[-1])
        k -= np.repeat(ends - counts - lo, counts)
        links.append((prefix, k))
        left = left[prefix] - k
    return links, left


def _matrix(links: Sequence, last: np.ndarray) -> np.ndarray:
    """The int64 (support, d) composition matrix of a walk, filled from its links."""
    matrix = np.zeros((last.size, len(links) + 1), dtype=np.int64)
    matrix[:, -1] = last
    row = np.arange(last.size)
    for i in reversed(range(len(links))):
        if links[i] is not None:
            prefix, k = links[i]
            matrix[:, i] = k[row]
            row = prefix[row]
    return matrix


def enumerate_compositions(total: int, bounds: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """All vectors k with sum(k) == total and 0 <= k_i <= bounds_i.

    Lexicographic order, each composition exactly once.  The stream is empty
    when sum(bounds) < total and holds the single all-zero vector for
    total == 0.  Read off the spectrum builders' own walk, 4,096 rows at a
    time; the walk raises ResourceLimitError, before the first tuple, for a
    support past its row guard (see _walk) and for a total past 2^63 - 1.
    """
    if total < 0:
        raise ValueError("composition total must be nonnegative")
    if any(b < 0 for b in bounds):
        raise ValueError("composition bounds must be nonnegative")
    if total > sum(bounds):
        return
    if len(bounds) == 0:
        yield ()
        return
    matrix = _matrix(*_walk(total, bounds))
    for start in range(0, len(matrix), 4096):
        yield from map(tuple, matrix[start : start + 4096].tolist())


def composition_count(total: int, bounds: Sequence[int]) -> int:
    """Number of bounded compositions, by inclusion-exclusion.

    Equals the coefficient of x^total in prod_i (1 + x + ... + x^bounds_i);
    deliberately computed by a different route than the enumerator so the two
    can check each other.  The level subsets S, each signed (-1)^|S|, are
    grouped by their shift sum_{i in S} (bounds_i + 1), built one level at a
    time and kept only up to total: O(d * min(2^d, total + 1)) work at any d.
    """
    if total < 0:
        raise ValueError("composition total must be nonnegative")
    if any(b < 0 for b in bounds):
        raise ValueError("composition bounds must be nonnegative")
    d = len(bounds)
    if d == 0:
        return 1 if total == 0 else 0
    signed = {0: 1}  # shift -> signed count of the level subsets with that shift
    for b in bounds:
        for shift, count in list(signed.items()):
            shifted = shift + b + 1
            if shifted <= total:
                signed[shifted] = signed.get(shifted, 0) - count
    return sum(count * math.comb(total - shift + d - 1, d - 1) for shift, count in signed.items())
