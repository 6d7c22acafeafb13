"""Exact and log-domain combinatorial kernels.

Everything downstream (spectrum weights, entropies, Gaussian moments) reduces
to binomial/multinomial coefficients evaluated over bounded integer
compositions.  Two numeric representations are kept side by side:

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


def enumerate_compositions(total: int, bounds: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """All vectors k with sum(k) == total and 0 <= k_i <= bounds_i.

    Lexicographic order, each composition exactly once.  The stream is empty
    when sum(bounds) < total and holds the single all-zero vector for
    total == 0.  Iterative next-composition steps, independent of the
    spectrum builders' walk so the two can check each other.
    """
    if total < 0:
        raise ValueError("composition total must be nonnegative")
    if any(b < 0 for b in bounds):
        raise ValueError("composition bounds must be nonnegative")
    d = len(bounds)
    if d == 0:
        if total == 0:
            yield ()
        return
    # suffix[i] = bounds[i] + ... + bounds[d-1]
    suffix = [0] * (d + 1)
    for i in range(d - 1, -1, -1):
        suffix[i] = suffix[i + 1] + bounds[i]
    if total > suffix[0]:
        return
    parts = [0] * d
    rem = total
    for i in range(d):  # lexicographic minimum pushes mass to the right
        parts[i] = max(0, rem - suffix[i + 1])
        rem -= parts[i]
    yield tuple(parts)
    while True:
        # rightmost position that can absorb one unit from its right tail
        tail = 0
        j = d - 2
        while j >= 0:
            tail += parts[j + 1]
            if tail > 0 and parts[j] < bounds[j]:
                break
            j -= 1
        if j < 0:
            return
        parts[j] += 1
        rem = tail - 1
        for i in range(j + 1, d):
            parts[i] = max(0, rem - suffix[i + 1])
            rem -= parts[i]
        yield tuple(parts)


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
