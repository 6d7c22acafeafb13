"""Exact and log-domain combinatorial kernels.

Everything downstream (spectrum weights, entropies, Gaussian moments) reduces
to binomial/multinomial coefficients evaluated over bounded integer
compositions.  Two numeric representations are kept side by side:

* exact arbitrary-precision integers / rationals, used for identity checks
  and moderate system sizes, and
* base-2 logarithms read from one table of log-factorials, rebuilt longer
  from 0! when a request passes its end, used as the overflow-safe
  performance path for arbitrary sizes.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "ResourceLimitError",
    "log2_binom",
    "log2_factorial_table",
    "enumerate_compositions",
    "composition_count",
]

# Largest m the log-factorial table covers; larger requests fail fast.  A
# build holds one extended-precision array (16 bytes per entry) beside the new
# float64 table and the old one, so a process that builds the full table peaks
# near 480 MB of RSS (410 MB when no shorter table came first).  Admits
# L = 10^6 sectors and max_entropy_bound up to n = 10^7.
MAX_LOG2_FACTORIAL = 2**24


class ResourceLimitError(RuntimeError):
    """Requested computation exceeds the desk-scale guards."""


_log2_fact = np.zeros(1)  # _log2_fact[m] == log2(m!), rebuilt longer on demand


def log2_factorial_table(n: int) -> np.ndarray:
    """Read-only view of the log-factorial table covering 0..n: entry m is log2(m!).

    A request past the table's end builds a longer one from 0!, at least
    double the length, and swaps it in.  Entry m is the extended-precision
    running sum of log2(1), ..., log2(m), so it depends only on m and never
    on which requests came first; callers racing to build may each swap in
    their own table, and all of them agree.  Raises ResourceLimitError past
    MAX_LOG2_FACTORIAL, before allocating.
    """
    global _log2_fact
    table = _log2_fact
    if n >= table.shape[0]:
        if n > MAX_LOG2_FACTORIAL:
            raise ResourceLimitError(
                f"log-factorial table up to {n} exceeds guard {MAX_LOG2_FACTORIAL}"
            )
        size = min(max(n + 1, 2 * table.shape[0]), MAX_LOG2_FACTORIAL + 1)
        ext = np.arange(size, dtype=np.longdouble)
        ext[0] = 1  # log2(0!) = log2(1)
        np.log2(ext, out=ext)
        np.cumsum(ext, out=ext)
        table = _log2_fact = ext.astype(np.float64)
    view = table[: n + 1].view()
    view.setflags(write=False)
    return view


def log2_binom(n: int, k: int) -> float:
    """log2 of the binomial coefficient, for 0 <= k <= n.

    Where numpy's longdouble is 80-bit extended precision, the error is at
    most 2 ulp of log2(n!), checked up to n = 10^6 (where that ulp is 3.7e-9
    bits); where longdouble is plain float64 the table is less accurate.
    """
    if not 0 <= k <= n:
        raise ValueError(f"binomial requires 0 <= k <= n, got n={n}, k={k}")
    t = log2_factorial_table(n)
    return float(t[n] - t[k] - t[n - k])


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
