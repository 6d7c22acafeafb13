"""Independent reference implementations used only by the tests.

Everything here deliberately avoids the package's algorithms: binomials come
from the Pascal recurrence, composition counts from explicit polynomial
multiplication, compositions from a recursive generator, and entropies from
direct sums over the recursively enumerated support.  The chain-rule
entropies read log-factorials from ``math.lgamma`` and conditional densities
from exact fractions.  The 50-digit references use ``decimal``: exact
factorials below 1000 and Stirling's series with ten Bernoulli terms above.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from typing import Sequence


@lru_cache(maxsize=None)
def pascal_binom(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    if k == 0 or k == n:
        return 1
    return pascal_binom(n - 1, k) + pascal_binom(n - 1, k - 1)


def poly_composition_count(total: int, bounds: tuple[int, ...]) -> int:
    """Coefficient of x^total in prod_i (1 + x + ... + x^bounds_i)."""
    coeffs = [1]
    for b in bounds:
        nxt = [0] * (len(coeffs) + b)
        for i, c in enumerate(coeffs):
            for j in range(b + 1):
                nxt[i + j] += c
        coeffs = nxt
    return coeffs[total] if 0 <= total < len(coeffs) else 0


def brute_compositions(total: int, bounds: tuple[int, ...]):
    """Recursive bounded-composition enumeration (lexicographic by construction)."""
    if not bounds:
        if total == 0:
            yield ()
        return
    first_bound = bounds[0]
    for first in range(min(first_bound, total) + 1):
        for rest in brute_compositions(total - first, bounds[1:]):
            yield (first,) + rest


def finite_weights(occupations: tuple[int, ...], n: int) -> dict[tuple[int, ...], Fraction]:
    L = sum(occupations)
    total = math.comb(L, n)
    out = {}
    for parts in brute_compositions(n, occupations):
        w = 1
        for N, k in zip(occupations, parts):
            w *= math.comb(N, k)
        if w:
            out[parts] = Fraction(w, total)
    return out


def finite_entropy(occupations: tuple[int, ...], n: int) -> float:
    terms = []
    for w in finite_weights(occupations, n).values():
        lam = float(w)
        terms.append(lam * math.log2(lam))
    return -math.fsum(terms)


def thermo_weights(densities: tuple[float, ...], n: int) -> dict[tuple[int, ...], float]:
    d = len(densities)
    out = {}
    for parts in brute_compositions(n, (n,) * d):
        lam = math.exp(math.lgamma(n + 1) - math.fsum(math.lgamma(k + 1) for k in parts))
        for p, k in zip(densities, parts):
            lam *= p**k
        if lam > 0.0:
            out[parts] = lam
    return out


def thermo_entropy(densities: tuple[float, ...], n: int) -> float:
    terms = [lam * math.log2(lam) for lam in thermo_weights(densities, n).values()]
    return -math.fsum(terms)


def asymptotic_formula(densities: tuple[float, ...], n: int, L: int | None = None) -> float:
    sigma = (len(densities) - 1) / 2.0
    C = 0.5 * math.fsum(math.log2(p) for p in densities)
    geometric = n if L is None else n * (L - n) / L
    return C + sigma * math.log2(2.0 * math.pi * math.e * geometric)


def thermo_exact_weights(densities: tuple[Fraction, ...], n: int) -> dict[tuple[int, ...], Fraction]:
    """Multinomial weights multinomial(n; k) * prod p_i^{k_i} as exact fractions, zeros dropped."""
    out = {}
    for parts in brute_compositions(n, (n,) * len(densities)):
        w = Fraction(math.factorial(n))
        for p, k in zip(densities, parts):
            w *= Fraction(p) ** k / math.factorial(k)
        if w:
            out[parts] = w
    return out


def uniform_weights(n: int, d: int) -> dict[tuple[int, ...], Fraction]:
    """The flat weights 1/kappa over every composition of n into d levels."""
    support = list(brute_compositions(n, (n,) * d))
    return {parts: Fraction(1, len(support)) for parts in support}


def _lgamma_factorial_bits(m: int) -> list[float]:
    return [math.lgamma(k + 1) / math.log(2.0) for k in range(m + 1)]


def _pmf_entropy(log2_pmf: list[float]) -> float:
    return -math.fsum(2.0**lw * lw for lw in log2_pmf) if len(log2_pmf) > 1 else 0.0


def chain_rule_entropies(levels: Sequence, ns: Sequence[int], *, finite: bool) -> list[float]:
    """Block entropies by the chain rule over levels, in O(d * n^2) per block size.

    ``levels`` holds occupations when ``finite``, densities otherwise.  Given
    the count s in the levels before level j, the count in level j is
    hypergeometric (finite L) or binomial with density p_j / (1 - sum of the
    earlier densities), and the last level is fixed by the others, so the
    entropy is that of level 0 plus the expected conditional entropies of
    levels 1..d-2.
    """
    d = len(levels)
    if finite:
        L = sum(levels)
        t = _lgamma_factorial_bits(L)

        def hyper(total: int, marked: int, draws: int) -> tuple[list[float], int]:
            lo, hi = max(0, draws - (total - marked)), min(marked, draws)
            norm = t[total] - t[draws] - t[total - draws]
            return [
                t[marked] - t[k] - t[marked - k]
                + t[total - marked] - t[draws - k] - t[total - marked - draws + k] - norm
                for k in range(lo, hi + 1)
            ], lo

        merged = [sum(levels[:j]) for j in range(d + 1)]

        def before(j, n):
            return hyper(L, merged[j], n)

        def given(j, r):
            return hyper(L - merged[j], levels[j], r)[0]

    else:
        p = [Fraction(x) for x in levels]
        t = _lgamma_factorial_bits(max(ns, default=0))

        def binom(m: int, q: Fraction) -> tuple[list[float], int]:
            if q == 0 or q == 1:
                return [0.0], (m if q == 1 else 0)
            lq, l1q = math.log2(q), math.log2(1 - q)
            return [t[m] - t[k] - t[m - k] + k * lq + (m - k) * l1q for k in range(m + 1)], 0

        cum = [sum(p[:j], Fraction(0)) for j in range(d + 1)]

        def before(j, n):
            return binom(n, cum[j])

        def given(j, r):
            return binom(r, p[j] / (1 - cum[j]))[0]

    conditional: dict[tuple[int, int], float] = {}

    def entropy(n: int) -> float:
        total = _pmf_entropy(before(1, n)[0])
        for j in range(1, d - 1):
            lw, lo = before(j, n)
            for s, ls in enumerate(lw, lo):
                if s < n and levels[j] != 0:
                    if (j, n - s) not in conditional:
                        conditional[j, n - s] = _pmf_entropy(given(j, n - s))
                    total += 2.0**ls * conditional[j, n - s]
        return total

    return [entropy(n) for n in ns]


_BERNOULLI = [Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30), Fraction(5, 66),
              Fraction(-691, 2730), Fraction(7, 6), Fraction(-3617, 510), Fraction(43867, 798),
              Fraction(-174611, 330)]
_PI_50 = Decimal("3.14159265358979323846264338327950288419716939937510582097494")


def _decimal_ln_factorial(m: int) -> Decimal:
    """ln m! to 60 digits (call inside a 60-digit context)."""
    if m < 1000:
        return Decimal(math.factorial(m)).ln()
    x = Decimal(m)
    total = x * x.ln() - x + (2 * _PI_50 * x).ln() / 2
    for j, b in enumerate(_BERNOULLI, 1):
        term = Decimal(b.numerator) / (Decimal(b.denominator) * (2 * j) * (2 * j - 1))
        total += term / x ** (2 * j - 1)
    return total


def decimal_log2_binom(n: int, k: int) -> float:
    """log2 C(n, k) from a 60-digit evaluation, rounded once to float."""
    with localcontext() as ctx:
        ctx.prec = 60
        ln_fact = _decimal_ln_factorial
        return float((ln_fact(n) - ln_fact(k) - ln_fact(n - k)) / Decimal(2).ln())


def small_level_weights(m: int, N: int, n: int) -> list[Fraction]:
    """Exact weights C(m, j) C(N, n - j) / C(L, n), j = 0..m, of the sector (m, N) at block size n.

    Built from the ratios C(N, n - j) / C(N, n), so no binomial of N is formed.
    """
    ratios = [Fraction(1)]
    for j in range(1, m + 1):
        ratios.append(ratios[-1] * Fraction(n - j + 1, N - n + j) if n - j >= 0 else Fraction(0))
    raw = [math.comb(m, j) * r for j, r in enumerate(ratios)]
    return [w / sum(raw) for w in raw]


def decimal_entropy(weights: Sequence[Fraction]) -> float:
    """-sum w log2 w of exact weights, from a 50-digit evaluation."""
    with localcontext() as ctx:
        ctx.prec = 50
        total = Decimal(0)
        for w in weights:
            if w:
                x = Decimal(w.numerator) / Decimal(w.denominator)
                total -= x * x.ln()
        return float(total / Decimal(2).ln())
