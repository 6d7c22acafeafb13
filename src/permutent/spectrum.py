"""Reduced-density-matrix spectra of n-site blocks.

For a permutation-invariant pure state fixed by the occupation numbers
(N_0 ... N_{d-1}), the block spectrum is multivariate hypergeometric:

    weight(k) = prod_i binom(N_i, k_i) / binom(L, n)

over bounded compositions k of the block size n.  In the thermodynamic limit
(L -> inf at fixed densities p_i) the weights become multinomial,
``multinomial(n; k) * prod p_i^{k_i}``, and for the uniformly mixed global
state the spectrum is flat over all compositions of n.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .combinatorics import (
    ResourceLimitError,
    composition_count,
    log2_binom,
    log2_factorial_table,
)

__all__ = [
    "ResourceLimitError",
    "SectorConfig",
    "SpectrumEntry",
    "Spectrum",
    "dimension_symmetric_subspace",
    "exact_spectrum",
    "thermo_spectrum",
    "uniform_mixed_spectrum",
    "spectrum_to_json_obj",
]

# Exact rational weights are kept automatically up to this system size (L for
# finite sectors, the block size n at L = inf); beyond it the log-domain path
# is the default.
EXACT_AUTO_MAX_L = 300

DENSITY_SUM_TOL = 1e-12

# Largest spectrum a builder materialises; larger requests fail fast before
# enumerating.  Admits the 1,373,701 entries of thermo_spectrum((1/4,)*4, 200).
MAX_SPECTRUM_SUPPORT = 2_000_000

# Largest estimate, support * bit length of the shared denominator, of the
# integer numerators an exact spectrum may hold.  Admits the 5.5e8 bits of
# thermo_spectrum((1/4,)*4, 200, exact=True).
MAX_EXACT_BITS = 600_000_000

# Relative cutoffs must lie in [0, MAX_CUTOFF): the dropped-mass check below
# (at most 10 * cutoff of the weight) only bounds anything while 10 * cutoff < 1.
MAX_CUTOFF = 0.1

_comb = np.frompyfunc(math.comb, 2, 1)  # elementwise binomials as Python integers


@dataclass(frozen=True)
class SectorConfig:
    """One symmetry sector: occupations or densities, one per level.

    Finite systems carry integer occupations (N_0 ... N_{d-1}) with
    L = sum(N); the local dimension d is the number of levels.  The
    thermodynamic limit is a distinct variant carrying densities that sum to
    one; it is not modelled as a large-L sentinel.
    """

    occupations: tuple[int, ...] | None = None
    densities: tuple[Fraction, ...] | None = None

    def __post_init__(self) -> None:
        if (self.occupations is None) == (self.densities is None):
            raise ValueError("exactly one of occupations/densities must be set")
        if self.d < 2:
            raise ValueError(f"local dimension must be >= 2, got {self.d}")
        if self.occupations is not None:
            if any(n < 0 for n in self.occupations):
                raise ValueError("occupations must be nonnegative")
            if sum(self.occupations) < 1:
                raise ValueError("finite sector needs at least one site")
        else:
            assert self.densities is not None
            if any(p < 0 for p in self.densities):
                raise ValueError("densities must be nonnegative")
            if abs(float(sum(self.densities)) - 1.0) > DENSITY_SUM_TOL:
                raise ValueError("densities must sum to 1 within 1e-12")

    @classmethod
    def finite(cls, occupations: Sequence[int]) -> "SectorConfig":
        return cls(occupations=tuple(int(n) for n in occupations))

    @classmethod
    def infinite(cls, densities: Sequence) -> "SectorConfig":
        return cls(densities=tuple(Fraction(p) for p in densities))

    @property
    def d(self) -> int:
        """Local dimension: the number of levels."""
        return len(self.occupations or self.densities or ())

    @property
    def is_finite(self) -> bool:
        return self.occupations is not None

    @property
    def L(self) -> int | None:
        return sum(self.occupations) if self.occupations is not None else None

    @property
    def sigma(self) -> Fraction:
        return Fraction(self.d - 1, 2)

    @property
    def density_fractions(self) -> tuple[Fraction, ...]:
        if self.densities is not None:
            return self.densities
        assert self.occupations is not None
        L = sum(self.occupations)
        return tuple(Fraction(n, L) for n in self.occupations)

    @property
    def density_floats(self) -> tuple[float, ...]:
        return tuple(float(p) for p in self.density_fractions)


class SpectrumEntry(NamedTuple):
    """One eigenvalue: its composition label and log2 / exact weight."""

    parts: tuple[int, ...]
    log2_weight: float
    weight_exact: Fraction | None


@dataclass(eq=False)
class Spectrum:
    """Block spectrum as columns, one row per composition of the block size.

    ``compositions`` is the int64 (support, d) matrix in lexicographic order
    and ``log2_weights`` the float column beside it.  Exact spectra carry
    integer ``numerators`` over one shared ``denominator``; log-domain
    spectra carry None.
    """

    compositions: np.ndarray
    log2_weights: np.ndarray
    block_size: int
    sector: SectorConfig | None = None
    numerators: list[int] | None = None
    denominator: int = 1
    dropped_mass: float = 0.0

    @property
    def d(self) -> int:
        return self.compositions.shape[1]

    @property
    def support_size(self) -> int:
        return len(self.log2_weights)

    @property
    def is_exact(self) -> bool:
        return self.numerators is not None

    @functools.cached_property
    def weights(self) -> list[float]:
        """One float weight per row, converted once and kept."""
        if self.numerators is not None:
            return [num / self.denominator for num in self.numerators]
        return [2.0**x for x in self.log2_weights.tolist()]

    def rows(self) -> Iterator[SpectrumEntry]:
        """The rows one at a time, exact weights as reduced fractions."""
        nums = repeat(None) if self.numerators is None else self.numerators
        den = self.denominator
        for parts, lw, num in zip(self.compositions.tolist(), self.log2_weights.tolist(), nums):
            yield SpectrumEntry(tuple(parts), lw, None if num is None else Fraction(num, den))

    @property
    def entries(self) -> list[SpectrumEntry]:
        return list(self.rows())

    def normalization_residual(self) -> float:
        return abs(math.fsum(self.weights) + self.dropped_mass - 1.0)


def dimension_symmetric_subspace(n: int, d: int) -> int:
    """Dimension of the permutation-symmetric subspace of n sites, binom(n+d-1, d-1)."""
    if n < 0:
        raise ValueError("block size must be nonnegative")
    if d < 2:
        raise ValueError("local dimension must be >= 2")
    return math.comb(n + d - 1, d - 1)


def _support_lower_bound(n: int, bounds: Sequence[int]) -> int:
    """A lower bound on composition_count(n, bounds) in O(d log d) steps.

    Levels are taken largest bound first while the taken bounds sum to at most
    n and the others to at least n; every choice of parts on the taken levels
    then extends to a composition.  Stops once the product passes the guard.
    """
    rest = sum(bounds)
    if n > rest:
        return 0
    taken = 0
    product = 1
    for b in sorted(bounds, reverse=True):
        taken += b
        rest -= b
        if taken > n or rest < n or product > MAX_SPECTRUM_SUPPORT:
            break
        product *= b + 1
    return product


def _check_support(n: int, bounds: Sequence[int]) -> int:
    """The support size, refused above MAX_SPECTRUM_SUPPORT (cheap lower bound first)."""
    at_least = _support_lower_bound(n, bounds)
    if at_least > MAX_SPECTRUM_SUPPORT:
        raise ResourceLimitError(
            f"spectrum support of at least {at_least} exceeds guard {MAX_SPECTRUM_SUPPORT}"
        )
    support = composition_count(n, bounds)
    if support > MAX_SPECTRUM_SUPPORT:
        raise ResourceLimitError(f"spectrum support {support} exceeds guard {MAX_SPECTRUM_SUPPORT}")
    return support


def _check_exact_bits(support: int, denominator: int) -> None:
    """Refuse exact weights past MAX_EXACT_BITS or past the writers' digit limit.

    The numerators hold about support * bit length of the denominator bits.
    A denominator with more decimal digits than Python's int-to-str limit
    could not be written; one of at most 3 * limit bits is below 10^limit.
    """
    bits = support * denominator.bit_length()
    if bits > MAX_EXACT_BITS:
        raise ResourceLimitError(
            f"exact weights need about {bits} numerator bits, over guard {MAX_EXACT_BITS}; "
            "use the log domain (exact=False, --no-exact)"
        )
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # no limit before 3.10.7
    if limit and denominator.bit_length() > 3 * limit and denominator >= 10**limit:
        raise ResourceLimitError(
            f"exact weights have a denominator of more than {limit} decimal digits, "
            "Python's int-to-str limit; use the log domain (exact=False, --no-exact)"
        )


def _product_spectrum(
    n: int,
    bounds: Sequence[int],
    log_factors: Sequence[Sequence[float]],
    log_const: float,
    exact_tables: Sequence[Sequence[int]] | None,
    multinomial: bool = False,
) -> tuple[np.ndarray, np.ndarray, list[int] | None]:
    """Columns of a product-form spectrum, weight(k) = const * prod_i f_i(k_i).

    Returns the composition matrix, the log2 weights and, unless
    ``exact_tables`` is None, the integer numerators.  ``log_factors[i][k]``
    is log2 f_i(k) for k <= bounds[i]; a row's log2 weight is the
    left-to-right sum of its per-level logs plus ``log_const``.  A row's
    numerator is the product of its ``exact_tables[i][k_i]``, times
    multinomial(n; k) with ``multinomial``, taken as the chain of binomials
    binom(left_i, k_i) over the sites left before each level.

    Built one level at a time: every prefix row is repeated once per
    admissible part of the next level, in ascending order, so the rows come
    out in lexicographic order.  Each level keeps the index of every row's
    prefix, and the matrix is filled from them at the end.
    """
    suffix = list(accumulate(reversed(bounds), initial=0))[::-1]  # suffix[i] = sum(bounds[i:])
    left = np.array([n])
    log_sum = np.zeros(1)
    nums = None if exact_tables is None else np.ones(1, dtype=object)
    links = []
    for i, (b, log_f) in enumerate(zip(bounds, map(np.asarray, log_factors))):
        lo = np.maximum(0, left - suffix[i + 1])
        counts = np.minimum(b, left) - lo + 1
        prefix = np.repeat(np.arange(left.size), counts)
        k = np.arange(prefix.size) - np.repeat(np.cumsum(counts) - counts - lo, counts)
        links.append((prefix, k))
        log_sum = log_sum[prefix] + log_f[k]
        if nums is not None:
            nums = nums[prefix] * np.array(exact_tables[i], dtype=object)[k]
            if multinomial and i < len(bounds) - 1:  # the last level's binomial is 1
                nums *= _comb(left[prefix], k)
        left = left[prefix] - k
    compositions = np.empty((left.size, len(bounds)), dtype=np.int64)
    row = np.arange(left.size)
    for i, (prefix, k) in reversed(list(enumerate(links))):
        compositions[:, i] = k[row]
        row = prefix[row]
    return compositions, log_sum + log_const, None if nums is None else nums.tolist()


def exact_spectrum(cfg: SectorConfig, n: int, *, exact: bool | None = None) -> Spectrum:
    """Finite-L block spectrum: prod_i binom(N_i, k_i) / binom(L, n).

    One entry per bounded composition of n (zero-weight labels are never
    materialised; the enumeration bounds already exclude them).  With
    ``exact=None`` rational weights are kept for L <= 300.
    """
    if not cfg.is_finite:
        raise ValueError("exact_spectrum needs a finite sector; use thermo_spectrum for L=inf")
    occupations = cfg.occupations
    assert occupations is not None
    L = sum(occupations)
    if n < 0:
        raise ValueError(f"block size must be nonnegative, got {n}")
    if n > L:
        raise ValueError(f"n exceeds L: n={n}, L={L}")
    if exact is None:
        exact = L <= EXACT_AUTO_MAX_L
    support = _check_support(n, occupations)

    log_factors = [[log2_binom(N, k) for k in range(min(N, n) + 1)] for N in occupations]
    binoms, denominator = None, 1
    if exact:
        denominator = math.comb(L, n)
        _check_exact_bits(support, denominator)
        binoms = [[math.comb(N, k) for k in range(min(N, n) + 1)] for N in occupations]
    compositions, log2_weights, numerators = _product_spectrum(
        n, occupations, log_factors, -log2_binom(L, n), binoms
    )
    return Spectrum(compositions, log2_weights, n, cfg, numerators, denominator)


def thermo_spectrum(
    densities: Sequence,
    n: int,
    cutoff: float = 0.0,
    *,
    exact: bool | None = None,
) -> Spectrum:
    """Thermodynamic-limit spectrum: multinomial(n; k) * prod p_i^{k_i}.

    All compositions of n are finite in number, so ``cutoff=0`` (keep
    everything) is the default.  A positive cutoff, below MAX_CUTOFF = 0.1,
    drops entries below cutoff * max_weight, reports the dropped mass on the
    result, and is only available on the log-domain path.  With
    ``exact=None`` and no cutoff, rational weights are kept for n <= 300
    when the densities sum to exactly 1.
    """
    if n < 0:
        raise ValueError(f"block size must be nonnegative, got {n}")
    if not 0.0 <= cutoff < MAX_CUTOFF:
        raise ValueError(f"cutoff must lie in [0, {MAX_CUTOFF:g}), got {cutoff!r}")
    dens = tuple(Fraction(p) for p in densities)
    cfg = SectorConfig.infinite(dens)
    exact_possible = sum(dens) == 1
    if exact is None:
        exact = exact_possible and cutoff == 0.0 and n <= EXACT_AUTO_MAX_L
    if exact and not exact_possible:
        raise ValueError("exact weights need densities summing to exactly 1")
    if exact and cutoff > 0.0:
        raise ValueError("cutoff truncation is a log-domain feature; pass exact=False")

    pf = cfg.density_floats
    bounds = tuple(n if p > 0 else 0 for p in pf)
    support = _check_support(n, bounds)

    t = log2_factorial_table(n)
    # per-level log factor: k*log2(p_i) - log2(k!), and 0 at k = 0
    log_factors = [
        [0.0] + [k * math.log2(p) - float(t[k]) for k in range(1, b + 1)]
        for p, b in zip(pf, bounds)
    ]
    pows, denominator = None, 1
    if exact:
        # weight = multinomial(n; k) * prod_i a_i^{k_i} / B^n, with a_i = p_i * B integer
        B = math.lcm(*(p.denominator for p in dens))
        denominator = B**n
        _check_exact_bits(support, denominator)
        pows = [[int(p * B) ** k for k in range(b + 1)] for p, b in zip(dens, bounds)]
    compositions, log2_weights, numerators = _product_spectrum(
        n, bounds, log_factors, float(t[n]), pows, multinomial=True
    )

    dropped_mass = 0.0
    if cutoff > 0.0:
        threshold = log2_weights.max() + math.log2(cutoff)
        keep = log2_weights >= threshold
        dropped_mass = math.fsum(2.0**x for x in log2_weights[~keep].tolist())
        compositions, log2_weights = compositions[keep], log2_weights[keep]
        if dropped_mass > 10.0 * cutoff:
            raise ValueError(
                f"cutoff {cutoff:g} drops {dropped_mass:.3e} of the weight; "
                "lower the cutoff to keep at least 1 - 10*cutoff"
            )
    return Spectrum(compositions, log2_weights, n, cfg, numerators, denominator, dropped_mass)


def uniform_mixed_spectrum(n: int, d: int) -> Spectrum:
    """Flat spectrum of the uniformly mixed global state: kappa(n) equal weights."""
    kappa = dimension_symmetric_subspace(n, d)
    bounds = (n,) * d
    support = _check_support(n, bounds)
    compositions, log2_weights, _ = _product_spectrum(
        n, bounds, [[0.0] * (n + 1)] * d, -log2_binom(n + d - 1, d - 1), None
    )
    return Spectrum(compositions, log2_weights, n, numerators=[1] * support, denominator=kappa)


def spectrum_to_json_obj(spectrum: Spectrum) -> dict:
    """JSON-ready dict: header plus one record per entry."""
    sector = spectrum.sector
    if sector is None:
        L_field, occ, dens, source = None, None, None, "uniform-mixed"
    elif sector.is_finite:
        L_field, occ, dens, source = sector.L, list(sector.occupations), None, "finite-exact"
    else:
        dens = [str(p) for p in sector.densities]  # type: ignore[union-attr]
        L_field, occ, source = "inf", None, "thermodynamic"
    header = {
        "L": L_field,
        "d": spectrum.d,
        "occupations": occ,
        "densities": dens,
        "n": spectrum.block_size,
        "source": source,
        "dropped_mass": spectrum.dropped_mass,
    }
    records = []
    for e in spectrum.rows():
        rec: dict = {"composition": list(e.parts), "log2_weight": e.log2_weight}
        if e.weight_exact is not None:
            rec["weight"] = str(e.weight_exact)
        records.append(rec)
    return {"header": header, "entries": records}
