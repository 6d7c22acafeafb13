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

import enum
import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Sequence

from .combinatorics import (
    composition_count,
    log2_binom,
    log2_factorial_table,
)

__all__ = [
    "ResourceLimitError",
    "SectorConfig",
    "SpectrumEntry",
    "Spectrum",
    "SpectrumSource",
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


class ResourceLimitError(RuntimeError):
    """Requested computation exceeds the desk-scale guards."""


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


class SpectrumSource(enum.Enum):
    FINITE_EXACT = "finite-exact"
    THERMODYNAMIC = "thermodynamic"
    UNIFORM_MIXED = "uniform-mixed"


class SpectrumEntry:
    """One eigenvalue: its composition label and log2 / exact weight."""

    __slots__ = ("parts", "log2_weight", "weight_exact")

    def __init__(self, parts: tuple[int, ...], log2_weight: float, weight_exact: Fraction | None):
        self.parts = parts
        self.log2_weight = log2_weight
        self.weight_exact = weight_exact

    @property
    def weight(self) -> float:
        if self.weight_exact is not None:
            return float(self.weight_exact)
        return 2.0 ** self.log2_weight

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SpectrumEntry({self.parts}, 2**{self.log2_weight:.6g})"


@dataclass
class Spectrum:
    """Block spectrum: entries over compositions of the block size."""

    entries: list[SpectrumEntry]
    block_size: int
    d: int
    source: SpectrumSource
    sector: SectorConfig | None = None
    dropped_mass: float = 0.0

    @property
    def support_size(self) -> int:
        return len(self.entries)

    @property
    def is_exact(self) -> bool:
        return bool(self.entries) and all(e.weight_exact is not None for e in self.entries)

    @functools.cached_property
    def weights(self) -> list[float]:
        """One float weight per entry, converted once and kept."""
        return [e.weight for e in self.entries]

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


def _check_support(n: int, bounds: Sequence[int]) -> None:
    """Refuse more than MAX_SPECTRUM_SUPPORT entries, from the cheap lower bound first."""
    at_least = _support_lower_bound(n, bounds)
    if at_least > MAX_SPECTRUM_SUPPORT:
        raise ResourceLimitError(
            f"spectrum support of at least {at_least} exceeds guard {MAX_SPECTRUM_SUPPORT}"
        )
    support = composition_count(n, bounds)
    if support > MAX_SPECTRUM_SUPPORT:
        raise ResourceLimitError(f"spectrum support {support} exceeds guard {MAX_SPECTRUM_SUPPORT}")


def _product_spectrum(
    n: int,
    bounds: Sequence[int],
    log_factors: Sequence[Sequence[float]],
    log_const: float,
    exact: tuple[Sequence[Sequence[int]], Sequence[Sequence[int]], int, int] | None,
) -> list[SpectrumEntry]:
    """Entries of a product-form spectrum, weight(k) = const * prod_i f_i(k_i).

    ``log_factors[i][k]`` is log2 f_i(k) for k <= bounds[i]; an entry's
    log2 weight is the left-to-right sum of its per-level logs plus
    ``log_const``.  ``exact`` is ``(num, den, scale, shared_den)`` with
    integer tables such that weight(k) = scale * prod num[i][k_i] //
    prod den[i][k_i] / shared_den, or None for the log domain only.

    A depth-first walk over the levels with an explicit stack, children
    pushed in reverse so entries come out in lexicographic order.  Once no
    sites are left every later level takes 0, whose factor is exactly 1
    (log2 +0.0) in all three sources, so the entry is emitted there.
    """
    d = len(bounds)
    suffix = list(accumulate(reversed(bounds), initial=0))[::-1]  # suffix[i] = sum(bounds[i:])
    zeros = [(0,) * (d - i) for i in range(d + 1)]
    units = [[1] * (b + 1) for b in bounds]  # the log domain carries unit integers
    num, den, scale, shared_den = exact or (units, units, 1, 1)
    entries: list[SpectrumEntry] = []
    stack = [(0, n, (), 0.0, 1, 1)]
    while stack:
        i, left, parts, log_sum, nums, dens = stack.pop()
        if left == 0 or i == d - 1:
            if left == 0:
                parts += zeros[i]
            else:  # the last level takes what is left
                parts += (left,)
                log_sum += log_factors[i][left]
                nums *= num[i][left]
                dens *= den[i][left]
            weight = None if exact is None else Fraction(scale * nums // dens, shared_den)
            entries.append(SpectrumEntry(parts, log_sum + log_const, weight))
            continue
        log_f, num_f, den_f = log_factors[i], num[i], den[i]
        for k in range(min(bounds[i], left), max(0, left - suffix[i + 1]) - 1, -1):
            stack.append(
                (i + 1, left - k, parts + (k,), log_sum + log_f[k], nums * num_f[k], dens * den_f[k])
            )
    return entries


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
    _check_support(n, occupations)

    log_factors = [[log2_binom(N, k) for k in range(min(N, n) + 1)] for N in occupations]
    tables = None
    if exact:
        binoms = [[math.comb(N, k) for k in range(min(N, n) + 1)] for N in occupations]
        tables = (binoms, [[1] * (n + 1)] * cfg.d, 1, math.comb(L, n))
    entries = _product_spectrum(n, occupations, log_factors, -log2_binom(L, n), tables)
    return Spectrum(entries, n, cfg.d, SpectrumSource.FINITE_EXACT, sector=cfg)


def thermo_spectrum(
    densities: Sequence,
    n: int,
    cutoff: float = 0.0,
    *,
    exact: bool | None = None,
) -> Spectrum:
    """Thermodynamic-limit spectrum: multinomial(n; k) * prod p_i^{k_i}.

    All compositions of n are finite in number, so ``cutoff=0`` (keep
    everything) is the default.  A positive cutoff drops entries below
    cutoff * max_weight, reports the dropped mass on the result, and is only
    available on the log-domain path.  With ``exact=None`` and no cutoff,
    rational weights are kept for n <= 300 when the densities sum to exactly 1.
    """
    if n < 0:
        raise ValueError(f"block size must be nonnegative, got {n}")
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
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
    _check_support(n, bounds)

    t = log2_factorial_table(n)
    # per-level log factor: k*log2(p_i) - log2(k!), and 0 at k = 0
    log_factors = [
        [0.0] + [k * math.log2(p) - float(t[k]) for k in range(1, b + 1)]
        for p, b in zip(pf, bounds)
    ]
    tables = None
    if exact:
        # common-denominator integers: weight = n! * prod(a_i^{k_i}) / prod(k_i!) / B^n
        B = math.lcm(*(p.denominator for p in dens))
        pows = [[int(p * B) ** k for k in range(b + 1)] for p, b in zip(dens, bounds)]
        fact = list(accumulate(range(1, n + 1), operator.mul, initial=1))
        tables = (pows, [fact] * len(dens), fact[n], B**n)
    entries = _product_spectrum(n, bounds, log_factors, float(t[n]), tables)

    dropped_mass = 0.0
    if cutoff > 0.0:
        threshold = max(e.log2_weight for e in entries) + math.log2(cutoff)
        dropped_mass = math.fsum(2.0**e.log2_weight for e in entries if e.log2_weight < threshold)
        entries = [e for e in entries if e.log2_weight >= threshold]
        if dropped_mass > 10.0 * cutoff:
            raise ValueError(
                f"cutoff {cutoff:g} drops {dropped_mass:.3e} of the weight; "
                "lower the cutoff to keep at least 1 - 10*cutoff"
            )
    return Spectrum(
        entries, n, cfg.d, SpectrumSource.THERMODYNAMIC, sector=cfg, dropped_mass=dropped_mass
    )


def uniform_mixed_spectrum(n: int, d: int) -> Spectrum:
    """Flat spectrum of the uniformly mixed global state: kappa(n) equal weights."""
    kappa = dimension_symmetric_subspace(n, d)
    bounds = (n,) * d
    _check_support(n, bounds)
    units = [[1] * (n + 1)] * d
    entries = _product_spectrum(
        n, bounds, [[0.0] * (n + 1)] * d, -log2_binom(n + d - 1, d - 1), (units, units, 1, kappa)
    )
    return Spectrum(entries, n, d, SpectrumSource.UNIFORM_MIXED, sector=None)


def spectrum_to_json_obj(spectrum: Spectrum) -> dict:
    """JSON-ready dict: header plus one record per entry."""
    sector = spectrum.sector
    if sector is None:
        L_field: int | str | None = None
        occ = None
        dens = None
    elif sector.is_finite:
        L_field = sector.L
        occ = list(sector.occupations)  # type: ignore[arg-type]
        dens = None
    else:
        L_field = "inf"
        occ = None
        dens = [str(p) for p in sector.densities]  # type: ignore[union-attr]
    header = {
        "L": L_field,
        "d": spectrum.d,
        "occupations": occ,
        "densities": dens,
        "n": spectrum.block_size,
        "source": spectrum.source.value,
        "dropped_mass": spectrum.dropped_mass,
    }
    records = []
    for e in spectrum.entries:
        rec: dict = {"composition": list(e.parts), "log2_weight": e.log2_weight}
        if e.weight_exact is not None:
            rec["weight"] = str(e.weight_exact)
        records.append(rec)
    return {"header": header, "entries": records}
