"""Reduced-density-matrix spectra of n-site blocks.

For a permutation-invariant pure state fixed by the occupation numbers
(N_0 ... N_{d-1}), the block spectrum is multivariate hypergeometric:

    weight(k) = prod_i binom(N_i, k_i) / binom(L, n)

over bounded compositions k of the block size n.  In the thermodynamic limit
(L -> inf at fixed densities p_i) the weights become multinomial,
``multinomial(n; k) * prod p_i^{k_i}``; for the uniformly mixed global state
the spectrum is flat.  The first two are a constant times one factor per
level, built by one private builder, ``_sector_spectrum``, which holds both
exact recipes, chosen by the sector kind.  Their log2 column is derived on
first read, from log factors centred so that no digits cancel at any size
(``_product_form``).
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .combinatorics import MAX_SPECTRUM_CELLS, ResourceLimitError, _bd0, _check_size, _matrix
from .combinatorics import _q, _q_array, _walk, log2_binom

__all__ = [
    "SectorConfig",
    "SpectrumEntry",
    "Spectrum",
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

# Largest estimate, support * bit length of the shared denominator, of the
# integer numerators an exact spectrum may hold.  Admits the 5.5e8 bits of
# thermo_spectrum((1/4,)*4, 200, exact=True).
MAX_EXACT_BITS = 600_000_000

# Relative cutoffs must lie in [0, MAX_CUTOFF): the dropped-mass check below
# (at most 10 * cutoff of the weight) only bounds anything while 10 * cutoff < 1.
MAX_CUTOFF = 0.1

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
            try:
                integral = tuple(map(int, self.occupations))
            except (OverflowError, ValueError):  # int() of an infinity or a NaN
                integral = None
            if integral != tuple(self.occupations):
                raise ValueError(f"occupations must be integers, got {self.occupations}")
            object.__setattr__(self, "occupations", integral)
            if any(n < 0 for n in self.occupations):
                raise ValueError("occupations must be nonnegative")
            if sum(self.occupations) < 1:
                raise ValueError("finite sector needs at least one site")
        else:
            assert self.densities is not None
            # a Fraction's sign is its numerator's: comparing each Fraction with 0 is slow
            if any(getattr(p, "numerator", p) < 0 for p in self.densities):
                raise ValueError("densities must be nonnegative")
            if abs(float(self._density_sum) - 1.0) > DENSITY_SUM_TOL:
                raise ValueError("densities must sum to 1 within 1e-12")

    @classmethod
    def finite(cls, occupations: Sequence[int]) -> "SectorConfig":
        return cls(occupations=tuple(occupations))

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
    def density_fractions(self) -> tuple[Fraction, ...]:
        if self.densities is not None:
            return self.densities
        assert self.occupations is not None
        L = sum(self.occupations)
        return tuple(Fraction(n, L) for n in self.occupations)

    @functools.cached_property
    def density_floats(self) -> tuple[float, ...]:
        return tuple(float(p) for p in self.density_fractions)

    @functools.cached_property
    def _density_sum(self) -> Fraction:
        """The exact sum of the densities, taken once: the check above and thermo_spectrum read it.

        Summed as integers over the common denominator: one big-integer sum, not a reduced
        Fraction per addition.
        """
        ratios = [p.as_integer_ratio() for p in self.density_fractions]
        common = math.lcm(*(q for _, q in ratios))
        return Fraction(sum(a * (common // q) for a, q in ratios), common)


class SpectrumEntry(NamedTuple):
    """One eigenvalue: its composition label and log2 / exact weight."""

    parts: tuple[int, ...]
    log2_weight: float
    weight_exact: Fraction | None


@dataclass(eq=False)
class Spectrum:
    """Block spectrum as columns, one row per composition of the block size.

    ``compositions`` is the int64 (support, d) matrix in lexicographic order
    and ``log2_weights`` the float column beside it.  A sector's spectrum may
    be built with ``log2_weights=None``: the column is then derived from the
    sector and the matrix on first read (``_log2_column``) and kept.  Exact
    spectra carry integer ``numerators`` over one shared ``denominator``;
    log-domain spectra carry None.
    """

    compositions: np.ndarray
    log2_weights: np.ndarray | None
    block_size: int
    sector: SectorConfig | None = None
    numerators: list[int] | None = None
    denominator: int = 1
    dropped_mass: float = 0.0

    def __post_init__(self) -> None:
        if self.log2_weights is None:
            del self.log2_weights  # derived by __getattr__ on first read

    def __getattr__(self, name: str):
        if name != "log2_weights":
            raise AttributeError(name)
        self.log2_weights = _log2_column(self)
        return self.log2_weights

    @property
    def d(self) -> int:
        return self.compositions.shape[1]

    @property
    def support_size(self) -> int:
        return len(self.compositions)

    @property
    def is_exact(self) -> bool:
        return self.numerators is not None

    @functools.cached_property
    def weights(self) -> list[float]:
        """One float weight per row, converted once and kept."""
        if self.numerators is not None:
            return [num / self.denominator for num in self.numerators]
        return [2.0**x for x in self.log2_weights.tolist()]

    @property
    def entries(self) -> list[SpectrumEntry]:
        """The rows as entries, exact weights as reduced fractions."""
        nums = repeat(None) if self.numerators is None else self.numerators
        den = self.denominator
        return [
            SpectrumEntry(tuple(parts), lw, None if num is None else Fraction(num, den))
            for parts, lw, num in zip(self.compositions.tolist(), self.log2_weights.tolist(), nums)
        ]

    def normalization_residual(self) -> float:
        return abs(math.fsum(self.weights) + self.dropped_mass - 1.0)


def _check_symmetric(n: int, d: int) -> None:
    if n < 0:
        raise ValueError("block size must be nonnegative")
    if d < 2:
        raise ValueError("local dimension must be >= 2")


def _check_exact_bits(support: int, denominator: int | None, log2_den: float = 0.0) -> None:
    """Refuse exact weights past MAX_EXACT_BITS or past the writers' digit limit.

    The numerators hold about support * bit length of the denominator bits.
    A denominator with more decimal digits than Python's int-to-str limit
    could not be written; one of at most 3 * limit bits is below 10^limit.
    Before it is built, pass None and an estimate log2_den of its log2, good
    to well under a bit: only what surely passes a guard is refused then.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # no limit before 3.10.7
    if denominator is None:
        bit_length, past_digits = int(log2_den), log2_den - 1.0 > limit * math.log2(10)
    else:
        bit_length = denominator.bit_length()
        past_digits = bit_length > 3 * limit and denominator >= 10**limit
    if support * bit_length > MAX_EXACT_BITS:
        raise ResourceLimitError(
            f"exact weights need about {support * bit_length} numerator bits, over guard "
            f"{MAX_EXACT_BITS}; use the log domain (exact=False, --no-exact)"
        )
    if limit and past_digits:
        raise ResourceLimitError(
            f"exact weights have a denominator of more than {limit} decimal digits, "
            "Python's int-to-str limit; use the log domain (exact=False, --no-exact)"
        )


def _product_form(cfg: SectorConfig, n: int) -> tuple[float, Callable, tuple, tuple[int, ...]]:
    """The weights at block size n as 2^c * prod_i 2^f(x_i, k_i): (c, f, levels x, bounds b).

    Centred on the mean counts with Q and bd0 (see combinatorics), so every term is O(log n).
    Finite L, y = n/L: f(N, k) ln 2 = Q(N) - Q(k) - Q(N-k) - bd0(k, yN) - bd0(N-k, (1-y)N),
    c ln 2 = Q(n) + Q(L-n) - Q(L), x_i = b_i = N_i.  L = inf: f(p, k) ln 2 = -bd0(k, np) - Q(k),
    c ln 2 = Q(n), x_i = p_i (floats), b_i = n if p_i > 0 else 0.  c + sum_i f is log2 of the
    weight because sum_i k_i = n.  f takes arrays x and k (integer) of one shape; merging
    levels adds their x.
    """
    if max(n, cfg.L or 0) > 2**63 - 1:  # f takes int64 counts
        sizes = f"n = {n}" if cfg.L is None else f"n = {n} or L = {cfg.L}"
        raise ResourceLimitError(f"{sizes} is past the int64 counts of the form")
    ln2, occ = math.log(2.0), cfg.occupations
    if occ is not None:
        L = sum(occ)
        shares = np.array([[n / L], [(L - n) / L]])  # y and 1 - y, each rounded once

        def f(N, k):
            m = np.array((k, N - k, N))
            q = _q_array(m)
            g = q[:2] + _bd0(m[:2], shares * N)  # the k and N - k terms
            return (q[2] - g[0] - g[1]) / ln2
        return (_q(n) + _q(L - n) - _q(L)) / ln2, f, occ, occ
    pf = cfg.density_floats
    bounds = tuple(n if p > 0 else 0 for p in pf)
    return _q(n) / ln2, lambda p, k: -(_bd0(k, n * p) + _q_array(k)) / ln2, pf, bounds


def _level_ranges(n: int, bounds: Sequence[int]) -> list[tuple[int, int]]:
    """Each level's counts lo..hi at block size n that occur in some composition, as (lo, hi)."""
    short = n - sum(bounds)  # once: a level's lo is what the other levels' bounds cannot hold
    return [(short + b if short + b > 0 else 0, b if b < n else n) for b in bounds]


def _stacked(xs: Sequence, ranges: Sequence[tuple[int, int]]) -> tuple:
    """Arrays (x, k) holding each level's x beside each k of its range, and each level's start."""
    sizes = [hi - lo + 1 for lo, hi in ranges]
    starts = list(accumulate(sizes[:-1], initial=0))
    shifts = np.array([lo - start for (lo, _), start in zip(ranges, starts)])
    k = np.arange(starts[-1] + sizes[-1]) + shifts.repeat(sizes)  # lo..hi at start..
    return np.array(xs).repeat(sizes), k, starts


def _log2_column(spectrum: Spectrum) -> np.ndarray:
    """The log2 weights of a sector's spectrum, read off its composition matrix.

    Each weight is 2^c prod_i 2^f(x_i, k_i) (``_product_form``): f is called once, over every
    level's ``_level_ranges``, and a row's log2 weight is the left-to-right sum of its factors
    in level order, then c.  A level whose bound, clamped to n, is 0 has k_i = 0 in every
    row and is skipped, as the walk skips it, unless it is the last.  A one-row spectrum is
    a point mass, of log2 weight +0.0.
    """
    matrix, n = spectrum.compositions, spectrum.block_size
    if len(matrix) == 1:
        return np.zeros(1)
    c, f, xs, bounds = _product_form(spectrum.sector, n)
    ranges = _level_ranges(n, bounds)
    x, ks, starts = _stacked(xs, ranges)
    factors = f(x, ks)
    column = np.zeros(len(matrix))
    last = len(bounds) - 1
    for i, (b, start, (lo, _)) in enumerate(zip(bounds, starts, ranges)):
        if min(b, n) > 0 or i == last:
            column += factors[matrix[:, i] + (start - lo)]
    column += c
    return column


def _exact_factors(
    factor: Callable, a: Sequence[int], ranges: Sequence[tuple[int, int]]
) -> tuple[np.ndarray, list[int]]:
    """An object array of factor(a_i, k) over each level's range, and each level's offset:
    level i's k sits at index k + offset_i."""
    table, offsets = [], []
    for a_i, (lo, hi) in zip(a, ranges):
        offsets.append(len(table) - lo)
        table += [factor(a_i, k) for k in range(lo, hi + 1)]
    return np.array(table, dtype=object), offsets


def _binomial_rows(lo: int, hi: int) -> np.ndarray:
    """binom(m, k) for m = lo..hi and k = 0..m, row after row, as one object array: binom(m, k)
    sits at index T(m) - T(lo) + k, T(m) = m(m + 1)/2.  Each row runs the exact ratio
    binom(m, k + 1) = binom(m, k) * (m - k) // (k + 1)."""
    table = []
    for m in range(lo, hi + 1):
        table += accumulate(range(m), lambda c, k: c * (m - k) // (k + 1), initial=1)
    return np.array(table, dtype=object)


def _sector_spectrum(cfg: SectorConfig, n: int, exact: bool) -> Spectrum:
    """The spectrum of a finite or L = inf sector at block size n, exact weights if ``exact``;
    its log2 column is left to ``_log2_column``, on first read.

    An exact numerator is one integer per level by the sector's recipe: binom(N_i, k_i) over
    binom(L, n) at finite L; a_i^{k_i} over B^n at L = inf, a_i = p_i * B integer, times
    multinomial(n; k) as binom(left_i, k_i) over the sites left before each level, from one
    ``_binomial_rows`` table per level.  At L = inf every bound is n or 0, so left_i fills a
    whole range, and the last level with sites to hold takes what is left: a binomial of 1.

    The walk (combinatorics' _walk) runs first, so that its guard decides the size alone, then
    the exact guard, on the estimate and then on the denominator; only then is a table built.
    The rows come out in lexicographic order, and numerators are gathered along the walk's
    links.  Every level's range, and every binomial table, is at most the support, so the
    tables are as bounded as the walk.
    """
    bounds = _product_form(cfg, n)[3]  # O(1), with the form's int64 guard
    links, last = _walk(n, bounds)
    if not exact:
        return Spectrum(_matrix(links, last), None, n, cfg)
    left = None  # the sites left before each level, at L = inf
    if cfg.is_finite:
        factor, B, a, log2_den = math.comb, cfg.L, cfg.occupations, log2_binom(cfg.L, n)
    else:
        B = math.lcm(*(p.denominator for p in cfg.densities))
        factor, log2_den, left = pow, n * math.log2(B), np.array([n])
        a = [p.numerator * (B // p.denominator) for p in cfg.densities]
    _check_exact_bits(last.size, None, log2_den)
    denominator = factor(B, n)
    _check_exact_bits(last.size, denominator)
    table, offsets = _exact_factors(factor, a, _level_ranges(n, bounds))
    nums, rest = np.ones(1, dtype=object), sum(bounds)
    for link, offset, b in zip(links, offsets, bounds):
        rest -= b  # the sites the later levels can hold
        if link is None:  # k = 0 in every row, at bound 0 or n = 0: a factor of 1
            continue
        prefix, k = link
        nums = nums[prefix] * table[k + offset]
        if left is not None and rest:  # at the last level with sites to hold, binom = 1
            lo = int(left.min())
            rows = _binomial_rows(lo, int(left.max()))
            left = left[prefix]
            nums *= rows[left * (left + 1) // 2 - lo * (lo + 1) // 2 + k]
            left -= k
    nums = (nums * table[last + offsets[-1]]).tolist()
    return Spectrum(_matrix(links, last), None, n, cfg, nums, denominator)


def exact_spectrum(cfg: SectorConfig, n: int, *, exact: bool | None = None) -> Spectrum:
    """Finite-L block spectrum: prod_i binom(N_i, k_i) / binom(L, n).

    One entry per bounded composition of n (zero-weight labels are never
    materialised; the enumeration bounds already exclude them).  With
    ``exact=None`` rational weights are kept for L <= 300.
    """
    if not cfg.is_finite:
        raise ValueError("exact_spectrum needs a finite sector; use thermo_spectrum for L=inf")
    L = cfg.L
    if n < 0:
        raise ValueError(f"block size must be nonnegative, got {n}")
    if n > L:
        raise ValueError(f"n exceeds L: n={n}, L={L}")
    return _sector_spectrum(cfg, n, L <= EXACT_AUTO_MAX_L if exact is None else exact)


def thermo_spectrum(
    densities: Sequence | SectorConfig,
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
    when the densities sum to exactly 1.  ``densities`` may also be an L = inf
    SectorConfig, which is used as it is.
    """
    if n < 0:
        raise ValueError(f"block size must be nonnegative, got {n}")
    if not 0.0 <= cutoff < MAX_CUTOFF:
        raise ValueError(f"cutoff must lie in [0, {MAX_CUTOFF:g}), got {cutoff!r}")
    cfg = densities if isinstance(densities, SectorConfig) else SectorConfig.infinite(densities)
    if cfg.is_finite:
        raise ValueError("thermo_spectrum needs densities; use exact_spectrum for finite L")
    # a density that rounds to float 0.0 drops its level, harmless only in the log domain
    exact_possible = cfg._density_sum == 1 and all(
        f > 0 or p == 0 for p, f in zip(cfg.density_fractions, cfg.density_floats)
    )
    if exact is None:
        exact = exact_possible and cutoff == 0.0 and n <= EXACT_AUTO_MAX_L
    if exact and not exact_possible:
        raise ValueError("exact weights need densities summing to exactly 1, none rounding to 0.0")
    if exact and cutoff > 0.0:
        raise ValueError("cutoff truncation is a log-domain feature; pass exact=False")

    spec = _sector_spectrum(cfg, n, exact)
    if cutoff > 0.0:
        log2_weights = spec.log2_weights
        keep = log2_weights >= log2_weights.max() + math.log2(cutoff)
        spec.dropped_mass = math.fsum(2.0**x for x in log2_weights[~keep].tolist())
        spec.compositions, spec.log2_weights = spec.compositions[keep], log2_weights[keep]
        if spec.dropped_mass > 10.0 * cutoff:
            raise ValueError(
                f"cutoff {cutoff:g} drops {spec.dropped_mass:.3e} of the weight; "
                "lower the cutoff to keep at least 1 - 10*cutoff"
            )
    return spec


def uniform_mixed_spectrum(n: int, d: int) -> Spectrum:
    """Flat spectrum of the uniformly mixed global state: kappa(n) equal weights."""
    _check_symmetric(n, d)
    _check_size("cells of a single row", d, MAX_SPECTRUM_CELLS)  # before (n,) * d is built
    links, last = _walk(n, (n,) * d)
    kappa = last.size
    log2_weights = np.full(kappa, 0.0 - log2_binom(n + d - 1, d - 1))  # +0.0 at n = 0
    compositions = _matrix(links, last)
    return Spectrum(compositions, log2_weights, n, numerators=[1] * kappa, denominator=kappa)


def spectrum_header(spectrum: Spectrum) -> dict:
    """The header of spectrum_to_json_obj: sector, block size, source, dropped mass."""
    sector = spectrum.sector
    if sector is None:
        L_field, occ, dens, source = None, None, None, "uniform-mixed"
    elif sector.is_finite:
        L_field, occ, dens, source = sector.L, list(sector.occupations), None, "finite-exact"
    else:
        dens = [str(p) for p in sector.densities]  # type: ignore[union-attr]
        L_field, occ, source = "inf", None, "thermodynamic"
    return {
        "L": L_field,
        "d": spectrum.d,
        "occupations": occ,
        "densities": dens,
        "n": spectrum.block_size,
        "source": source,
        "dropped_mass": spectrum.dropped_mass,
    }


def weight_strings(spectrum: Spectrum, rows: slice = slice(None)) -> list[str] | None:
    """Each exact weight of the rows as str(Fraction(num, den)), without the Fraction; None in
    the log domain.

    Each distinct numerator of the rows is formatted once, and each distinct reduced
    denominator den // g once: compositions that permute equal levels share a numerator, and
    the rows hold few distinct g = gcd(num, den)."""
    if spectrum.numerators is None:
        return None
    den, tails = spectrum.denominator, {}

    def string(num: int) -> str:
        g = math.gcd(num, den)
        if g not in tails:
            tails[g] = "" if g == den else f"/{den // g}"
        return f"{num // g}{tails[g]}"

    nums = spectrum.numerators[rows]
    distinct = dict.fromkeys(nums)
    return list(map(dict(zip(distinct, map(string, distinct))).__getitem__, nums))


def spectrum_to_json_obj(spectrum: Spectrum) -> dict:
    """JSON-ready dict: header plus one record per entry."""
    rows = zip(spectrum.compositions.tolist(), spectrum.log2_weights.tolist())
    records = [{"composition": parts, "log2_weight": lw} for parts, lw in rows]
    for record, weight in zip(records, weight_strings(spectrum) or ()):
        record["weight"] = weight
    return {"header": spectrum_header(spectrum), "entries": records}
