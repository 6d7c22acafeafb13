import dataclasses
import math
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from permutent.entropy import (
    asymptotic_entropy,
    bits_to_nats,
    block_entropy,
    entropy_of_spectrum,
    entropy_report,
    finite_size_corrections,
    fit_prefactor,
    max_entropy_bound,
)
from permutent.gaussian import build_gaussian, gaussian_entropy
from permutent.oracle import build_state, dense_eigenvalues, partial_trace
from permutent.spectrum import (
    ResourceLimitError,
    SectorConfig,
    Spectrum,
    _level_ranges,
    _product_form,
    exact_spectrum,
    thermo_spectrum,
    uniform_mixed_spectrum,
)

from _oracles import (
    asymptotic_formula,
    chain_rule_entropies,
    decimal_entropy,
    finite_entropy,
    small_level_weights,
    thermo_entropy,
)

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)
TINY = Fraction(1, 2**30)
LN2 = math.log(2.0)

# closed form for the L=4, N=(2,2), n=2 block: weights {1/6, 2/3, 1/6}
WORKED_ENTROPY = math.log2(6.0) / 3.0 + (2.0 / 3.0) * math.log2(1.5)


class TestEntropyOfSpectrum:
    def test_maximally_mixed_qubit(self):
        assert entropy_of_spectrum(uniform_mixed_spectrum(1, 2)) == pytest.approx(1.0, abs=1e-12)

    def test_worked_case(self):
        s = exact_spectrum(SectorConfig.finite((2, 2)), 2)
        assert entropy_of_spectrum(s) == pytest.approx(WORKED_ENTROPY, abs=1e-12)

    def test_empty_block_is_pure(self):
        s = exact_spectrum(SectorConfig.finite((3, 2)), 0)
        assert entropy_of_spectrum(s) == 0.0

    def test_log_domain_spectrum(self):
        s = exact_spectrum(SectorConfig.finite((40, 40)), 20, exact=False)
        expected = finite_entropy((40, 40), 20)
        assert entropy_of_spectrum(s) == pytest.approx(expected, abs=1e-10)

    def test_log_domain_result_does_not_depend_on_call_order(self):
        large = SectorConfig.finite((400,) * 5)
        alone = entropy_of_spectrum(exact_spectrum(large, 40))
        exact_spectrum(SectorConfig.finite((60,) * 5), 30)
        assert entropy_of_spectrum(exact_spectrum(large, 40)) == alone

    @pytest.mark.parametrize("m, N, n", [(1, 10**6, 999_999), (3, 4 * 10**6, 2 * 10**6)])
    def test_large_sector_against_a_50_digit_value(self, m, N, n):
        spec = exact_spectrum(SectorConfig.finite((m, N)), n)
        assert spec.normalization_residual() < 1e-12
        expected = decimal_entropy(small_level_weights(m, N, n))
        assert entropy_of_spectrum(spec) == pytest.approx(expected, abs=1e-13)

    def test_converts_each_exact_weight_once(self, conversion_counter):
        s = conversion_counter.wrap(exact_spectrum(SectorConfig.finite((6, 5, 4)), 7))
        entropy_of_spectrum(s)
        assert conversion_counter.conversions == s.support_size == 26

    def test_unnormalized_rejected(self):
        bogus = Spectrum(
            compositions=np.array([[1, 0], [0, 1]]),
            log2_weights=np.array([-1.0, -1.5]),
            block_size=1,
        )
        with pytest.raises(ValueError, match="not normalized"):
            entropy_of_spectrum(bogus)


class TestBlockEntropy:
    def test_agrees_with_enumeration_finite(self):
        rng = random.Random(3)
        for _ in range(15):
            d = rng.randint(2, 5)
            occupations = tuple(rng.randint(0, 8) for _ in range(d))
            if sum(occupations) == 0:
                occupations = (1,) + occupations[1:]
            cfg = SectorConfig.finite(occupations)
            n = rng.randint(0, cfg.L)
            assert block_entropy(cfg, n) == pytest.approx(
                finite_entropy(occupations, n), abs=1e-9
            )

    def test_agrees_with_enumeration_thermo(self):
        for densities, n in [
            ((0.5, 0.5), 23),
            ((1 / 3, 1 / 3, 1 / 3), 14),
            ((0.1, 0.2, 0.3, 0.4), 9),
            ((0.5, 0.5, 0.0), 11),
        ]:
            cfg = SectorConfig.infinite(densities)
            assert block_entropy(cfg, n) == pytest.approx(thermo_entropy(densities, n), abs=1e-9)

    def test_agrees_with_spectrum_path(self):
        cfg = SectorConfig.finite((20, 25, 15))
        for n in (0, 1, 7, 30, 60):
            via_spectrum = entropy_of_spectrum(exact_spectrum(cfg, n))
            assert block_entropy(cfg, n) == pytest.approx(via_spectrum, abs=1e-9)

    def test_large_block_against_a_40_digit_value(self):
        # -sum w log2 w over Binomial(20000, 1/3) in 40-digit arithmetic (mpmath); the
        # float densities do not sum to exactly 1, which bounds the agreement near 1e-11
        cfg = SectorConfig.infinite((THIRD, 1 - THIRD))
        assert block_entropy(cfg, 20000) == pytest.approx(8.1059862679807468281, abs=1e-10)

    def test_large_sector_against_a_50_digit_value(self):
        expected = decimal_entropy(small_level_weights(2, 16_000_000, 3))
        assert expected == pytest.approx(8.5459869083961843e-6, abs=1e-20)
        got = block_entropy(SectorConfig.finite((2, 16_000_000)), 3)
        assert got == pytest.approx(expected, abs=1e-13)

    def test_sector_past_2_to_the_24_answers(self):
        finite = block_entropy(SectorConfig.finite((10**8, 10**8)), 1000)
        thermo = block_entropy(SectorConfig.infinite((HALF, HALF)), 1000)
        # sampling without replacement from L = 2e8 sites lowers S by about (n/L)/(2 ln 2)
        assert 0 < thermo - finite < 1e-5

    def test_memory_at_sixteen_million_sites(self):
        cfg = SectorConfig.finite((4 * 10**6,) * 4)
        tracemalloc.start()
        try:
            got = block_entropy(cfg, 8 * 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50 * 2**20
        assert got == pytest.approx(asymptotic_entropy(cfg, 8 * 10**6), abs=1e-5)

    @pytest.mark.parametrize(
        "cfg, n",
        [(SectorConfig.infinite((p, 1 - p)), n) for p in (TINY, Fraction(1, 2**10), HALF)
         for n in (10, 1000, 10**6)]
        + [(SectorConfig.infinite((TINY, Fraction(1, 8), Fraction(7, 8) - TINY)), 10**5)]
        + [(SectorConfig.finite(occ), n) for occ in ((1, 10**6), (7, 10**6 - 7), (300, 500_000))
           for n in (10, 1000, 500_000)],
    )
    def test_window_against_the_full_range(self, cfg, n):
        # skewed densities down to 2^-30 (about 1e-9); every density is exact in binary
        c = _product_form(cfg, n)[0]
        full = -math.fsum([c] + [pmf @ own / pmf.sum() for _, own, pmf in _level_laws(cfg, n)])
        assert block_entropy(cfg, n) == pytest.approx(full, abs=2e-14)

    def test_boundaries_are_pure(self):
        cfg = SectorConfig.finite((5, 5))
        assert block_entropy(cfg, 0) == 0.0
        assert block_entropy(cfg, 10) == 0.0
        # one occupied level: every marginal is a point mass, and the
        # entropy must come out as +0.0, not -0.0
        for pure in (SectorConfig.finite((0, 5, 0)), SectorConfig.infinite((0, 1, 0))):
            s = block_entropy(pure, 3)
            assert s == 0.0 and math.copysign(1.0, s) == 1.0

    def test_point_mass_spectra_have_positive_zero_entropy(self):
        for spec in (
            exact_spectrum(SectorConfig.finite((5, 5)), 0),
            exact_spectrum(SectorConfig.finite((5, 5)), 0, exact=False),
            thermo_spectrum((0, 1, 0), 3),
            thermo_spectrum((0, 1, 0), 3, exact=False),
            uniform_mixed_spectrum(0, 3),
            # one occupied level at 0 < n < L
            exact_spectrum(SectorConfig.finite((0, 5, 0)), 3),
            exact_spectrum(SectorConfig.finite((0, 5, 0)), 3, exact=False),
            exact_spectrum(SectorConfig.finite((400, 0)), 170, exact=False),
        ):
            s = entropy_of_spectrum(spec)
            assert s == 0.0 and math.copysign(1.0, s) == 1.0

    def test_duality(self):
        cfg = SectorConfig.finite((7, 6, 5))
        for n in range(cfg.L + 1):
            assert block_entropy(cfg, n) == pytest.approx(
                block_entropy(cfg, cfg.L - n), abs=1e-9
            )


def _block_size(data, L):
    """0, L or a random block size in between, drawn evenly."""
    return data.draw(st.one_of(st.just(0), st.just(L), st.integers(min_value=0, max_value=L)))


class TestEntropyRoutes:
    """block_entropy, spectrum and dense oracle agree, empty levels and n in {0, L} included."""

    @given(st.data())
    @settings(max_examples=100)
    def test_finite_sectors(self, data):
        d = data.draw(st.integers(min_value=2, max_value=5))
        occupations = data.draw(
            st.lists(st.integers(min_value=0, max_value=6), min_size=d, max_size=d).filter(any)
        )
        cfg = SectorConfig.finite(occupations)
        n = _block_size(data, cfg.L)
        exact = block_entropy(cfg, n)
        assert exact == pytest.approx(entropy_of_spectrum(exact_spectrum(cfg, n)), abs=1e-10)
        if d**cfg.L <= 729:
            dense = dense_eigenvalues(partial_trace(build_state(cfg), n))
            assert exact == pytest.approx(-math.fsum(v * math.log2(v) for v in dense), abs=1e-10)

    @given(st.data())
    @settings(max_examples=100)
    def test_thermodynamic_limit(self, data):
        d = data.draw(st.integers(min_value=2, max_value=5))
        counts = data.draw(
            st.lists(st.integers(min_value=0, max_value=4), min_size=d, max_size=d).filter(any)
        )
        # all mass in level 0 is drawn on its own, as it is rare among the counts
        counts = data.draw(st.sampled_from([counts, [1] + [0] * (d - 1)]))
        densities = [Fraction(c, sum(counts)) for c in counts]
        n = _block_size(data, 30)
        exact = block_entropy(SectorConfig.infinite(densities), n)
        assert exact == pytest.approx(
            entropy_of_spectrum(thermo_spectrum(densities, n)), abs=1e-10
        )

    def test_all_mass_in_level_zero(self):
        assert block_entropy(SectorConfig.infinite((1, 0, 0)), 5) == 0.0

    def test_float_saturated_sector_is_pure(self):
        # level 0 rounds to density 1.0, a point mass at k_0 = n, so the
        # tiny later levels may add no term at all
        tiny = Fraction(1, 2**61)
        cfg = SectorConfig.infinite((1 - 2 * tiny, tiny, tiny))
        for n in (0, 5, 50):
            assert block_entropy(cfg, n) == 0.0


@st.composite
def _finite_cases(draw):
    """Occupations with d up to 5 (empty levels common) and block sizes with 0 and L among them."""
    d = draw(st.integers(min_value=2, max_value=5))
    level = st.one_of(st.just(0), st.integers(min_value=1, max_value=24))
    occupations = tuple(draw(st.lists(level, min_size=d, max_size=d).filter(any)))
    L = sum(occupations)
    n = st.one_of(st.just(0), st.just(L), st.integers(0, L))
    ns = draw(st.lists(n, min_size=1, max_size=4))
    return occupations, ns


@st.composite
def _infinite_cases(draw):
    """Exact densities with d up to 5 (empty levels common) and block sizes up to 60."""
    d = draw(st.integers(min_value=2, max_value=5))
    count = st.one_of(st.just(0), st.integers(min_value=1, max_value=5))
    counts = draw(st.lists(count, min_size=d, max_size=d).filter(any))
    densities = tuple(Fraction(c, sum(counts)) for c in counts)
    ns = draw(st.lists(st.one_of(st.just(0), st.integers(0, 60)), min_size=1, max_size=4))
    return densities, ns


class TestAgainstChainRule:
    """block_entropy against the chain rule over levels and, for small sectors, enumeration."""

    @given(_finite_cases())
    @example(((30, 0, 30, 20), [0, 1, 40, 79, 80]))
    @example(((0, 7, 0), [0, 3, 7]))
    @example(((0, 12), [0, 5, 12]))
    @example(((5, 0, 0, 0, 9), [0, 4, 14]))
    @example(((6, 5, 4, 3, 2), [0, 7, 10, 20]))
    @settings(derandomize=True, max_examples=100, deadline=None)
    def test_finite(self, case):
        occupations, ns = case
        got = [block_entropy(SectorConfig.finite(occupations), n) for n in ns]
        for n, s, ref in zip(ns, got, chain_rule_entropies(occupations, ns, finite=True)):
            assert s == pytest.approx(ref, abs=1e-10), n
            if sum(occupations) <= 14:
                assert s == pytest.approx(finite_entropy(occupations, n), abs=1e-10), n

    @given(_infinite_cases())
    @example(((HALF, Fraction(0), HALF), [0, 6, 40]))
    @example(((Fraction(0), Fraction(1), Fraction(0)), [0, 3]))
    @example(((Fraction(1, 5),) * 5, [0, 1, 60]))
    @example(((Fraction(1, 10), Fraction(2, 10), Fraction(3, 10), Fraction(4, 10)), [9, 55]))
    @example(((1 - 2 * Fraction(1, 2**61), Fraction(1, 2**61), Fraction(1, 2**61)), [0, 5, 50]))
    @settings(derandomize=True, max_examples=100, deadline=None)
    def test_infinite(self, case):
        densities, ns = case
        got = [block_entropy(SectorConfig.infinite(densities), n) for n in ns]
        for n, s, ref in zip(ns, got, chain_rule_entropies(densities, ns, finite=False)):
            assert s == pytest.approx(ref, abs=1e-10), n


def _marginals_from_rows(spectrum):
    """Each level's count law, summed from the exact spectrum's rows."""
    weights = np.array(spectrum.weights)
    return [np.bincount(col, weights=weights) for col in spectrum.compositions.T]


def _level_laws(cfg, n):
    """Per level, over all of its feasible counts k: k, f(x_i, k) and the law of k_i.

    The law is the two-level weight c + f(x_i, k) + f(X - x_i, n - k): merging
    the other levels into one adds their x.
    """
    c, f, xs, bounds = _product_form(cfg, n)
    X = cfg.L or 1
    for x, (lo, hi) in zip(xs, _level_ranges(n, bounds)):
        k = np.arange(lo, hi + 1)
        own = f(np.full(k.size, x), k)
        yield k, own, np.exp2(c + own + f(np.full(k.size, X - x), n - k))


def _marginals_from_product_form(cfg, n):
    """Each level's count law from the two-level weight of the product form."""
    return [np.concatenate((np.zeros(k[0]), pmf)) for k, _, pmf in _level_laws(cfg, n)]


def _assert_same_laws(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        size = max(len(g), len(w))
        diff = np.pad(g, (0, size - len(g))) - np.pad(w, (0, size - len(w)))
        assert np.abs(diff).max() <= 1e-12


@st.composite
def _small_finite_case(draw):
    """Occupations with d up to 4 (empty levels common) and a block size, 0 and L among them."""
    d = draw(st.integers(min_value=2, max_value=4))
    level = st.one_of(st.just(0), st.integers(min_value=1, max_value=8))
    occupations = tuple(draw(st.lists(level, min_size=d, max_size=d).filter(any)))
    L = sum(occupations)
    return occupations, draw(st.one_of(st.just(0), st.just(L), st.integers(0, L)))


@st.composite
def _small_infinite_case(draw):
    """Exact densities with d up to 4 (empty levels common) and a block size up to 12."""
    d = draw(st.integers(min_value=2, max_value=4))
    count = st.one_of(st.just(0), st.integers(min_value=1, max_value=4))
    counts = draw(st.lists(count, min_size=d, max_size=d).filter(any))
    densities = tuple(Fraction(c, sum(counts)) for c in counts)
    return densities, draw(st.one_of(st.just(0), st.integers(0, 12)))


class TestMergeIdentity:
    """Each level against the rest merged into one level gives the marginal the rows sum to."""

    @given(_small_finite_case())
    @example(((0, 7, 0), 3))
    @example(((3, 0, 5), 0))
    @example(((3, 0, 5), 8))
    @example(((6, 5, 4), 7))
    @settings(derandomize=True, max_examples=100, deadline=None)
    def test_finite(self, case):
        occupations, n = case
        cfg = SectorConfig.finite(occupations)
        _assert_same_laws(
            _marginals_from_product_form(cfg, n),
            _marginals_from_rows(exact_spectrum(cfg, n, exact=True)),
        )

    @given(_small_infinite_case())
    @example(((HALF, Fraction(0), HALF), 6))
    @example(((Fraction(0), Fraction(1), Fraction(0)), 3))
    @example(((THIRD, THIRD, THIRD), 0))
    @settings(derandomize=True, max_examples=100, deadline=None)
    def test_infinite(self, case):
        densities, n = case
        _assert_same_laws(
            _marginals_from_product_form(SectorConfig.infinite(densities), n),
            _marginals_from_rows(thermo_spectrum(densities, n, exact=True)),
        )


class TestBlockSizeGuard:
    @pytest.mark.parametrize(
        "cfg", [SectorConfig.finite((2, 2)), SectorConfig.infinite((HALF, HALF))],
        ids=["finite", "inf"],
    )
    def test_negative_block_size_rejected(self, cfg):
        with pytest.raises(ValueError, match="block size must be nonnegative"):
            block_entropy(cfg, -1)
        with pytest.raises(ValueError, match="block size must be nonnegative"):
            entropy_report(cfg, -1)

    @pytest.mark.parametrize(
        "cfg", [SectorConfig.finite((10**15, 10**15)), SectorConfig.infinite((HALF, HALF))],
        ids=["finite", "inf"],
    )
    def test_window_guard_refuses_before_building(self, cfg):
        # about 2.6e8 counts in the two windows at n = 10^14
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="block_entropy window"):
                block_entropy(cfg, 10**14)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestAsymptoticEntropy:
    def test_two_level_infinite_value(self):
        cfg = SectorConfig.infinite((HALF, HALF))
        expected = -1.0 + 0.5 * math.log2(2.0 * math.pi * math.e * 100.0)
        assert expected == pytest.approx(4.369023680068003, abs=1e-12)
        assert asymptotic_entropy(cfg, 100) == pytest.approx(expected, abs=1e-12)

    def test_three_level_infinite_value(self):
        cfg = SectorConfig.infinite((THIRD, THIRD, THIRD))
        expected = 0.5 * math.log2(1.0 / 27.0) + math.log2(2.0 * math.pi * math.e * 100.0)
        assert expected == pytest.approx(8.360603609054273, abs=1e-12)
        assert asymptotic_entropy(cfg, 100) == pytest.approx(expected, abs=1e-12)

    def test_close_to_exact_thermo_entropy(self):
        cfg = SectorConfig.infinite((HALF, HALF))
        exact = entropy_of_spectrum(thermo_spectrum((HALF, HALF), 100))
        assert abs(exact - asymptotic_entropy(cfg, 100)) < 0.01

    def test_finite_L_symmetry(self):
        cfg = SectorConfig.finite((30, 30, 30))
        for n in (10, 25, 44):
            assert asymptotic_entropy(cfg, n) == pytest.approx(
                asymptotic_entropy(cfg, cfg.L - n), abs=1e-12
            )

    def test_two_level_term_by_term_reduction(self):
        # at d=2 the general form collapses to log2(pq)/2 + log2(2 pi e n(L-n)/L)/2
        cfg = SectorConfig.finite((30, 70))
        p, q, L = 0.3, 0.7, 100
        for n in (5, 33, 80):
            expected = 0.5 * math.log2(p * q) + 0.5 * math.log2(
                2.0 * math.pi * math.e * n * (L - n) / L
            )
            assert asymptotic_entropy(cfg, n) == pytest.approx(expected, abs=1e-12)
            assert asymptotic_formula((p, q), n, L) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize(
        "cfg, reduced",
        [(SectorConfig.infinite((HALF, 0, HALF)), SectorConfig.infinite((HALF, HALF))),
         (SectorConfig.finite((30, 0, 30)), SectorConfig.finite((30, 30)))],
        ids=["inf", "finite"],
    )
    def test_empty_levels_take_the_reduced_sector(self, cfg, reduced):
        for n in (1, 17, 59):
            assert asymptotic_entropy(cfg, n) == asymptotic_entropy(reduced, n)

    def test_fewer_than_two_occupied_levels_rejected(self):
        for cfg in (SectorConfig.infinite((0, 1, 0)), SectorConfig.finite((0, 9))):
            with pytest.raises(ValueError, match="at least two occupied levels"):
                asymptotic_entropy(cfg, 3)

    def test_block_boundaries_rejected(self):
        cfg = SectorConfig.finite((5, 5))
        for n in (0, 10):
            with pytest.raises(ValueError):
                asymptotic_entropy(cfg, n)
        with pytest.raises(ValueError, match="needs n >= 1"):
            asymptotic_entropy(SectorConfig.infinite((HALF, HALF)), 0)


class TestMaxEntropyBound:
    def test_two_qubits(self):
        assert max_entropy_bound(2, 2) == pytest.approx(math.log2(3.0), abs=1e-12)

    def test_empty_block(self):
        assert max_entropy_bound(0, 4) == 0.0

    def test_preconditions(self):
        with pytest.raises(ValueError, match="block size must be nonnegative"):
            max_entropy_bound(-1, 3)
        with pytest.raises(ValueError, match="local dimension must be >= 2"):
            max_entropy_bound(4, 1)

    def test_large_n_growth_rate(self):
        # bound approaches 2*sigma*log2(n), i.e. the deficit is o(log n)
        deficits = []
        for n in (10**3, 10**5, 10**7):
            deficit = 2.0 * math.log2(n) - max_entropy_bound(n, 3)
            deficits.append(deficit / math.log2(n))
        assert deficits[0] > deficits[1] > deficits[2]
        assert deficits[2] < 0.05

    def test_bound_chain(self):
        for s in (
            exact_spectrum(SectorConfig.finite((4, 3, 2)), 4),
            thermo_spectrum((0.2, 0.8), 12, exact=False),
            uniform_mixed_spectrum(6, 3),
        ):
            S = entropy_of_spectrum(s)
            assert 0.0 <= S <= math.log2(s.support_size) + 1e-9
            assert math.log2(s.support_size) <= max_entropy_bound(s.block_size, s.d) + 1e-9

    def test_uniform_mixture_saturates_bound(self):
        for n, d in ((1, 2), (7, 3), (20, 4)):
            S = entropy_of_spectrum(uniform_mixed_spectrum(n, d))
            assert S == pytest.approx(max_entropy_bound(n, d), abs=1e-12)


class TestFiniteSizeCorrections:
    def test_half_filling_per_value(self):
        cfg = SectorConfig.finite((20, 20, 20))  # sigma = 1
        rep = finite_size_corrections(cfg, 30)
        assert rep.delta_per_bits == pytest.approx(-1.0, abs=1e-12)

    def test_small_ratio_values(self):
        cfg = SectorConfig.finite((50, 50))  # sigma = 1/2, L = 100
        rep = finite_size_corrections(cfg, 10)
        assert rep.delta_per_bits == pytest.approx(0.5 * math.log2(0.9), abs=1e-12)
        assert rep.delta_per_bits == pytest.approx(-0.0760, abs=5e-5)
        assert rep.delta_per_leading_bits == pytest.approx(-0.05 / LN2, abs=1e-12)
        assert rep.delta_per_leading_bits == pytest.approx(-0.0721, abs=5e-5)

    def test_critical_quadratic_coefficient(self):
        # numerical limit of delta_cr / (n/L)^2 as n/L -> 0
        limit = -math.pi**2 / (18.0 * LN2)
        ratios = []
        for L in (10**3, 10**4, 10**5):
            cfg = SectorConfig.finite((L // 2, L - L // 2))
            rep = finite_size_corrections(cfg, 1, central_charge=1.0)
            x = 1.0 / L
            ratios.append(rep.delta_cr_bits / x**2)
        assert ratios[-1] == pytest.approx(limit, rel=1e-6)
        assert abs(ratios[2] - limit) < abs(ratios[0] - limit)
        assert rep.delta_cr_leading_bits == pytest.approx(limit * x**2, rel=1e-12)

    def test_corrections_vanish_for_small_blocks(self):
        cfg = SectorConfig.finite((500, 500))
        rep = finite_size_corrections(cfg, 1)
        assert abs(rep.delta_per_bits) < 2e-3
        assert abs(rep.delta_cr_bits) < 1e-5

    @pytest.mark.parametrize(
        "occupations, ns",
        [((30, 0, 30), (1, 17, 30, 59)), ((1, 1, 1, 0, 0), (1, 2)),
         ((40, 0, 30, 20), (1, 45, 89)), ((20, 20, 20), (1, 30, 59))],
    )
    def test_per_correction_is_the_laws_finite_size_shift(self, occupations, ns):
        # sigma_eff counts the occupied levels only, as the law itself does
        cfg = SectorConfig.finite(occupations)
        limit = SectorConfig.infinite(cfg.density_fractions)
        for n in ns:
            shift = asymptotic_entropy(cfg, n) - asymptotic_entropy(limit, n)
            assert finite_size_corrections(cfg, n).delta_per_bits == pytest.approx(
                shift, abs=1e-12
            ), n

    def test_per_correction_is_negative(self):
        cfg = SectorConfig.finite((6, 6))
        for n in range(1, 12):
            assert finite_size_corrections(cfg, n).delta_per_bits < 0.0

    def test_preconditions(self):
        cfg = SectorConfig.finite((5, 5))
        with pytest.raises(ValueError):
            finite_size_corrections(cfg, 0)
        with pytest.raises(ValueError):
            finite_size_corrections(cfg, 10)
        with pytest.raises(ValueError):
            finite_size_corrections(SectorConfig.infinite((HALF, HALF)), 3)
        with pytest.raises(ValueError, match="at least two occupied levels"):
            finite_size_corrections(SectorConfig.finite((5, 0)), 2)

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
    def test_non_finite_central_charge_rejected(self, c):
        with pytest.raises(ValueError, match="central charge must be finite"):
            finite_size_corrections(SectorConfig.finite((5, 5)), 3, central_charge=c)


class TestFitPrefactor:
    def test_exact_linear_data(self):
        points = [(n, 0.5 * math.log2(n) + 7.0) for n in (4, 8, 16, 32, 64)]
        assert fit_prefactor(points) == pytest.approx(0.5, abs=1e-12)

    def test_thermo_slope_is_sigma(self):
        cfg = SectorConfig.infinite((HALF, HALF))
        points = [(n, block_entropy(cfg, n)) for n in (64, 128, 256, 512)]
        assert fit_prefactor(points) == pytest.approx(0.5, abs=0.02)

    def test_uniform_slope_is_two_sigma(self):
        points = [
            (n, entropy_of_spectrum(uniform_mixed_spectrum(n, 2))) for n in (64, 128, 256, 512)
        ]
        assert fit_prefactor(points) == pytest.approx(1.0, abs=0.05)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            fit_prefactor([(4, 1.0), (8, 2.0)])
        with pytest.raises(ValueError):
            fit_prefactor([(4, 1.0), (4, 2.0), (8, 3.0)])
        with pytest.raises(ValueError):
            fit_prefactor([(1, 1.0), (4, 2.0), (8, 3.0)])


class TestEntropyReport:
    def test_populated_fields(self):
        cfg = SectorConfig.finite((40, 40, 40))
        report = entropy_report(cfg, 60)
        assert report.exact_bits == pytest.approx(block_entropy(cfg, 60), abs=1e-12)
        assert report.asymptotic_bits == pytest.approx(asymptotic_entropy(cfg, 60), abs=1e-12)
        assert report.sup_bound_bits == pytest.approx(max_entropy_bound(60, 3), abs=1e-12)
        assert report.constant_C_bits == pytest.approx(0.5 * math.log2(1.0 / 27.0), abs=1e-12)
        assert report.exact_bits <= report.sup_bound_bits + 1e-9

    def test_finite_gaussian_uses_the_hypergeometric_covariance(self):
        # sigma * log2(L / (L - 1)) above the asymptotic, 6.6357 next to the exact 6.6357
        report = entropy_report(SectorConfig.finite((40, 40, 40)), 60)
        assert report.gaussian_bits == pytest.approx(
            report.asymptotic_bits + math.log2(120 / 119), abs=1e-12
        )
        assert report.gaussian_bits == pytest.approx(6.6357, abs=5e-5)
        assert report.gaussian_bits == pytest.approx(report.exact_bits, abs=1e-4)

    @given(st.one_of(_finite_cases(), _infinite_cases()))
    @example(((30, 0, 30, 20), [1, 40, 79]))
    @example(((HALF, Fraction(0), HALF), [1, 6, 40]))
    @example(((0, 7, 0), [3]))
    @settings(derandomize=True, max_examples=100, deadline=None)
    def test_gaussian_is_the_covariance_entropy(self, case):
        levels, ns = case
        finite = isinstance(levels[0], int)
        cfg = SectorConfig.finite(levels) if finite else SectorConfig.infinite(levels)
        occupied = [p for p in cfg.density_fractions if p > 0]
        for n in ns:
            got = entropy_report(cfg, n).gaussian_bits
            if len(occupied) < 2 or n == 0 or n == cfg.L:
                assert got is None
            else:
                reference = gaussian_entropy(build_gaussian(occupied, n, cfg.L))
                assert got == pytest.approx(reference, abs=1e-12), n

    def test_memory_at_four_thousand_levels(self):
        # no (d - 1) x (d - 1) covariance: a 245 MiB peak when the report factorised one
        cfg = SectorConfig.infinite((Fraction(1, 4000),) * 4000)
        tracemalloc.start()
        try:
            report = entropy_report(cfg, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20
        assert report.gaussian_bits == report.asymptotic_bits

    def test_many_levels_take_linear_time(self):
        # O(d^2) while each level's range summed all d bounds again (0.34 s at d = 8,000)
        cfg = SectorConfig.infinite((Fraction(1, 50_000),) * 50_000)
        start = time.perf_counter()
        report = entropy_report(cfg, 1)
        assert time.perf_counter() - start < 5.0
        assert report.exact_bits == pytest.approx(math.log2(50_000), abs=1e-9)

    def test_boundary_has_no_asymptotics(self):
        report = entropy_report(SectorConfig.finite((5, 5)), 0)
        assert report.exact_bits == 0.0
        assert report.asymptotic_bits is None
        assert report.gaussian_bits is None

    def test_gaussian_equals_infinite_asymptotic(self):
        cfg = SectorConfig.infinite((Fraction(1, 4),) * 4)
        report = entropy_report(cfg, 50)
        assert report.gaussian_bits == pytest.approx(asymptotic_entropy(cfg, 50), abs=1e-9)

    def test_zero_density_reduces_before_asymptotics(self):
        mixed = entropy_report(SectorConfig.infinite((HALF, HALF, Fraction(0))), 80)
        pure = entropy_report(SectorConfig.infinite((HALF, HALF)), 80)
        assert mixed.asymptotic_bits == pytest.approx(pure.asymptotic_bits, abs=1e-12)
        assert mixed.exact_bits == pytest.approx(pure.exact_bits, abs=1e-12)
        # the sup bound keeps the full local dimension
        assert mixed.sup_bound_bits > pure.sup_bound_bits

    def test_density_below_tolerance_is_dropped(self):
        tiny = Fraction(1, 10**13)  # below ZERO_DENSITY_TOL = 1e-12
        mixed = entropy_report(SectorConfig.infinite((HALF, tiny, HALF - tiny)), 80)
        reduced = entropy_report(SectorConfig.infinite((HALF, HALF - tiny)), 80)
        assert mixed.asymptotic_bits == reduced.asymptotic_bits
        assert mixed.constant_C_bits == reduced.constant_C_bits

    def test_validity_flag_matches_product_rule(self):
        cfg = SectorConfig.infinite((THIRD, THIRD, THIRD))
        assert not entropy_report(cfg, 100).asymptotic_valid
        assert entropy_report(cfg, 1000).asymptotic_valid

    @pytest.mark.parametrize("occupations", [(1000, 1000, 1000), (100, 100)])
    def test_validity_flag_is_symmetric_in_n_and_L_minus_n(self, occupations):
        # the exact entropy and the law are symmetric under n <-> L - n, so the flag is too
        cfg = SectorConfig.finite(occupations)
        valid = [entropy_report(cfg, n).asymptotic_valid for n in range(cfg.L + 1)]
        assert valid == valid[::-1]
        assert not valid[0] and not valid[-1]
        assert any(valid)

    def test_json_keys(self):
        obj = dataclasses.asdict(entropy_report(SectorConfig.finite((10, 10)), 5))
        assert list(obj) == [
            "exact_bits",
            "asymptotic_bits",
            "gaussian_bits",
            "sup_bound_bits",
            "constant_C_bits",
            "asymptotic_valid",
        ]


def test_bits_to_nats():
    assert bits_to_nats(1.0) == pytest.approx(LN2, abs=1e-15)
