import dataclasses
import math
import random
from collections.abc import Sequence
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permutent import entropy
from permutent.combinatorics import ResourceLimitError
from permutent.entropy import (
    asymptotic_entropy,
    asymptotic_validity,
    bits_to_nats,
    block_entropies,
    block_entropy,
    effective_spin,
    entropy_of_spectrum,
    entropy_report,
    entropy_reports,
    finite_size_corrections,
    fit_prefactor,
    max_entropy_bound,
)
from permutent.oracle import build_state, dense_eigenvalues, partial_trace
from permutent.spectrum import (
    SectorConfig,
    Spectrum,
    exact_spectrum,
    thermo_spectrum,
    uniform_mixed_spectrum,
)

from _oracles import asymptotic_formula, finite_entropy, thermo_entropy

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)
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

    def test_log_domain_result_does_not_depend_on_call_order(self, fresh_log2_table):
        large = SectorConfig.finite((400,) * 5)
        fresh_log2_table()
        alone = entropy_of_spectrum(exact_spectrum(large, 40))
        fresh_log2_table()
        exact_spectrum(SectorConfig.finite((60,) * 5), 30)
        assert entropy_of_spectrum(exact_spectrum(large, 40)) == alone

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

    def test_boundaries_are_pure(self):
        cfg = SectorConfig.finite((5, 5))
        assert block_entropy(cfg, 0) == 0.0
        assert block_entropy(cfg, 10) == 0.0
        # one occupied level: every conditional is a point mass, whose
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
    """Chain rule, spectrum and dense oracle agree, empty levels and n in {0, L} included."""

    @given(st.data())
    @settings(max_examples=100)
    def test_finite_sectors(self, data):
        d = data.draw(st.integers(min_value=2, max_value=5))
        occupations = data.draw(
            st.lists(st.integers(min_value=0, max_value=6), min_size=d, max_size=d).filter(any)
        )
        cfg = SectorConfig.finite(occupations)
        n = _block_size(data, cfg.L)
        chain = block_entropy(cfg, n)
        assert chain == pytest.approx(entropy_of_spectrum(exact_spectrum(cfg, n)), abs=1e-10)
        if d**cfg.L <= 729:
            dense = dense_eigenvalues(partial_trace(build_state(cfg), n))
            assert chain == pytest.approx(-math.fsum(v * math.log2(v) for v in dense), abs=1e-10)

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
        chain = block_entropy(SectorConfig.infinite(densities), n)
        assert chain == pytest.approx(
            entropy_of_spectrum(thermo_spectrum(densities, n)), abs=1e-10
        )

    @given(st.data())
    @settings(max_examples=100)
    def test_shared_conditionals_change_no_bit(self, data):
        d = data.draw(st.integers(min_value=2, max_value=5))
        counts = data.draw(
            st.lists(st.integers(min_value=0, max_value=6), min_size=d, max_size=d).filter(any)
        )
        if data.draw(st.booleans()):
            cfg = SectorConfig.finite(counts)
            L = cfg.L
        else:
            cfg = SectorConfig.infinite([Fraction(c, sum(counts)) for c in counts])
            L = 40
        ns = data.draw(st.lists(st.one_of(st.just(0), st.just(L), st.integers(0, L)), max_size=12))
        # shared across the block sizes of one call, the conditional
        # entropies must give the same bits as separate calls
        assert block_entropies(cfg, ns) == [block_entropies(cfg, [n])[0] for n in ns]

    def test_all_mass_in_level_zero(self):
        assert block_entropy(SectorConfig.infinite((1, 0, 0)), 5) == 0.0

    def test_float_saturated_sector_is_pure(self):
        # level 0 rounds to density 1.0, so 1 - cum[j] is 0.0 for the later
        # levels; no conditional entropy may be evaluated there
        tiny = Fraction(1, 2**61)
        cfg = SectorConfig.infinite((1 - 2 * tiny, tiny, tiny))
        for n in (0, 5, 50):
            assert block_entropy(cfg, n) == 0.0
        assert block_entropies(cfg, [0, 5, 50]) == [0.0, 0.0, 0.0]


class _UnreadableBlockSizes(Sequence):
    """A sequence of the given length whose block sizes must never be read."""

    def __init__(self, length):
        self.length = length

    def __len__(self):
        return self.length

    def __getitem__(self, index):
        raise AssertionError("block sizes materialised")

    def __iter__(self):
        raise AssertionError("block sizes materialised")


class TestBlockSizeGuard:
    @pytest.mark.parametrize("compute", [block_entropies, entropy_reports])
    @pytest.mark.parametrize(
        "cfg", [SectorConfig.finite((2, 2)), SectorConfig.infinite((HALF, HALF))],
        ids=["finite", "inf"],
    )
    def test_refused_by_length_before_reading(self, compute, cfg):
        with pytest.raises(ResourceLimitError, match="1000000000000 block sizes exceed guard"):
            compute(cfg, _UnreadableBlockSizes(10**12))

    def test_cap_itself_is_admitted(self):
        cfg = SectorConfig.infinite((HALF, HALF))
        with pytest.raises(ResourceLimitError):
            block_entropies(cfg, _UnreadableBlockSizes(entropy.MAX_BLOCK_SIZES + 1))
        with pytest.raises(AssertionError, match="materialised"):  # past the guard
            block_entropies(cfg, _UnreadableBlockSizes(entropy.MAX_BLOCK_SIZES))


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

    def test_zero_density_directs_to_effective_spin(self):
        cfg = SectorConfig.infinite((HALF, HALF, Fraction(0)))
        with pytest.raises(ValueError, match="effective_spin"):
            asymptotic_entropy(cfg, 50)

    def test_block_boundaries_rejected(self):
        cfg = SectorConfig.finite((5, 5))
        for n in (0, 10):
            with pytest.raises(ValueError):
                asymptotic_entropy(cfg, n)

    def test_validity_flag(self):
        cfg = SectorConfig.infinite((THIRD, THIRD, THIRD))
        assert not asymptotic_validity(cfg, 100)  # 100/27 < 10
        assert asymptotic_validity(cfg, 1000)


class TestMaxEntropyBound:
    def test_two_qubits(self):
        assert max_entropy_bound(2, 2) == pytest.approx(math.log2(3.0), abs=1e-12)

    def test_empty_block(self):
        assert max_entropy_bound(0, 4) == 0.0

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


class TestEffectiveSpin:
    def test_one_vanished_level(self):
        eff = effective_spin((0.5, 0.5, 0.0))
        assert eff.sigma_eff == 0.5
        assert eff.z == 1
        assert eff.reduced_densities == (0.5, 0.5)

    def test_fully_polarized(self):
        eff = effective_spin((1.0, 0.0))
        assert eff.sigma_eff == 0.0
        assert eff.z == 1

    def test_two_vanished_levels(self):
        eff = effective_spin((THIRD, THIRD, THIRD, 0, 0))
        assert eff.sigma_eff == 1.0
        assert eff.z == 2

    def test_fraction_inputs_returned_unchanged(self):
        densities = (THIRD, Fraction(0), Fraction(2, 3))
        eff = effective_spin(densities)
        assert eff.reduced_densities == (THIRD, Fraction(2, 3))
        assert all(a is b for a, b in zip(eff.reduced_densities, densities[::2]))

    def test_all_vanished_rejected(self):
        with pytest.raises(ValueError):
            effective_spin((0.0, 0.0))


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
