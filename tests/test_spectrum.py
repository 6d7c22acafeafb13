import json
import math
import random
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import permutent
from permutent import combinatorics, oracle, spectrum
from permutent.combinatorics import MAX_SPECTRUM_CELLS, MAX_SPECTRUM_SUPPORT
from permutent.entropy import entropy_of_spectrum
from permutent.spectrum import (
    ResourceLimitError,
    SectorConfig,
    _product_form,
    exact_spectrum,
    spectrum_to_json_obj,
    thermo_spectrum,
    uniform_mixed_spectrum,
)

from _oracles import brute_compositions, finite_weights, thermo_weights
from _schema import assert_valid

SCHEMA = json.loads(
    (Path(__file__).parent.parent / "src/permutent/schemas/spectrum.schema.json").read_text()
)

THIRD = Fraction(1, 3)
HALF = Fraction(1, 2)


def random_sector(rng, max_L=120, max_d=5):
    d = rng.randint(2, max_d)
    L = rng.randint(d, max_L)
    cuts = sorted(rng.randint(0, L) for _ in range(d - 1))
    occupations = []
    last = 0
    for c in cuts + [L]:
        occupations.append(c - last)
        last = c
    return SectorConfig.finite(occupations)


class TestSectorConfig:
    def test_finite_properties(self):
        cfg = SectorConfig.finite((2, 3, 1))
        assert cfg.L == 6
        assert cfg.d == 3
        assert cfg.density_fractions == (Fraction(1, 3), Fraction(1, 2), Fraction(1, 6))

    def test_infinite_properties(self):
        cfg = SectorConfig.infinite(("1/4", "1/4", "1/4", "1/4"))
        assert cfg.L is None
        assert not cfg.is_finite

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            SectorConfig(occupations=(3,))
        with pytest.raises(ValueError):
            SectorConfig(occupations=(1, 1), densities=(HALF, HALF))
        with pytest.raises(ValueError):
            SectorConfig()
        with pytest.raises(ValueError):
            SectorConfig.finite((2, -1))
        with pytest.raises(ValueError):
            SectorConfig.finite((0, 0))
        with pytest.raises(ValueError):
            SectorConfig.infinite((HALF, HALF, HALF))
        with pytest.raises(ValueError):
            SectorConfig.infinite((Fraction(3, 2), Fraction(-1, 2)))
        with pytest.raises(TypeError):
            SectorConfig.infinite((None, 1))

    @pytest.mark.parametrize(
        "densities",
        [(Fraction(3, 2), Fraction(-1, 2)), (1.5, -0.5), (-math.inf, 1.0), (-1, 2), (-0.5, 0.5)],
    )
    def test_negative_densities_refused_before_the_sum(self, densities):
        # (-0.5, 0.5) also misses the sum: the sign check comes first
        with pytest.raises(ValueError, match="densities must be nonnegative"):
            SectorConfig(densities=densities)

    def test_float_densities_taken_as_given(self):
        cfg = SectorConfig(densities=(0.25, -0.0, 0.75))
        assert cfg.density_floats == (0.25, 0.0, 0.75)
        with pytest.raises(ValueError, match="densities must sum to 1"):
            SectorConfig(densities=(0.25, 0.5))

    @pytest.mark.parametrize(
        "occupations",
        [(2.7, 3), (2.5, 1.5), (2, Fraction(7, 2)), (math.inf, 1), (1, -math.inf), (math.nan, 2)],
    )
    def test_rejects_non_integral_occupations(self, occupations):
        with pytest.raises(ValueError, match="occupations must be integers"):
            SectorConfig.finite(occupations)
        with pytest.raises(ValueError, match="occupations must be integers"):
            SectorConfig(occupations=occupations)

    def test_integral_occupations_become_ints(self):
        for occupations in ((2.0, 3), (np.int64(2), np.int8(3)), [2, Fraction(6, 2)]):
            cfg = SectorConfig(occupations=occupations)
            assert cfg == SectorConfig.finite((2, 3))
            assert all(type(n) is int for n in cfg.occupations)


class TestDimension:
    """The symmetric subspace of n sites, binom(n + d - 1, d - 1), is the uniform mixture's support."""

    def test_qubit_pair(self):
        assert uniform_mixed_spectrum(2, 2).support_size == math.comb(3, 1) == 3

    def test_qutrit_pair(self):
        assert uniform_mixed_spectrum(2, 3).support_size == math.comb(4, 2) == 6

    def test_larger_case_against_enumeration(self):
        expected = sum(1 for _ in brute_compositions(10, (10,) * 4))
        assert expected == 286 == math.comb(13, 3)
        assert uniform_mixed_spectrum(10, 4).support_size == expected

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="block size must be nonnegative"):
            uniform_mixed_spectrum(-1, 2)
        with pytest.raises(ValueError, match="local dimension must be >= 2"):
            uniform_mixed_spectrum(2, 1)


class TestExactSpectrum:
    def test_worked_case(self):
        s = exact_spectrum(SectorConfig.finite((2, 2)), 2)
        weights = {e.parts: e.weight_exact for e in s.entries}
        assert weights == {(0, 2): Fraction(1, 6), (1, 1): Fraction(2, 3), (2, 0): Fraction(1, 6)}
        assert spectrum_to_json_obj(s)["header"]["source"] == "finite-exact"

    def test_full_block_is_pure(self):
        s = exact_spectrum(SectorConfig.finite((1, 1, 1)), 3)
        assert [(e.parts, e.weight_exact) for e in s.entries] == [((1, 1, 1), Fraction(1))]

    def test_empty_block(self):
        s = exact_spectrum(SectorConfig.finite((3, 4)), 0)
        assert [(e.parts, e.weight_exact) for e in s.entries] == [((0, 0), Fraction(1))]

    def test_block_size_errors(self):
        cfg = SectorConfig.finite((2, 2))
        with pytest.raises(ValueError, match="exceeds"):
            exact_spectrum(cfg, 9)
        with pytest.raises(ValueError):
            exact_spectrum(cfg, -1)

    def test_infinite_sector_rejected(self):
        with pytest.raises(ValueError):
            exact_spectrum(SectorConfig.infinite((HALF, HALF)), 2)

    def test_matches_reference_weights(self):
        rng = random.Random(7)
        for _ in range(20):
            cfg = random_sector(rng, max_L=16, max_d=4)
            n = rng.randint(0, cfg.L)
            got = {e.parts: e.weight_exact for e in exact_spectrum(cfg, n).entries}
            assert got == finite_weights(cfg.occupations, n)

    def test_exact_normalization_random_sectors(self):
        rng = random.Random(11)
        for _ in range(25):
            cfg = random_sector(rng)
            n = rng.randint(0, min(cfg.L, 40))
            s = exact_spectrum(cfg, n)
            assert sum(e.weight_exact for e in s.entries) == 1
            assert all(e.weight_exact > 0 for e in s.entries)

    def test_log_mode_agrees_with_exact(self):
        cfg = SectorConfig.finite((40, 35, 45))
        exact = exact_spectrum(cfg, 25, exact=True)
        log_only = exact_spectrum(cfg, 25, exact=False)
        assert not log_only.is_exact
        assert log_only.normalization_residual() < 1e-10
        for a, b, w in zip(exact.entries, log_only.entries, log_only.weights):
            assert a.parts == b.parts
            rel = abs(w - float(a.weight_exact)) / float(a.weight_exact)
            assert rel < 1e-10

    def test_auto_exact_threshold(self):
        small = exact_spectrum(SectorConfig.finite((150, 150)), 5)
        assert small.is_exact
        big = exact_spectrum(SectorConfig.finite((200, 200)), 5)
        assert not big.is_exact
        assert thermo_spectrum((HALF, HALF), 300).is_exact
        assert not thermo_spectrum((HALF, HALF), 301).is_exact

    def test_relabeling_symmetry(self):
        base = exact_spectrum(SectorConfig.finite((5, 3, 2)), 4)
        permuted = exact_spectrum(SectorConfig.finite((2, 5, 3)), 4)
        assert sorted(e.weight_exact for e in base.entries) == sorted(
            e.weight_exact for e in permuted.entries
        )

    def test_complement_duality(self):
        cfg = SectorConfig.finite((4, 3, 5))
        for n in range(cfg.L + 1):
            block = sorted(e.weight_exact for e in exact_spectrum(cfg, n).entries)
            env = sorted(e.weight_exact for e in exact_spectrum(cfg, cfg.L - n).entries)
            assert block == env

    def test_two_level_closed_form(self):
        # for d=2 the weights reduce to C(n,k) C(L-n, N-k) / C(L, N)
        cfg = SectorConfig.finite((3, 5))
        L, N = 8, 5
        for n in range(L + 1):
            for e in exact_spectrum(cfg, n).entries:
                k = e.parts[1]
                expected = Fraction(math.comb(n, k) * math.comb(L - n, N - k), math.comb(L, N))
                assert e.weight_exact == expected

    def test_hypergeometric_mean(self):
        cfg = SectorConfig.finite((6, 2, 4))
        n = 5
        s = exact_spectrum(cfg, n)
        for i, N in enumerate(cfg.occupations):
            mean = sum(e.weight_exact * e.parts[i] for e in s.entries)
            assert mean == Fraction(n * N, cfg.L)

    def test_empty_level_matches_reduced_dimension(self):
        with_gap = exact_spectrum(SectorConfig.finite((2, 0, 2)), 2)
        reduced = exact_spectrum(SectorConfig.finite((2, 2)), 2)
        assert sorted(e.weight_exact for e in with_gap.entries) == sorted(
            e.weight_exact for e in reduced.entries
        )


class TestThermoSpectrum:
    def test_two_fair_coins(self):
        s = thermo_spectrum((HALF, HALF), 2)
        assert {e.parts: e.weight_exact for e in s.entries} == {
            (0, 2): Fraction(1, 4),
            (1, 1): Fraction(1, 2),
            (2, 0): Fraction(1, 4),
        }
        assert spectrum_to_json_obj(s)["header"]["source"] == "thermodynamic"

    def test_single_site(self):
        s = thermo_spectrum((THIRD, THIRD, THIRD), 1)
        assert sorted(e.weight_exact for e in s.entries) == [THIRD] * 3

    def test_exact_normalization(self):
        s = thermo_spectrum((Fraction(1, 5), Fraction(2, 5), Fraction(2, 5)), 17)
        assert sum(e.weight_exact for e in s.entries) == 1

    def test_matches_reference_weights(self):
        s = thermo_spectrum((0.2, 0.3, 0.5), 6, exact=False)
        expected = thermo_weights((0.2, 0.3, 0.5), 6)
        assert len(s.entries) == len(expected)
        for e, w in zip(s.entries, s.weights):
            assert w == pytest.approx(expected[e.parts], rel=1e-12)

    def test_float_densities_fall_back_to_log_domain(self):
        s = thermo_spectrum((1 / 3, 1 / 3, 1 / 3), 9)
        assert not s.is_exact
        assert s.normalization_residual() < 1e-10

    def test_finite_size_convergence(self):
        # thermodynamic weights against the L = 10^6 sector, per entry
        n = 100
        thermo = thermo_spectrum((HALF, HALF), n)
        finite = exact_spectrum(SectorConfig.finite((500_000, 500_000)), n)
        assert not finite.is_exact
        finite_by_parts = {e.parts: w for e, w in zip(finite.entries, finite.weights)}
        for e in thermo.entries:
            assert abs(float(e.weight_exact) - finite_by_parts[e.parts]) < 1e-3

    def test_negative_density_rejected(self):
        with pytest.raises(ValueError):
            thermo_spectrum((Fraction(3, 2), Fraction(-1, 2)), 3)

    def test_negative_block_size_rejected(self):
        with pytest.raises(ValueError, match="block size must be nonnegative"):
            thermo_spectrum((HALF, HALF), -1)

    def test_exact_needs_densities_summing_to_exactly_one(self):
        # the binary floats 0.1, 0.2 and 0.7 do not sum to exactly 1
        with pytest.raises(ValueError, match="summing to exactly 1"):
            thermo_spectrum((0.1, 0.2, 0.7), 3, exact=True)

    def test_exact_refuses_a_density_below_the_smallest_float(self):
        tiny = Fraction(1, 2**1100)  # rounds to float 0.0, which would drop its level
        with pytest.raises(ValueError, match="none rounding to 0.0"):
            thermo_spectrum((tiny, 1 - tiny), 3, exact=True)

    def test_auto_takes_the_log_domain_below_the_smallest_float(self):
        tiny = Fraction(1, 2**1100)
        s = thermo_spectrum((tiny, 1 - tiny), 3)
        assert not s.is_exact
        assert s.normalization_residual() <= 1e-12

    def test_zero_density_supported(self):
        s = thermo_spectrum((HALF, HALF, Fraction(0)), 4)
        assert all(e.parts[2] == 0 for e in s.entries)
        assert sum(e.weight_exact for e in s.entries) == 1

    def test_distinct_denominators_summing_to_one_stay_exact(self):
        dens = (HALF, THIRD, Fraction(1, 7), Fraction(1, 42))  # 21 + 14 + 6 + 1 = 42
        s = thermo_spectrum(dens, 5)
        assert s.is_exact
        assert sum(e.weight_exact for e in s.entries) == 1
        with pytest.raises(ValueError, match="must sum to 1 within 1e-12"):
            thermo_spectrum(dens[:3] + (Fraction(1, 43),), 5)  # 1/1806 short

    def test_sum_off_by_less_than_a_float_is_not_exact(self):
        # float(sum) is 1.0, so the 1e-12 check admits it, but the exact sum is not 1
        dens = (HALF, HALF + Fraction(1, 2**1100))
        assert not thermo_spectrum(dens, 3).is_exact
        with pytest.raises(ValueError, match="summing to exactly 1"):
            thermo_spectrum(dens, 3, exact=True)

    def test_wide_sparse_densities_take_no_fraction_addition_per_level(self, monkeypatch):
        added = []
        for name in ("__add__", "__radd__"):
            real = getattr(Fraction, name)
            monkeypatch.setattr(Fraction, name, lambda a, b, real=real: added.append(1) or real(a, b))
        s = thermo_spectrum((1,) + (0,) * 10_000, 3)
        assert len(added) < 10
        assert s.support_size == 1 and s.entries[0].parts == (3,) + (0,) * 10_000
        assert s.entries[0].weight_exact == 1 and s.log2_weights.tolist() == [0.0]

    def test_takes_a_sector_config_as_it_is(self):
        cfg = SectorConfig.infinite((HALF, THIRD, Fraction(1, 6)))
        given_config, given_densities = thermo_spectrum(cfg, 7), thermo_spectrum(cfg.densities, 7)
        assert given_config.sector is cfg
        assert given_config.entries == given_densities.entries
        assert given_config.log2_weights.tolist() == given_densities.log2_weights.tolist()
        with pytest.raises(ValueError, match="use exact_spectrum for finite L"):
            thermo_spectrum(SectorConfig.finite((2, 3)), 2)

    def test_cutoff_reports_dropped_mass(self):
        cutoff = 1e-8
        full = thermo_spectrum((0.2, 0.3, 0.5), 60, exact=False)
        trimmed = thermo_spectrum((0.2, 0.3, 0.5), 60, cutoff=cutoff, exact=False)
        assert trimmed.support_size < full.support_size
        assert trimmed.dropped_mass > 0.0
        assert math.fsum(trimmed.weights) >= 1.0 - 10.0 * cutoff
        assert trimmed.normalization_residual() < 1e-10

    def test_cutoff_incompatible_with_exact(self):
        with pytest.raises(ValueError):
            thermo_spectrum((HALF, HALF), 10, cutoff=1e-6, exact=True)

    def test_cutoff_dropping_more_than_ten_cutoffs_refused(self):
        # the 2000 levels of weight 1/4000 fall below 1e-3 of the largest, 1/2
        with pytest.raises(ValueError, match="cutoff 0.001 drops 5.000e-01 of the weight"):
            thermo_spectrum([1 / 2] + [1 / 4000] * 2000, 1, cutoff=1e-3)

    @pytest.mark.parametrize("cutoff", [-1e-9, 0.1, 2.0, math.inf, math.nan])
    def test_cutoff_outside_range_rejected(self, cutoff):
        # at 0.1 or more the dropped-mass check (10 * cutoff) could never fire
        with pytest.raises(ValueError, match=r"cutoff must lie in \[0, 0.1\)"):
            thermo_spectrum((HALF, HALF), 4, cutoff=cutoff, exact=False)


class TestUniformMixedSpectrum:
    def test_single_qubit(self):
        s = uniform_mixed_spectrum(1, 2)
        assert sorted(e.weight_exact for e in s.entries) == [HALF, HALF]

    def test_two_qubits(self):
        s = uniform_mixed_spectrum(2, 2)
        assert sorted(e.weight_exact for e in s.entries) == [THIRD] * 3

    def test_two_qutrits(self):
        s = uniform_mixed_spectrum(2, 3)
        assert sorted(e.weight_exact for e in s.entries) == [Fraction(1, 6)] * 6

    def test_empty_block_log_weight_is_positive_zero(self):
        for d in range(2, 6):
            (entry,) = uniform_mixed_spectrum(0, d).entries
            assert entry.log2_weight == 0.0 and math.copysign(1.0, entry.log2_weight) == 1.0

    def test_support_is_symmetric_subspace_dimension(self):
        for n, d in ((0, 2), (5, 3), (12, 4)):
            s = uniform_mixed_spectrum(n, d)
            assert s.support_size == math.comb(n + d - 1, d - 1)
            assert sum(e.weight_exact for e in s.entries) == 1


class TestEntryOrder:
    """Every builder labels its entries in the order of the recursive test enumerator.

    brute_compositions shares no code with the builders' walk, which
    enumerate_compositions also reads.
    """

    @staticmethod
    def assert_order(spec, reference):
        reference = list(reference)
        assert [e.parts for e in spec.entries] == reference
        assert spec.compositions.tolist() == [list(parts) for parts in reference]

    @given(st.data())
    @settings(max_examples=150)
    def test_finite_sectors(self, data):
        d = data.draw(st.integers(min_value=2, max_value=5))
        occ = data.draw(
            st.lists(st.integers(min_value=0, max_value=6), min_size=d, max_size=d).filter(any)
        )
        L = sum(occ)
        n = data.draw(st.one_of(st.sampled_from([0, L]), st.integers(min_value=0, max_value=L)))
        exact = data.draw(st.booleans())
        spec = exact_spectrum(SectorConfig.finite(occ), n, exact=exact)
        self.assert_order(spec, brute_compositions(n, tuple(occ)))

    @given(st.data())
    @settings(max_examples=150)
    def test_thermodynamic_sectors(self, data):
        d = data.draw(st.integers(min_value=2, max_value=5))
        counts = data.draw(
            st.lists(st.integers(min_value=0, max_value=4), min_size=d, max_size=d).filter(any)
        )
        dens = [Fraction(c, sum(counts)) for c in counts]
        n = data.draw(st.integers(min_value=0, max_value=9))
        spec = thermo_spectrum(dens, n, exact=data.draw(st.booleans()))
        bounds = [n if c else 0 for c in counts]
        self.assert_order(spec, brute_compositions(n, tuple(bounds)))

    @given(st.integers(min_value=0, max_value=8), st.integers(min_value=2, max_value=5))
    def test_uniform_mixture(self, n, d):
        spec = uniform_mixed_spectrum(n, d)
        self.assert_order(spec, brute_compositions(n, (n,) * d))


class TestOneBuilder:
    """Both sector spectra come from the one private builder; the uniform mixture does not."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen, build = [], spectrum._sector_spectrum

        def spy(*args):
            seen.append(args)
            return build(*args)

        monkeypatch.setattr(spectrum, "_sector_spectrum", spy)
        return seen

    @pytest.mark.parametrize(
        "build",
        [
            lambda: exact_spectrum(SectorConfig.finite((3, 2, 1)), 3),
            lambda: exact_spectrum(SectorConfig.finite((3, 2, 1)), 3, exact=False),
            lambda: thermo_spectrum((HALF, THIRD, 1 - HALF - THIRD), 6),
            lambda: thermo_spectrum((HALF, THIRD, 1 - HALF - THIRD), 6, exact=False),
            lambda: thermo_spectrum((HALF, THIRD, 1 - HALF - THIRD), 30, cutoff=1e-3),
        ],
        ids=["finite-exact", "finite-log", "thermo-exact", "thermo-log", "thermo-cutoff"],
    )
    def test_each_sector_build_reaches_it_once(self, calls, build):
        spec = build()
        ((cfg, n, exact),) = calls
        assert (cfg, n, exact) == (spec.sector, spec.block_size, spec.is_exact)

    def test_the_uniform_mixture_keeps_its_own(self, calls):
        uniform_mixed_spectrum(4, 3)
        assert calls == []


class TestExactAgainstLogDomain:
    """The exact and log-domain paths of one sector agree entry by entry."""

    @staticmethod
    def assert_paths_agree(build):
        exact, log_only = build(True), build(False)
        assert exact.is_exact and not log_only.is_exact
        assert [e.parts for e in exact.entries] == [e.parts for e in log_only.entries]
        assert [e.log2_weight.hex() for e in exact.entries] == [
            e.log2_weight.hex() for e in log_only.entries
        ]
        for a, b in zip(exact.weights, log_only.weights):
            assert abs(b - a) <= 1e-10 * a
        assert abs(entropy_of_spectrum(exact) - entropy_of_spectrum(log_only)) <= 1e-10

    @given(st.data())
    @settings(max_examples=150)
    def test_finite_sectors(self, data):
        d = data.draw(st.integers(min_value=2, max_value=5))
        occ = data.draw(
            st.lists(st.integers(min_value=0, max_value=12), min_size=d, max_size=d).filter(any)
        )
        L = sum(occ)
        n = data.draw(st.one_of(st.sampled_from([0, L]), st.integers(min_value=0, max_value=L)))
        cfg = SectorConfig.finite(occ)
        self.assert_paths_agree(lambda exact: exact_spectrum(cfg, n, exact=exact))

    @given(st.data())
    @settings(max_examples=150)
    def test_thermodynamic_sectors(self, data):
        d = data.draw(st.integers(min_value=2, max_value=5))
        counts = data.draw(
            st.lists(st.integers(min_value=0, max_value=5), min_size=d, max_size=d).filter(any)
        )
        dens = [Fraction(c, sum(counts)) for c in counts]
        n = data.draw(st.integers(min_value=0, max_value=14))
        self.assert_paths_agree(lambda exact: thermo_spectrum(dens, n, exact=exact))


class TestExactLogWeights:
    """Finite-sector log2 weights are the left-to-right sums of the level factors, then c."""

    @given(st.data())
    @settings(max_examples=150)
    def test_left_to_right_level_sums(self, data):
        d = data.draw(st.integers(min_value=2, max_value=4))
        occ = data.draw(
            st.lists(st.integers(min_value=0, max_value=40), min_size=d, max_size=d).filter(any)
        )
        L = sum(occ)
        n = data.draw(st.one_of(st.sampled_from([0, L]), st.integers(min_value=0, max_value=L)))
        exact = data.draw(st.booleans())
        cfg = SectorConfig.finite(occ)
        spec = exact_spectrum(cfg, n, exact=exact)
        c, f, _, _ = _product_form(cfg, n)
        expected = []
        for parts in spec.compositions.tolist():
            total = 0.0
            for N, k in zip(occ, parts):
                total += float(f(np.array([N]), np.array([k]))[0])
            expected.append(total + c)
        assert [x.hex() for x in spec.log2_weights.tolist()] == [x.hex() for x in expected]


class TestThermoLogWeights:
    """d = 2 L = inf log2 weights: the per-k level factors summed left to right, then c."""

    @pytest.mark.parametrize(
        "dens",
        [(0.5, 0.5), (0.1, 0.9), (Fraction(1, 3), Fraction(2, 3)), (1e-300, 1 - 1e-300)],
        ids=["half", "tenth", "third", "tiny"],
    )
    def test_per_k_formula_at_n_5000(self, dens):
        n = 5000
        spec = thermo_spectrum(dens, n, exact=False)
        c, f, (p0, p1), _ = _product_form(SectorConfig.infinite(dens), n)
        k = np.arange(n + 1)
        f0, f1 = f(np.full(n + 1, p0), k).tolist(), f(np.full(n + 1, p1), k).tolist()
        expected = [(f0[k] + f1[n - k]) + c for k in range(n + 1)]
        assert spec.compositions[:, 0].tolist() == list(range(n + 1))
        assert [x.hex() for x in spec.log2_weights.tolist()] == [x.hex() for x in expected]

    def test_subnormal_density_keeps_finite_log_weights(self):
        n, p = 40, 1e-320
        spec = thermo_spectrum((p, 1 - p), n)
        assert np.isfinite(spec.log2_weights).all()
        assert spec.compositions[1].tolist() == [1, n - 1]
        assert abs(spec.log2_weights[1] - math.log2(n * p)) < 1e-9


def left_to_right_log2(spec) -> list[float]:
    """Each row's log2 weight summed in the test: c after the level factors in level order,
    skipping a level the walk leaves free (bound 0, or n = 0) unless it is the last; a
    one-row spectrum is +0.0."""
    if spec.sector is None:  # the uniform mixture: one flat weight, at small sizes exact
        return [0.0 - math.log2(math.comb(spec.block_size + spec.d - 1, spec.d - 1))] * len(
            spec.compositions
        )
    if len(spec.compositions) == 1:
        return [0.0]
    n = spec.block_size
    c, f, xs, bounds = _product_form(spec.sector, n)
    expected = []
    for parts in spec.compositions.tolist():
        total = 0.0
        for i, (x, b, k) in enumerate(zip(xs, bounds, parts)):
            if min(b, n) > 0 or i == len(parts) - 1:
                total += float(f(np.array([x]), np.array([k]))[0])
        expected.append(total + c)
    return expected


LAZY_CASES = [
    *[(lambda occ=occ, n=n, exact=exact: exact_spectrum(SectorConfig.finite(occ), n, exact=exact))
      for occ, n, exact in [
          ((3, 4, 2), 4, True), ((3, 4, 2), 4, False), ((5, 5), 5, True), ((6, 0, 4), 3, True),
          ((0, 6, 4), 7, False), ((6, 4, 0), 5, True), ((0, 0, 7), 3, True), ((7, 0, 0), 0, True),
          ((2, 3, 1), 0, False), ((2, 3, 1), 6, True), ((2, 3, 1), 6, False), ((5, 0), 3, True),
          ((0, 5), 2, False), ((40, 40, 40), 60, False), ((7, 6, 5, 4, 3), 11, False),
          ((400, 0, 30, 20), 7, True), ((1, 1), 1, True), ((10, 1, 0, 3), 14, True),
          ((4, 4), 8, False), ((0, 3, 3), 0, False),
      ]],
    *[(lambda dens=dens, n=n, exact=exact: thermo_spectrum(dens, n, exact=exact))
      for dens, n, exact in [
          ((HALF, HALF), 9, True), ((HALF, HALF), 9, False), ((THIRD,) * 3, 6, True),
          ((HALF, 0, HALF), 5, True), ((0, THIRD, 1 - THIRD), 4, False), ((1, 0, 0), 8, True),
          ((Fraction(1, 4),) * 4, 12, True), ((HALF, Fraction(1, 4), 0, Fraction(1, 4)), 7, False),
          ((0.3, 0.7), 20, None), ((THIRD,) * 3, 0, True), ((HALF, HALF, 0, 0), 6, True),
          ((HALF, HALF), 0, False),
      ]],
    *[(lambda dens=dens, n=n, cutoff=cutoff: thermo_spectrum(dens, n, cutoff))
      for dens, n, cutoff in [((0.1, 0.9), 40, 1e-6), ((THIRD,) * 3, 30, 1e-3),
                              ((HALF, 0, HALF), 25, 1e-4)]],
    *[(lambda n=n, d=d: uniform_mixed_spectrum(n, d))
      for n, d in [(0, 2), (1, 3), (3, 3), (5, 2), (2, 5)]],
]


class TestLazyLog2Column:
    """The log2 column, derived on first read, is the left-to-right sum of the level factors."""

    @pytest.mark.parametrize("build", LAZY_CASES, ids=range(len(LAZY_CASES)))
    def test_matches_a_left_to_right_reference(self, build):
        spec = build()
        expected = left_to_right_log2(spec)
        assert [x.hex() for x in spec.log2_weights.tolist()] == [x.hex() for x in expected]
        if spec.support_size == 1:
            assert math.copysign(1.0, spec.log2_weights[0]) == 1.0
        assert spec.log2_weights is spec.log2_weights  # derived once and kept

    def test_exact_builds_leave_the_log_form_unbuilt(self, monkeypatch):
        stacked, seen = spectrum._stacked, []

        def spy(*args):
            seen.append(args)
            return stacked(*args)

        monkeypatch.setattr(spectrum, "_stacked", spy)
        spec = thermo_spectrum((HALF, THIRD, 1 - HALF - THIRD), 6, exact=True)
        assert math.fsum(spec.weights) == 1.0 and spec.support_size == 28 and seen == []
        spec.log2_weights
        spec.log2_weights
        assert len(seen) == 1

    @pytest.mark.parametrize(
        "build, reached",
        [
            (lambda: exact_spectrum(SectorConfig.finite((3, 2, 1)), 3), 1),
            (lambda: exact_spectrum(SectorConfig.finite((3, 2, 1)), 3, exact=False), 0),
            (lambda: thermo_spectrum((HALF, THIRD, 1 - HALF - THIRD), 6), 1),
            (lambda: thermo_spectrum((HALF, THIRD, 1 - HALF - THIRD), 6, exact=False), 0),
        ],
        ids=["finite-exact", "finite-log", "thermo-exact", "thermo-log"],
    )
    def test_every_exact_build_reaches_the_factor_table(self, monkeypatch, build, reached):
        # the spy point of the guard tests below: every exact build passes it after its guard
        table, seen = spectrum._exact_factors, []
        monkeypatch.setattr(spectrum, "_exact_factors", lambda *a: seen.append(a) or table(*a))
        build()
        assert len(seen) == reached


class TestThermoMultinomial:
    """L = inf numerators: a_i^{k_i} times multinomial(n; k), over B^n, by math.comb."""

    @pytest.mark.parametrize(
        "dens",
        [(HALF, HALF), (THIRD,) * 3, (HALF, 0, HALF), (0, THIRD, 1 - THIRD), (1, 0, 0),
         (HALF, HALF, 0, 0), (Fraction(1, 4),) * 4, (HALF, Fraction(1, 4), 0, Fraction(1, 4)),
         (Fraction(1, 5), Fraction(2, 3), Fraction(2, 15))],
    )
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 13])
    def test_numerators_against_math_comb(self, dens, n):
        spec = thermo_spectrum(dens, n, exact=True)
        B = math.lcm(*(Fraction(p).denominator for p in dens))
        assert spec.denominator == B**n
        for parts, num in zip(spec.compositions.tolist(), spec.numerators):
            expected, left = 1, n
            for p, k in zip(dens, parts):
                expected *= math.comb(left, k) * (Fraction(p) * B).numerator ** k
                left -= k
            assert num == expected

    def test_half_at_5000_in_under_half_a_second(self):
        # one exact binomial per row took 1.5 s here; one table by the running ratio, 10 ms
        start = time.perf_counter()
        spec = thermo_spectrum((HALF, HALF), 5000, exact=True)
        assert time.perf_counter() - start < 0.5
        assert spec.numerators[:3] == [1, 5000, math.comb(5000, 2)]
        assert spec.numerators[2500] == math.comb(5000, 2500)
        assert sum(spec.numerators) == spec.denominator == 2**5000


class TestSupportGuard:
    def test_oversized_spectra_raise(self):
        # C(404, 4) ~ 1.1e9 compositions in both cases
        with pytest.raises(ResourceLimitError):
            thermo_spectrum((Fraction(1, 5),) * 5, 400)
        with pytest.raises(ResourceLimitError):
            uniform_mixed_spectrum(400, 5)
        with pytest.raises(ResourceLimitError):
            exact_spectrum(SectorConfig.finite((1000,) * 5), 2500)
        with pytest.raises(ResourceLimitError):
            thermo_spectrum((Fraction(1, 20),) * 20, 20_000)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: uniform_mixed_spectrum(200_000, 200_000), "at least 41 exceeds guard 40"),
            (lambda: uniform_mixed_spectrum(2_000_000, 2_000_000), "at least 5 exceeds guard 4"),
            (lambda: thermo_spectrum((Fraction(1, 2000),) * 2000, 1_000_000),
             "at least 4001 exceeds guard 4000"),
        ],
        ids=["uniform-2e5", "uniform-2e6", "inf-2000-levels"],
    )
    def test_unbounded_levels_refused_before_any_count(self, monkeypatch, build, message):
        # each support C(n + m - 1, m - 1) has over 6,000 digits; none is built or counted,
        # and the first level's counts are clipped at the guard of 8e6 cells over d levels
        comb = math.comb

        def small_comb(a, b):
            assert min(b, a - b) < 100, "count built"
            return comb(a, b)

        monkeypatch.setattr(math, "comb", small_comb)
        monkeypatch.setattr(combinatorics, "composition_count", small_comb)
        with pytest.raises(ResourceLimitError) as refused:
            build()
        assert str(refused.value) == f"composition support of {message}"

    def test_counts_past_2_64_shown_by_their_power_of_two(self):
        # the supports, about 2^10122.5 and 2^186.8, are refused at the first level past the
        # guard with a plain count of that level's rows; no count of the support is built
        cases = [
            (lambda: exact_spectrum(SectorConfig.finite((9999,) * 3000), 10_000),
             "at least 2667 exceeds guard 2666"),
            (lambda: exact_spectrum(SectorConfig.finite((999,) * 30), 1000),
             "at least 501499 exceeds guard 266666"),
            (lambda: uniform_mixed_spectrum(2000, 3), "at least 2003001 exceeds guard 2000000"),
        ]
        for build, message in cases:
            start = time.perf_counter()
            with pytest.raises(ResourceLimitError) as refused:
                build()
            assert time.perf_counter() - start < 1.0
            assert str(refused.value) == f"composition support of {message}"

    def test_lower_bound_refuses_without_counting(self, monkeypatch):
        def fail(total, bounds):
            raise AssertionError("composition_count called")

        monkeypatch.setattr(combinatorics, "composition_count", fail)
        # the first seven levels already hold 8! = 40,320 prefixes, past 8e6 cells / 400 levels
        with pytest.raises(ResourceLimitError) as refused:
            exact_spectrum(SectorConfig.finite(range(1, 401)), 40_100)
        assert str(refused.value) == "composition support of at least 40320 exceeds guard 20000"

    def test_walk_is_the_only_support_guard(self, monkeypatch):
        def fail(total, bounds):
            raise AssertionError("composition_count called")

        monkeypatch.setattr(combinatorics, "composition_count", fail)
        built = [
            (exact_spectrum(SectorConfig.finite((6, 5, 4)), 7), (6, 5, 4)),
            (thermo_spectrum((THIRD,) * 3, 4), (4,) * 3),
            (uniform_mixed_spectrum(3, 3), (3,) * 3),
        ]
        for spec, bounds in built:
            assert spec.compositions.tolist() == [
                list(k) for k in brute_compositions(spec.block_size, bounds)
            ]
        refused = [
            lambda: exact_spectrum(SectorConfig.finite((1000,) * 5), 2500),
            lambda: thermo_spectrum((Fraction(1, 5),) * 5, 400),
            lambda: uniform_mixed_spectrum(400, 5),
            lambda: uniform_mixed_spectrum(1, 100_000),
            lambda: exact_spectrum(SectorConfig.finite((1,) * 100_000), 1),
        ]
        for build in refused:
            with pytest.raises(ResourceLimitError, match=r"^composition support of at least "):
                build()

    def test_uniform_levels_refused_before_their_bounds(self):
        # a single row needs d cells: the bounds (n,) * d alone would take 8 GB here
        tracemalloc.start()
        try:
            start = time.perf_counter()
            with pytest.raises(ResourceLimitError) as refused:
                uniform_mixed_spectrum(1, 10**9)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(refused.value) == "cells of a single row 1000000000 exceeds guard 8000000"
        assert elapsed < 1.0
        assert peak < 2**20

    def test_many_levels_refused_by_their_cells(self):
        # a support of 10^5 rows of 10^5 levels: a 75 GiB matrix, refused at 81 rows
        tracemalloc.start()
        try:
            start = time.perf_counter()
            with pytest.raises(ResourceLimitError) as refused:
                uniform_mixed_spectrum(1, 100_000)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(refused.value) == "composition support of at least 81 exceeds guard 80"
        assert elapsed < 1.0
        assert peak < 20 * 2**20

    def test_exact_weights_refused_before_building(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("_exact_factors called")

        monkeypatch.setattr(spectrum, "_exact_factors", fail)
        # 40,001 entries over 2^40000 and over C(80000, 40000): >= 1.6e9 bits each
        with pytest.raises(ResourceLimitError, match="numerator bits"):
            thermo_spectrum((HALF, HALF), 40_000, exact=True)
        with pytest.raises(ResourceLimitError, match="numerator bits"):
            exact_spectrum(SectorConfig.finite((40_000, 40_000)), 40_000, exact=True)

    def test_exact_guard_fires_before_any_integer_is_built(self, monkeypatch):
        # the guard fires before the denominator C(L, n), the level factors or any row is built
        def fail(*args):
            raise AssertionError("built before the guard")

        built = []
        comb = math.comb
        monkeypatch.setattr(math, "comb", lambda a, b: built.append((a, b)) or comb(a, b))
        monkeypatch.setattr(spectrum, "_exact_factors", fail)
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300, raising=False)
        # 1,000,001 entries over C(1.6e7, 1e6), of about 5.4e6 bits
        with pytest.raises(ResourceLimitError, match="numerator bits"):
            exact_spectrum(SectorConfig.finite((8_000_000, 8_000_000)), 1_000_000, exact=True)
        # one entry over C(1e5, 5e4), of about 30,100 digits
        with pytest.raises(ResourceLimitError, match="4300 decimal digits"):
            exact_spectrum(SectorConfig.finite((100_000, 0)), 50_000, exact=True)
        assert (16_000_000, 1_000_000) not in built and (100_000, 50_000) not in built

    def test_level_rows_bounded_by_the_feasible_counts(self):
        # each level's factors span max(0, n - other bounds)..min(b_i, n): 4 and 4 values here
        tracemalloc.start()
        try:
            spec = exact_spectrum(SectorConfig.finite((3, 10**10)), 10**10, exact=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20
        assert spec.compositions.tolist() == [[0, 10**10], [1, 10**10 - 1], [2, 10**10 - 2],
                                              [3, 10**10 - 3]]
        assert spec.normalization_residual() < 1e-15

    def test_exact_guard_builds_no_power(self):
        # B = 2 * 10^4000, so B^n has about 1.3e10 bits at n = 10^6
        p = HALF + Fraction(1, 10**4000)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="numerator bits"):
                thermo_spectrum((p, 1 - p), 10**6, exact=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50 * 2**20

    def test_denominators_past_the_digit_limit_refused_before_building(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("_exact_factors called")

        monkeypatch.setattr(spectrum, "_exact_factors", fail)
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300, raising=False)
        # C(14400, 7200) has 4,333 digits; 2^14500 has 4,365; both within MAX_EXACT_BITS
        with pytest.raises(ResourceLimitError, match="4300 decimal digits"):
            exact_spectrum(SectorConfig.finite((7200, 7200)), 7200, exact=True)
        with pytest.raises(ResourceLimitError, match="4300 decimal digits"):
            thermo_spectrum((HALF, HALF), 14_500, exact=True)

    def test_digit_limit_boundary(self, monkeypatch):
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300, raising=False)
        spectrum._check_exact_bits(1, 10**4300 - 1)  # 4,300 digits: writable
        with pytest.raises(ResourceLimitError, match="decimal digits"):
            spectrum._check_exact_bits(1, 10**4300)
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)  # limit switched off
        spectrum._check_exact_bits(1, 10**4300)

    def test_limit_admits_largest_documented_spectrum(self):
        assert math.comb(203, 3) == 1_373_701 <= MAX_SPECTRUM_SUPPORT
        assert MAX_SPECTRUM_SUPPORT * 4 <= MAX_SPECTRUM_CELLS  # the cells bind only past d = 4
        assert 1_373_701 * (4**200).bit_length() <= spectrum.MAX_EXACT_BITS
        spectrum._check_exact_bits(1_373_701, 4**200)

    def test_error_class_is_shared(self):
        assert permutent.ResourceLimitError is ResourceLimitError
        assert oracle.ResourceLimitError is ResourceLimitError
        assert combinatorics.ResourceLimitError is ResourceLimitError


class TestSerialization:
    def test_finite_round_trip_fields(self):
        s = exact_spectrum(SectorConfig.finite((2, 2)), 2)
        obj = {"generator": "permutent test"}
        obj.update(spectrum_to_json_obj(s))
        assert_valid(obj, SCHEMA)
        assert obj["header"]["L"] == 4
        assert obj["header"]["occupations"] == [2, 2]
        assert obj["header"]["source"] == "finite-exact"
        assert {tuple(r["composition"]): r["weight"] for r in obj["entries"]} == {
            (0, 2): "1/6",
            (1, 1): "2/3",
            (2, 0): "1/6",
        }

    def test_infinite_header(self):
        s = thermo_spectrum((THIRD, THIRD, THIRD), 2)
        obj = {"generator": "permutent test"}
        obj.update(spectrum_to_json_obj(s))
        assert_valid(obj, SCHEMA)
        assert obj["header"]["L"] == "inf"
        assert obj["header"]["densities"] == ["1/3", "1/3", "1/3"]

    def test_uniform_header(self):
        s = uniform_mixed_spectrum(3, 2)
        obj = {"generator": "permutent test"}
        obj.update(spectrum_to_json_obj(s))
        assert_valid(obj, SCHEMA)
        assert obj["header"]["L"] is None
        assert obj["header"]["source"] == "uniform-mixed"

    @pytest.mark.parametrize(
        "build",
        [
            lambda: exact_spectrum(SectorConfig.finite((6, 5, 4)), 7),
            lambda: exact_spectrum(SectorConfig.finite((3, 0, 2)), 5),
            lambda: exact_spectrum(SectorConfig.finite((4, 4)), 0),
            lambda: thermo_spectrum((HALF, THIRD, Fraction(1, 6)), 9),
            lambda: thermo_spectrum((THIRD, 2 * THIRD), 300),
            lambda: thermo_spectrum((HALF, 0, HALF), 6, exact=False),
            lambda: uniform_mixed_spectrum(5, 3),
            lambda: uniform_mixed_spectrum(0, 2),
        ],
        ids=["finite", "empty-level", "point-mass", "thermo", "thermo-n300", "log-domain",
             "uniform", "uniform-n0"],
    )
    def test_records_match_the_rows(self, build):
        s = build()
        expected = []
        for e in s.entries:
            rec = {"composition": list(e.parts), "log2_weight": e.log2_weight}
            if e.weight_exact is not None:
                rec["weight"] = str(e.weight_exact)
            expected.append(rec)
        records = spectrum_to_json_obj(s)["entries"]
        assert records == expected
        for rec, num in zip(records, s.numerators or []):
            assert rec["weight"] == str(Fraction(num, s.denominator))

    def test_point_mass_weight_is_one(self):
        # one occupied level at 0 < n < L included: its full level must cancel to +0.0 exactly
        lone, wide = SectorConfig.finite((0, 5, 0)), SectorConfig.finite((400, 0))
        for spec, composition in (
            (exact_spectrum(SectorConfig.finite((4, 4)), 8), [4, 4]),
            (uniform_mixed_spectrum(0, 3), [0, 0, 0]),
            (exact_spectrum(lone, 3), [0, 3, 0]),
            (exact_spectrum(lone, 3, exact=False), [0, 3, 0]),
            (exact_spectrum(wide, 170, exact=False), [170, 0]),
        ):
            (record,) = spectrum_to_json_obj(spec)["entries"]
            expected = {"composition": composition, "log2_weight": 0.0}
            if spec.is_exact:
                expected["weight"] = "1"
            assert record == expected
            assert math.copysign(1.0, record["log2_weight"]) == 1.0
