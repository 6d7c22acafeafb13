import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permutent.combinatorics import MAX_SPECTRUM_SUPPORT
from permutent.entropy import asymptotic_entropy
from permutent.gaussian import (
    MOMENT_CHUNK_ROWS,
    MOMENT_COUNT_BOUND,
    build_gaussian,
    composition_moments,
    gaussian_entropy,
)
from permutent.spectrum import (
    SectorConfig,
    Spectrum,
    exact_spectrum,
    thermo_spectrum,
    uniform_mixed_spectrum,
)

from _oracles import finite_weights, thermo_exact_weights, uniform_weights

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


def random_simplex(rng, d, floor=0.02):
    while True:
        raw = [rng.random() for _ in range(d)]
        total = sum(raw)
        p = [x / total for x in raw]
        if min(p) >= floor:
            return tuple(p)


class TestCompositionMoments:
    def test_fair_coin_block(self):
        mean, cov = composition_moments(thermo_spectrum((HALF, HALF), 10))
        assert mean.tolist() == [5.0, 5.0]
        assert cov.tolist() == [[2.5, -2.5], [-2.5, 2.5]]

    def test_three_level_block(self):
        mean, cov = composition_moments(thermo_spectrum((THIRD, THIRD, THIRD), 9))
        assert mean.tolist() == [3.0, 3.0, 3.0]
        assert np.allclose(np.diag(cov), 2.0, atol=1e-14)
        off = cov[~np.eye(3, dtype=bool)]
        assert np.allclose(off, -1.0, atol=1e-14)

    def test_multinomial_moment_formulas_exact(self):
        densities = (Fraction(1, 5), Fraction(2, 5), Fraction(2, 5))
        n = 14
        mean, cov = composition_moments(thermo_spectrum(densities, n))
        p = [float(x) for x in densities]
        for i in range(3):
            assert mean[i] == pytest.approx(n * p[i], abs=1e-12)
            assert cov[i, i] == pytest.approx(n * p[i] * (1.0 - p[i]), abs=1e-12)
            for j in range(3):
                if i != j:
                    assert cov[i, j] == pytest.approx(-n * p[i] * p[j], abs=1e-12)

    def test_hypergeometric_variance(self):
        # finite-L moments carry the (L-n)/(L-1) correction factor
        mean, cov = composition_moments(exact_spectrum(SectorConfig.finite((2, 2)), 2))
        assert mean.tolist() == [1.0, 1.0]
        expected_var = 2.0 * 0.25 * (4 - 2) / (4 - 1)
        assert cov[0, 0] == pytest.approx(expected_var, abs=1e-15)
        assert cov[0, 0] == pytest.approx(float(Fraction(1, 3)), abs=1e-15)

    def test_counts_past_int64_products(self):
        # counts of 10^10 square past 2^63; the moments still equal the exact ones
        spec = exact_spectrum(SectorConfig.finite((3, 10**10)), 10**10, exact=True)
        weights = [entry.weight_exact for entry in spec.entries]
        rows = spec.compositions.tolist()
        mean_ref = [sum(w * k[i] for w, k in zip(weights, rows)) for i in range(2)]
        mean, cov = composition_moments(spec)
        assert mean.tolist() == [float(m) for m in mean_ref]
        for i in range(2):
            for j in range(2):
                second = sum(w * k[i] * k[j] for w, k in zip(weights, rows))
                assert cov[i, j] == float(second - mean_ref[i] * mean_ref[j])

    def test_float_path_agrees_with_exact_path(self):
        exact_spec = thermo_spectrum((Fraction(1, 6), THIRD, HALF), 12)
        float_spec = thermo_spectrum((1 / 6, 1 / 3, 1 / 2), 12)
        assert not float_spec.is_exact
        m1, c1 = composition_moments(exact_spec)
        m2, c2 = composition_moments(float_spec)
        assert np.allclose(m1, m2, atol=1e-9)
        assert np.allclose(c1, c2, atol=1e-9)

    def test_empty_spectrum_rejected(self):
        empty = Spectrum(np.empty((0, 2), dtype=np.int64), np.empty(0), 3)
        with pytest.raises(ValueError):
            composition_moments(empty)


class TestExactMomentsBitExact:
    """Exact-weight moments are the floats of the exact rational mean and central moments."""

    @staticmethod
    def assert_moments_exact(spec, weights):
        assert spec.is_exact
        assert sorted(map(tuple, spec.compositions.tolist())) == sorted(weights)
        d = spec.d
        # the weights as integers a over one common denominator D, summed as integers, one
        # Fraction per moment: with S = sum a, M_i = sum a k_i and M_ij = sum a k_i k_j, the
        # mean is M_i / D and sum w (k_i - mean_i)(k_j - mean_j) is
        # sum a (D k_i - M_i)(D k_j - M_j) / D^3 = (D^2 M_ij - (2D - S) M_i M_j) / D^3
        D = math.lcm(*(w.denominator for w in weights.values()))
        a = {k: w.numerator * (D // w.denominator) for k, w in weights.items()}
        S = sum(a.values())
        M = [sum(ak * k[i] for k, ak in a.items()) for i in range(d)]
        got_mean, got_cov = composition_moments(spec)
        assert got_mean.tolist() == [float(Fraction(M[i], D)) for i in range(d)]
        expected_cov = [
            [float(Fraction(D * D * sum(ak * k[i] * k[j] for k, ak in a.items())
                            - (2 * D - S) * M[i] * M[j], D**3))
             for j in range(d)]
            for i in range(d)
        ]
        assert got_cov.tolist() == expected_cov

    @given(st.data())
    @settings(max_examples=100)
    def test_finite_sectors(self, data):
        d = data.draw(st.integers(min_value=2, max_value=4))
        occ = tuple(data.draw(
            st.lists(st.integers(min_value=0, max_value=7), min_size=d, max_size=d).filter(any)
        ))
        L = sum(occ)
        n = data.draw(st.one_of(st.sampled_from([0, L]), st.integers(min_value=0, max_value=L)))
        spec = exact_spectrum(SectorConfig.finite(occ), n, exact=True)
        self.assert_moments_exact(spec, finite_weights(occ, n))

    @given(st.data())
    @settings(max_examples=100)
    def test_thermodynamic_sectors(self, data):
        d = data.draw(st.integers(min_value=2, max_value=4))
        counts = data.draw(
            st.lists(st.integers(min_value=0, max_value=5), min_size=d, max_size=d).filter(any)
        )
        dens = tuple(Fraction(c, sum(counts)) for c in counts)
        n = data.draw(st.integers(min_value=0, max_value=9))
        spec = thermo_spectrum(dens, n, exact=True)
        self.assert_moments_exact(spec, thermo_exact_weights(dens, n))

    @given(st.integers(min_value=0, max_value=8), st.integers(min_value=2, max_value=4))
    def test_uniform_mixture(self, n, d):
        self.assert_moments_exact(uniform_mixed_spectrum(n, d), uniform_weights(n, d))

    @pytest.mark.parametrize(
        "build",
        [
            # several chunks, counts past 2^11 (the split's high part is nonzero)
            lambda: uniform_mixed_spectrum(10_000, 2),
            # numerators over 2^5000, 626 bytes wide: 209 rows a chunk
            lambda: thermo_spectrum((HALF, HALF), 5000, exact=True),
            # an empty level: its shifted count is 0 in every row
            lambda: exact_spectrum(SectorConfig.finite((6, 0, 5, 4)), 7),
            # the block edges n = 0 and n = L: one row each
            lambda: exact_spectrum(SectorConfig.finite((6, 5, 4)), 0),
            lambda: exact_spectrum(SectorConfig.finite((6, 5, 4)), 15),
            lambda: thermo_spectrum((THIRD, THIRD, THIRD), 0, exact=True),
        ],
        ids=["uniform-10000-2", "thermo-half-5000", "empty-level", "n-0", "n-L", "thermo-n-0"],
    )
    def test_kernel_edges(self, build):
        # the chunked limb products at their edges, against the spectrum's own exact weights
        spec = build()
        self.assert_moments_exact(spec, {e.parts: e.weight_exact for e in spec.entries})


class TestExactMomentKernel:
    """The bounds and checks that keep the chunked limb products exact."""

    def test_exactness_bound_holds(self):
        # every spectrum the builders admit has at most 2^21 rows, so a level's shifted count is
        # below 2^21; raising the support guard or the chunk must fail here, not round silently
        assert MAX_SPECTRUM_SUPPORT <= MOMENT_COUNT_BOUND == 2**21
        top = MOMENT_COUNT_BOUND - 1
        assert top * (top >> 11) < 2**32 and top * 2047 < 2**32  # the split count columns
        assert MOMENT_CHUNK_ROWS * 255 * 2**32 < 2**53  # one chunk's float64 sums are exact
        assert MOMENT_COUNT_BOUND * 255 * 2**32 < 2**63  # the int64 totals over every row

    @pytest.mark.parametrize(
        "numerators",
        [[1, 4, 2], [1, 4, 0], [7, -1, 0], [2**20, 0, 0], [-6, 12, 0]],
        ids=["sum-over", "sum-under", "negative", "too-wide", "negative-sum-ok"],
    )
    def test_bad_numerators_raise_value_error(self, numerators):
        # exact_spectrum((2, 2), 2) has numerators [1, 4, 1] over 6; a doctored copy must raise
        # ValueError, not OverflowError from the limb split
        good = exact_spectrum(SectorConfig.finite((2, 2)), 2)
        assert good.numerators == [1, 4, 1] and good.denominator == 6
        bad = Spectrum(good.compositions, good.log2_weights, 2, good.sector, numerators, 6)
        with pytest.raises(ValueError):
            composition_moments(bad)

    def test_span_past_the_bound_refused(self):
        # no builder makes a level span 2^21 (a level's range is below the support); a doctored
        # spectrum that does is refused, not rounded
        parts = np.array([[0, MOMENT_COUNT_BOUND], [MOMENT_COUNT_BOUND, 0]])
        spec = Spectrum(parts, np.full(2, -1.0), MOMENT_COUNT_BOUND, None, [1, 1], 2)
        with pytest.raises(ValueError, match="count spans"):
            composition_moments(spec)
        parts[parts == 0] = 1  # a span of 2^21 - 1 is admitted
        spec = Spectrum(parts, np.full(2, -1.0), MOMENT_COUNT_BOUND + 1, None, [1, 1], 2)
        mean, _ = composition_moments(spec)
        assert mean.tolist() == [(MOMENT_COUNT_BOUND + 1) / 2] * 2

    def test_wide_spectrum_matches_its_closed_form(self):
        # 100 levels: 10,201 columns a row, so 12 rows a chunk over 5,050 rows.  The uniform
        # mixture is Dirichlet-multinomial with unit parameters: mean n/d, variance
        # n(d-1)(n+d)/(d^2(d+1)), covariance -n(n+d)/(d^2(d+1)), each rounded once
        n, d = 2, 100
        mean, cov = composition_moments(uniform_mixed_spectrum(n, d))
        assert mean.tolist() == [float(Fraction(n, d))] * d
        expected = np.full((d, d), float(Fraction(-n * (n + d), d * d * (d + 1))))
        np.fill_diagonal(expected, float(Fraction(n * (d - 1) * (n + d), d * d * (d + 1))))
        assert cov.tolist() == expected.tolist()

    def test_memory_is_set_by_the_chunk(self):
        # 46,376 rows at d = 5, 176,851 at d = 4, 5,001 of 626-byte numerators and 5,050 at
        # d = 100 (10,201 columns a row): all stay under one bound (the object-dtype matrix
        # products once tried here grew with the support)
        for spec in (
            exact_spectrum(SectorConfig.finite((60,) * 5), 30),
            thermo_spectrum((Fraction(1, 4),) * 4, 100),
            thermo_spectrum((HALF, HALF), 5000, exact=True),
            uniform_mixed_spectrum(2, 100),
        ):
            tracemalloc.start()
            try:
                composition_moments(spec)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * 2**20, (spec.support_size, peak)


class TestBuildGaussian:
    def test_three_equal_levels_determinant(self):
        for n in (1, 10, 100):
            model = build_gaussian((THIRD, THIRD, THIRD), n)
            assert 1.0 / model.det_A == pytest.approx(n**2 / 27.0, rel=1e-9)

    def test_two_level_scalar_variance(self):
        model = build_gaussian((Fraction(3, 10), Fraction(7, 10)), 50)
        assert model.dim == 1
        assert model.covariance[0, 0] == pytest.approx(50 * 0.7 * 0.3, rel=1e-12)
        assert 1.0 / model.det_A == pytest.approx(50 * 0.7 * 0.3, rel=1e-12)

    def test_four_equal_levels_determinant(self):
        model = build_gaussian((Fraction(1, 4),) * 4, 16)
        assert 1.0 / model.det_A == pytest.approx(16**3 * 0.25**4, rel=1e-9)

    def test_determinant_identity_random(self):
        rng = random.Random(42)
        for d in (2, 3, 4, 5):
            for _ in range(10):
                p = random_simplex(rng, d)
                for n in (1, 10, 100):
                    model = build_gaussian(p, n)
                    expected = n ** (d - 1) * math.prod(p)
                    assert 1.0 / model.det_A == pytest.approx(expected, rel=1e-8)

    def test_mean_vector(self):
        model = build_gaussian((0.2, 0.3, 0.5), 40)
        assert np.allclose(model.mean, [12.0, 20.0])

    def test_zero_density_rejected(self):
        with pytest.raises(ValueError, match="drop empty levels first"):
            build_gaussian((0.5, 0.5, 0.0), 10)

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            build_gaussian((0.6, 0.6), 10)
        with pytest.raises(ValueError):
            build_gaussian((1.0,), 10)
        with pytest.raises(ValueError):
            build_gaussian((0.5, 0.5), 0)
        with pytest.raises(ValueError, match="block size must be < L"):
            build_gaussian((0.5, 0.5), 10, L=10)

    @pytest.mark.parametrize("occupations, n", [((6, 5, 4), 7), ((3, 9), 1), ((2, 2, 3, 5), 11)])
    def test_finite_covariance_is_the_exact_one(self, occupations, n):
        # the hypergeometric covariance equals the exact moments of the finite spectrum
        L = sum(occupations)
        model = build_gaussian([Fraction(N, L) for N in occupations], n, L)
        _, cov = composition_moments(exact_spectrum(SectorConfig.finite(occupations), n))
        assert np.allclose(model.covariance, cov[1:, 1:], rtol=1e-12, atol=1e-12)


class TestGaussianEntropy:
    def test_three_level_value(self):
        model = build_gaussian((THIRD, THIRD, THIRD), 100)
        assert gaussian_entropy(model) == pytest.approx(8.360603609054273, abs=1e-9)

    def test_two_level_value(self):
        model = build_gaussian((HALF, HALF), 100)
        assert gaussian_entropy(model) == pytest.approx(4.369023680068003, abs=1e-9)

    def test_identical_to_infinite_asymptotic(self):
        rng = random.Random(9)
        for d in (2, 3, 4, 5):
            for _ in range(5):
                p = random_simplex(rng, d)
                cfg = SectorConfig.infinite(p)
                for n in (1, 17, 400):
                    model = build_gaussian(p, n)
                    assert gaussian_entropy(model) == pytest.approx(
                        asymptotic_entropy(cfg, n), abs=1e-9
                    )

    def test_elimination_invariance(self):
        # permuting the densities changes which level the sum constraint removes
        base = (0.15, 0.25, 0.6)
        n = 64
        reference = gaussian_entropy(build_gaussian(base, n))
        for permuted in ((0.6, 0.25, 0.15), (0.25, 0.6, 0.15)):
            model = build_gaussian(permuted, n)
            assert gaussian_entropy(model) == pytest.approx(reference, abs=1e-9)
            assert 1.0 / model.det_A == pytest.approx(
                1.0 / build_gaussian(base, n).det_A, rel=1e-9
            )
