import math

import numpy as np
import pytest

from permutent import oracle
from permutent.oracle import (
    EigensolverConvergenceError,
    ResourceLimitError,
    build_state,
    dense_eigenvalues,
    partial_trace,
    verify_theorem,
    verify_uniform_mixture,
)
from permutent.spectrum import SectorConfig, exact_spectrum


class TestBuildState:
    def test_triplet_state(self):
        state = build_state(SectorConfig.finite((1, 1)))
        r = 1.0 / math.sqrt(2.0)
        assert state.shape == (2, 2)
        assert np.allclose(state, [[0.0, r], [r, 0.0]])

    def test_one_down_three_sites(self):
        state = build_state(SectorConfig.finite((1, 2)))
        expected = np.zeros((2, 2, 2))
        for sites in ((0, 1, 1), (1, 0, 1), (1, 1, 0)):
            expected[sites] = 1.0 / math.sqrt(3.0)
        assert np.allclose(state, expected)

    def test_product_state(self):
        state = build_state(SectorConfig.finite((0, 2, 0)))
        expected = np.zeros((3, 3))
        expected[1, 1] = 1.0
        assert np.allclose(state, expected)

    def test_unit_norm(self):
        for occupations in ((3, 2), (1, 2, 2), (2, 0, 1, 1)):
            state = build_state(SectorConfig.finite(occupations))
            assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("occupations", [(3, 2), (2, 0, 1, 1), (4, 4), (2, 2, 1), (1, 1, 1, 1)])
    def test_nonzero_count_is_multinomial(self, occupations):
        state = build_state(SectorConfig.finite(occupations))
        expected, left = 1, sum(occupations)
        for count in occupations:
            expected *= math.comb(left, count)
            left -= count
        assert np.count_nonzero(state) == expected  # L! / prod N_i!

    @pytest.mark.parametrize("occupations", [(3, 2), (2, 0, 1, 1), (2, 2, 1)])
    def test_nonzero_strings_hold_the_sector(self, occupations):
        state = build_state(SectorConfig.finite(occupations))
        for sites in np.argwhere(state):
            assert tuple(np.bincount(sites, minlength=len(occupations))) == occupations

    def test_permutation_invariance(self):
        state = build_state(SectorConfig.finite((2, 2, 1)))
        for i in range(state.ndim):
            for j in range(i + 1, state.ndim):
                assert np.array_equal(np.swapaxes(state, i, j), state)

    def test_resource_guard(self):
        with pytest.raises(ResourceLimitError):
            build_state(SectorConfig.finite((11, 10)))  # 2^21 amplitudes


class TestPartialTrace:
    def test_triplet_single_site(self):
        state = build_state(SectorConfig.finite((1, 1)))
        rho = partial_trace(state, 1)
        assert np.allclose(rho, [[0.5, 0.0], [0.0, 0.5]])

    def test_worked_case_eigenvalues(self):
        state = build_state(SectorConfig.finite((2, 2)))
        rho = partial_trace(state, 2)
        values = np.sort(np.linalg.eigvalsh(rho))[::-1]
        assert np.allclose(values[:3], [2 / 3, 1 / 6, 1 / 6], atol=1e-12)
        assert np.allclose(values[3:], 0.0, atol=1e-12)

    def test_full_block_is_rank_one(self):
        state = build_state(SectorConfig.finite((1, 2, 1)))
        rho = partial_trace(state, state.ndim)
        values = dense_eigenvalues(rho, tol=1e-8)
        assert values == pytest.approx([1.0], abs=1e-12)

    def test_preserves_trace_and_symmetry_for_random_states(self):
        rng = np.random.default_rng(17)
        for L, d in ((5, 2), (4, 3)):
            state = rng.normal(size=(d,) * L)
            state /= np.linalg.norm(state)
            for n in range(L + 1):
                rho = partial_trace(state, n)
                assert rho.shape == (d**n, d**n)
                assert np.trace(rho) == pytest.approx(1.0, abs=1e-10)
                assert np.abs(rho - rho.T).max() < 1e-12

    def test_resource_guard(self):
        state = build_state(SectorConfig.finite((6, 5)))  # 2^11 amplitudes
        with pytest.raises(ResourceLimitError):
            partial_trace(state, 11)  # 2^11 = 2048 > 2000

    def test_rejects_axes_of_different_lengths(self):
        for shape in ((2, 3), (2, 2, 3)):
            with pytest.raises(ValueError, match="same length"):
                partial_trace(np.ones(shape) / math.sqrt(math.prod(shape)), 1)


class TestDenseEigenvalues:
    def test_diagonal_matrix(self):
        assert dense_eigenvalues(np.diag([0.5, 0.5])) == pytest.approx([0.5, 0.5], abs=1e-14)

    def test_worked_case(self):
        rho = partial_trace(build_state(SectorConfig.finite((2, 2))), 2)
        values = dense_eigenvalues(rho, tol=1e-8)
        assert values == pytest.approx([2 / 3, 1 / 6, 1 / 6], abs=1e-10)

    def test_uniform_mixture_block(self):
        # averaged sector projectors of L=4 qubits, reduced to two sites
        accum = None
        for N0 in range(5):
            rho = partial_trace(build_state(SectorConfig.finite((N0, 4 - N0))), 2)
            accum = rho if accum is None else accum + rho
        accum /= 5.0
        values = dense_eigenvalues(accum, tol=1e-8)
        assert values == pytest.approx([1 / 3, 1 / 3, 1 / 3], abs=1e-10)

    def test_agrees_with_lapack_on_random_psd(self):
        rng = np.random.default_rng(23)
        for size in (2, 5, 17, 40):
            factor = rng.normal(size=(size, size))
            matrix = factor @ factor.T / size
            matrix /= np.trace(matrix)
            got = dense_eigenvalues(matrix, tol=1e-9)
            expected = np.sort(np.linalg.eigvalsh(matrix))[::-1]
            expected = [v for v in expected if v > 1e-9]
            assert got == pytest.approx(expected, abs=1e-10)

    def test_reports_nonconvergence(self, monkeypatch):
        rng = np.random.default_rng(1)
        factor = rng.normal(size=(12, 12))
        matrix = factor @ factor.T
        matrix /= np.trace(matrix)
        monkeypatch.setattr(oracle, "JACOBI_SWEEP_BUDGET_FACTOR", 3 / 12**2)  # 3 rotations
        with pytest.raises(EigensolverConvergenceError):
            dense_eigenvalues(matrix)

    def test_rejects_asymmetric_input(self):
        with pytest.raises(ValueError):
            dense_eigenvalues(np.array([[1.0, 0.5], [0.0, 1.0]]))

    @pytest.mark.parametrize(
        "matrix",
        [[[0.5, math.nan], [math.nan, 0.5]], [[math.nan, math.nan], [math.nan, math.nan]],
         [[math.inf, 0.0], [0.0, 0.5]]],
    )
    def test_rejects_non_finite_input(self, matrix):
        with pytest.raises(ValueError, match="non-finite"):
            dense_eigenvalues(matrix)


class TestVerifyTheorem:
    def test_small_sweep_passes(self):
        for L in range(1, 6):
            for N0 in range(L + 1):
                cfg = SectorConfig.finite((N0, L - N0))
                for n in range(L + 1):
                    report = verify_theorem(cfg, n)
                    assert report.passed, report.to_json_obj()
                    assert report.max_abs_dev < 1e-10

    def test_qutrit_case(self):
        report = verify_theorem(SectorConfig.finite((2, 1, 1)), 2)
        assert report.passed

    def test_support_count_matches_formula(self):
        cfg = SectorConfig.finite((3, 2, 1))
        for n in range(cfg.L + 1):
            report = verify_theorem(cfg, n)
            assert report.support_size_dense == report.support_size_formula
            assert report.support_size_formula == len(exact_spectrum(cfg, n).entries)

    def test_empty_level_equivalence(self):
        padded = verify_theorem(SectorConfig.finite((2, 0, 2)), 2)
        plain = verify_theorem(SectorConfig.finite((2, 2)), 2)
        assert padded.passed and plain.passed
        assert padded.support_size_dense == plain.support_size_dense

    def test_fault_injection_hook(self):
        report = verify_theorem(SectorConfig.finite((2, 2)), 2, perturb=1e-6)
        assert not report.passed
        assert report.max_abs_dev >= 1e-6

    def test_report_serialization(self):
        obj = verify_theorem(SectorConfig.finite((1, 1)), 1).to_json_obj()
        assert list(obj) == [
            "config",
            "n",
            "max_abs_dev",
            "support_size_formula",
            "support_size_dense",
            "pass",
        ]


class TestVerifyUniformMixture:
    def test_four_qubits(self):
        report = verify_uniform_mixture(4, 2, 2)
        assert report.passed
        assert report.support_size_dense == 3

    def test_three_qutrits(self):
        report = verify_uniform_mixture(3, 3, 1)
        assert report.passed
        assert report.support_size_dense == 3

    def test_empty_block(self):
        report = verify_uniform_mixture(3, 2, 0)
        assert report.passed
        assert report.support_size_dense == 1

    def test_missing_eigenvalues_count_as_deviation(self, monkeypatch):
        # a dense side that finds one eigenvalue fewer is padded with a zero
        real = oracle.dense_eigenvalues
        monkeypatch.setattr(oracle, "dense_eigenvalues", lambda rho, tol: real(rho, tol)[:-1])
        report = verify_uniform_mixture(4, 2, 2)
        assert not report.passed
        assert (report.support_size_formula, report.support_size_dense) == (3, 2)
        assert report.max_abs_dev == pytest.approx(1 / 3, abs=1e-12)
