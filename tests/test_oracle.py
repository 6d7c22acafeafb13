import ast
import itertools
import math
from pathlib import Path
from types import SimpleNamespace

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

    def test_rejects_infinite_sector(self):
        with pytest.raises(ValueError, match="finite sector"):
            build_state(SectorConfig.infinite((0.5, 0.5)))


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

    @pytest.mark.parametrize("n", [-1, 4])
    def test_block_size_outside_zero_to_L_rejected(self, n):
        state = build_state(SectorConfig.finite((2, 1)))
        with pytest.raises(ValueError, match=r"block size must lie in \[0, L\]"):
            partial_trace(state, n)


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

    @pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 2, 2)])
    def test_rejects_non_square_input(self, shape):
        with pytest.raises(ValueError, match="must be square"):
            dense_eigenvalues(np.zeros(shape))

    def test_rejects_asymmetric_input(self):
        with pytest.raises(ValueError):
            dense_eigenvalues(np.array([[1.0, 0.5], [0.0, 1.0]]))

    @pytest.mark.parametrize("row, col", [(260, 140), (140, 299), (299, 0), (0, 299)])
    def test_rejects_one_asymmetric_entry_past_the_first_tile(self, row, col):
        matrix = np.eye(300) / 300
        matrix[row, col] = 1e-9
        with pytest.raises(ValueError, match="must be symmetric"):
            dense_eigenvalues(matrix)

    @pytest.mark.parametrize(
        "matrix",
        [[[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]],
         [[0.5, 0.0, 0.3], [0.0, 0.0, 0.2], [0.3, 0.2, 0.5]]],
    )
    def test_rejects_a_zero_diagonal_row_that_is_not_zero(self, matrix):
        # not PSD: dropping the zero-diagonal row would lose the negative eigenvalue
        assert np.linalg.eigvalsh(matrix)[0] < -0.09
        with pytest.raises(ValueError, match="not positive semidefinite"):
            dense_eigenvalues(matrix)

    @pytest.mark.parametrize(
        "matrix",
        [[[0.5, math.nan], [math.nan, 0.5]], [[math.nan, math.nan], [math.nan, math.nan]],
         [[math.inf, 0.0], [0.0, 0.5]]],
    )
    def test_rejects_non_finite_input(self, matrix):
        with pytest.raises(ValueError, match="non-finite"):
            dense_eigenvalues(matrix)


def random_states(rng, L, d, count=1):
    states = rng.normal(size=(count,) + (d,) * L)
    return [s / np.linalg.norm(s) for s in states]


def recorded_shapes(monkeypatch):
    """Shapes of the matrices verify_* hands to dense_eigenvalues, in call order."""
    shapes, real = [], oracle.dense_eigenvalues

    def record(rho, tol):
        shapes.append(rho.shape)
        return real(rho, tol)

    monkeypatch.setattr(oracle, "dense_eigenvalues", record)
    return shapes


class TestSmallerSide:
    """The block and its complement, or Y Y^T and Y^T Y, share their nonzero spectrum."""

    @pytest.mark.parametrize("L, d", [(5, 2), (4, 3)])
    def test_pure_state_sides_agree(self, L, d):
        (state,) = random_states(np.random.default_rng(31), L, d)
        for n in range(L + 1):
            block = dense_eigenvalues(partial_trace(state, n))
            complement = dense_eigenvalues(partial_trace(state.T, L - n))
            assert len(block) == len(complement) == d ** min(n, L - n)
            assert block == pytest.approx(complement, abs=1e-12)

    @pytest.mark.parametrize("L, d, K", [(5, 2, 3), (4, 3, 4)])
    def test_mixture_gram_agrees_with_summed_traces(self, L, d, K):
        states = random_states(np.random.default_rng(37), L, d, K)
        for n in range(L + 1):
            summed = sum(partial_trace(s, n) for s in states) / K
            y = np.hstack([s.reshape(d**n, -1) for s in states])
            traced = dense_eigenvalues(summed)
            gram = dense_eigenvalues(y.T @ y / K)
            assert len(traced) == len(gram) == min(d**n, K * d ** (L - n))
            assert traced == pytest.approx(gram, abs=1e-12)

    @pytest.mark.parametrize("occupations", [(3, 2), (2, 1, 1), (1, 1, 1, 1)])
    def test_theorem_diagonalises_the_smaller_side(self, monkeypatch, occupations):
        shapes = recorded_shapes(monkeypatch)
        L, d = sum(occupations), len(occupations)
        reports = verify_theorem(SectorConfig.finite(occupations), range(L + 1))
        assert [r.passed for r in reports] == [True] * (L + 1)
        assert shapes == [(d ** min(n, L - n),) * 2 for n in range(L + 1)]

    @pytest.mark.parametrize("L, d", [(5, 2), (4, 3), (6, 3)])
    def test_mixture_diagonalises_the_smaller_side(self, monkeypatch, L, d):
        shapes = recorded_shapes(monkeypatch)
        K = math.comb(L + d - 1, d - 1)  # one sector per composition of L into d levels
        reports = verify_uniform_mixture(L, d, range(L + 1))
        assert [r.passed for r in reports] == [True] * (L + 1)
        assert shapes == [(min(d**n, K * d ** (L - n)),) * 2 for n in range(L + 1)]

    def test_guards_refuse_the_block_whichever_side_is_diagonalised(self):
        # 2^11 = 2048 > 2000; the complement would be 1 x 1
        with pytest.raises(ResourceLimitError, match="block dimension 2048"):
            verify_theorem(SectorConfig.finite((6, 5)), [11])
        with pytest.raises(ResourceLimitError, match="block dimension 2048"):
            verify_uniform_mixture(11, 2, [11])

    @pytest.mark.parametrize(
        "L, d, amplitudes", [(12, 3, 91 * 3**12), (6, 10, 5005 * 10**6), (10, 3, 66 * 3**10)]
    )
    def test_mixture_refused_before_any_sector_is_listed(self, monkeypatch, L, d, amplitudes):
        # K = C(L + d - 1, d - 1) states of d^L amplitudes each, stacked side by side
        def fail(*args, **kwargs):
            raise AssertionError("sector listed or built")

        monkeypatch.setattr(itertools, "product", fail)
        monkeypatch.setattr(oracle, "build_state", fail)
        with pytest.raises(ResourceLimitError) as refused:
            verify_uniform_mixture(L, d, [1])
        assert str(refused.value) == f"mixture of {amplitudes} amplitudes exceeds guard 2000000"

    def test_mixture_guard_admits_its_largest_grid(self):
        # 55 states of 3^9 amplitudes: 1,082,565, within the guard
        assert verify_uniform_mixture(9, 3, [1])[0].passed


class TestGuardsPastTheIntStrLimit:
    """Guards refuse a power past 2^64 without building it, and without printing its digits."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: verify_theorem(SectorConfig.finite((10_000, 10_000)), [15_000]),
            lambda: build_state(SectorConfig.finite((10_000, 10_000))),
            lambda: verify_uniform_mixture(20_000, 2, [15_000]),
            lambda: verify_theorem(SectorConfig.finite((10**7,) * 3), [10**7]),
        ],
        ids=["theorem", "state", "mixture", "theorem-d3-L3e7"],
    )
    def test_refused_as_a_resource_error(self, call):
        # 2^15000 has 4,516 digits, past Python's default int-to-str limit of 4,300
        with pytest.raises(ResourceLimitError, match=r"dimension \d+\^\d+ exceeds guard"):
            call()


def counted_builds(monkeypatch):
    """A list that grows by one on each oracle.build_state call."""
    calls, real = [], oracle.build_state

    def count(cfg):
        calls.append(cfg)
        return real(cfg)

    monkeypatch.setattr(oracle, "build_state", count)
    return calls


def as_json(reports):
    return [r.to_json_obj() for r in reports]


class TestBatchedChecks:
    """A list of block sizes shares the built states and changes no report."""

    @pytest.mark.parametrize("ns", [[2], [0, 4], range(5), [4, 0, 3, 1, 2, 2]])
    def test_theorem_builds_one_state_whatever_the_block_sizes(self, monkeypatch, ns):
        calls = counted_builds(monkeypatch)
        reports = verify_theorem(SectorConfig.finite((2, 1, 1)), ns)
        assert len(calls) == 1
        assert [r.n for r in reports] == list(ns)

    @pytest.mark.parametrize("L, d", [(3, 2), (4, 3)])
    @pytest.mark.parametrize("every_n", [False, True])
    def test_mixture_builds_each_sector_state_once(self, monkeypatch, L, d, every_n):
        ns = range(L + 1) if every_n else [1]
        calls = counted_builds(monkeypatch)
        reports = verify_uniform_mixture(L, d, ns)
        assert len(calls) == math.comb(L + d - 1, d - 1)  # K sectors
        assert len({c.occupations for c in calls}) == len(calls)
        assert [r.n for r in reports] == list(ns)

    @pytest.mark.parametrize("occupations", [(2, 0, 2), (0, 3), (3, 2, 1), (1, 0, 0, 2), (4, 3)])
    def test_theorem_equals_the_single_block_calls(self, occupations):
        cfg = SectorConfig.finite(occupations)
        L = cfg.L
        single = [verify_theorem(cfg, [n])[0] for n in range(L + 1)]
        assert as_json(verify_theorem(cfg, range(L + 1))) == as_json(single)
        backwards = verify_theorem(cfg, range(L, -1, -1))  # n = L first, then its complement
        assert as_json(backwards) == as_json(single[::-1])
        assert all(r.passed for r in single)

    @pytest.mark.parametrize("L, d", [(1, 2), (4, 2), (3, 3)])
    def test_mixture_equals_the_single_block_calls(self, L, d):
        single = [verify_uniform_mixture(L, d, [n])[0] for n in range(L + 1)]
        assert as_json(verify_uniform_mixture(L, d, range(L + 1))) == as_json(single)
        assert as_json(verify_uniform_mixture(L, d, [L, 0])) == as_json([single[L], single[0]])
        assert all(r.passed for r in single)

    def test_any_block_past_the_guard_refuses_before_a_state_is_built(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("state built")

        monkeypatch.setattr(oracle, "build_state", fail)
        # n = 0 alone would pass; 2^11 = 2048 > 2000 at n = 11
        with pytest.raises(ResourceLimitError, match="block dimension 2048"):
            verify_theorem(SectorConfig.finite((6, 5)), [0, 11])
        with pytest.raises(ResourceLimitError, match="block dimension 2048"):
            verify_uniform_mixture(11, 2, [0, 11])

    def test_perturb_moves_the_first_report_only(self):
        cfg = SectorConfig.finite((2, 2))
        plain = verify_theorem(cfg, range(5))
        moved = verify_theorem(cfg, range(5), perturb=1e-6)
        assert plain[0].passed and not moved[0].passed
        assert moved[0].max_abs_dev == pytest.approx(1e-6, rel=1e-6)
        assert as_json(moved[1:]) == as_json(plain[1:])

    def test_no_block_sizes_give_no_reports(self):
        assert verify_theorem(SectorConfig.finite((1, 1)), []) == []
        assert verify_uniform_mixture(2, 2, []) == []


def traced_theorem(cfg, tol=1e-10):
    """verify_theorem's reports by explicit partial traces: the block, or past L/2 the rest."""
    state = build_state(cfg)
    L = state.ndim
    reports = []
    for n in range(L + 1):
        rho = partial_trace(state, n) if 2 * n <= L else partial_trace(state.T, L - n)
        dense = dense_eigenvalues(rho, tol=1e-8)
        formula = sorted(exact_spectrum(cfg, n).weights, reverse=True)
        config = {"L": L, "d": cfg.d, "occupations": list(cfg.occupations)}
        reports.append(oracle._match(config, n, dense, formula, tol))
    return reports


ONE_STATE_SECTORS = [(3, 2), (2, 0, 2), (0, 3), (3, 2, 1), (1, 1, 1, 1), (4, 4)]


class TestOneDenseLoop:
    """The theorem runs as the one-state case of the mixture's Gram loop, bit for bit."""

    @pytest.mark.parametrize("occupations", ONE_STATE_SECTORS)
    def test_theorem_reports_equal_the_explicit_partial_traces(self, occupations):
        cfg = SectorConfig.finite(occupations)
        assert as_json(verify_theorem(cfg, range(cfg.L + 1))) == as_json(traced_theorem(cfg))

    @pytest.mark.parametrize("occupations", ONE_STATE_SECTORS)
    def test_one_state_gram_is_the_block_partial_trace(self, occupations):
        state = build_state(SectorConfig.finite(occupations))
        d, L = state.shape[0], state.ndim
        for n in range(L // 2 + 1):
            y = state.reshape(d**n, -1)
            assert np.array_equal(y @ y.T, partial_trace(state, n))


class TestVerifyTheorem:
    def test_small_sweep_passes(self):
        for L in range(1, 6):
            for N0 in range(L + 1):
                cfg = SectorConfig.finite((N0, L - N0))
                for report in verify_theorem(cfg, range(L + 1)):
                    assert report.passed, report.to_json_obj()
                    assert report.max_abs_dev < 1e-10

    def test_qutrit_case(self):
        (report,) = verify_theorem(SectorConfig.finite((2, 1, 1)), [2])
        assert report.passed

    def test_support_count_matches_formula(self):
        cfg = SectorConfig.finite((3, 2, 1))
        for n, report in enumerate(verify_theorem(cfg, range(cfg.L + 1))):
            assert report.n == n
            assert report.support_size_dense == report.support_size_formula
            assert report.support_size_formula == len(exact_spectrum(cfg, n).entries)

    def test_empty_level_equivalence(self):
        (padded,) = verify_theorem(SectorConfig.finite((2, 0, 2)), [2])
        (plain,) = verify_theorem(SectorConfig.finite((2, 2)), [2])
        assert padded.passed and plain.passed
        assert padded.support_size_dense == plain.support_size_dense

    def test_fault_injection_hook(self):
        (report,) = verify_theorem(SectorConfig.finite((2, 2)), [2], perturb=1e-6)
        assert not report.passed
        assert report.max_abs_dev >= 1e-6

    def test_report_serialization(self):
        obj = verify_theorem(SectorConfig.finite((1, 1)), [1])[0].to_json_obj()
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
        (report,) = verify_uniform_mixture(4, 2, [2])
        assert report.passed
        assert report.support_size_dense == 3

    def test_three_qutrits(self):
        (report,) = verify_uniform_mixture(3, 3, [1])
        assert report.passed
        assert report.support_size_dense == 3

    def test_empty_block(self):
        (report,) = verify_uniform_mixture(3, 2, [0])
        assert report.passed
        assert report.support_size_dense == 1

    def test_formula_side_is_the_library_builder(self, monkeypatch):
        real = oracle.uniform_mixed_spectrum

        def perturbed(n, d):
            weights = list(real(n, d).weights)
            weights[0] += 1e-6
            return SimpleNamespace(weights=weights)

        monkeypatch.setattr(oracle, "uniform_mixed_spectrum", perturbed)
        (report,) = verify_uniform_mixture(4, 2, [2])
        assert not report.passed
        assert report.max_abs_dev == pytest.approx(1e-6, rel=1e-6)

    def test_missing_eigenvalues_count_as_deviation(self, monkeypatch):
        # a dense side that finds one eigenvalue fewer is padded with a zero
        real = oracle.dense_eigenvalues
        monkeypatch.setattr(oracle, "dense_eigenvalues", lambda rho, tol: real(rho, tol)[:-1])
        (report,) = verify_uniform_mixture(4, 2, [2])
        assert not report.passed
        assert (report.support_size_formula, report.support_size_dense) == (3, 2)
        assert report.max_abs_dev == pytest.approx(1 / 3, abs=1e-12)


def test_oracle_diagonalises_from_one_loop():
    """Every verify_* check reaches dense_eigenvalues through the one shared loop."""
    tree = ast.parse(Path(oracle.__file__).read_text())
    callers = [
        func.name
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "dense_eigenvalues"
    ]
    assert callers == ["_check_states"]


def test_oracle_imports_only_its_comparison_targets():
    """The dense side shares no code with the formula path: it imports only what it compares."""
    tree = ast.parse(Path(oracle.__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "permutent" for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "permutent"
        ):
            names.update(alias.name for alias in node.names)
    compared = {"SectorConfig", "exact_spectrum", "uniform_mixed_spectrum"}
    assert names == {"ResourceLimitError", *compared}
