import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permutent.combinatorics import (
    ResourceLimitError,
    composition_count,
    enumerate_compositions,
    log2_binom,
)

from _oracles import brute_compositions, decimal_log2_binom, pascal_binom, poly_composition_count

bounds_strategy = st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=5).map(tuple)


class TestBinomExact:
    """math.comb, the exact reference of the log-domain tests, against independent values."""

    def test_small_values(self):
        assert math.comb(4, 2) == 6
        assert math.comb(10, 0) == 1
        assert math.comb(0, 0) == 1

    def test_large_value_against_pascal(self):
        assert math.comb(60, 30) == 118264581564861424
        assert math.comb(60, 30) == pascal_binom(60, 30)

    @given(st.integers(min_value=1, max_value=120), st.integers(min_value=1, max_value=122))
    def test_pascal_recurrence(self, n, k):
        assert math.comb(n, k) == math.comb(n - 1, k) + math.comb(n - 1, k - 1)


class TestLog2Binom:
    def test_small_value(self):
        assert log2_binom(4, 2) == pytest.approx(math.log2(6), abs=1e-12)

    def test_against_exact_big_integer(self):
        exact = math.log2(math.comb(1000, 500))
        assert abs(log2_binom(1000, 500) - exact) <= 1e-10 * abs(exact)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            log2_binom(5, 9)
        with pytest.raises(ValueError):
            log2_binom(5, -1)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            log2_binom(-3, 1)

    @given(st.integers(min_value=0, max_value=400), st.data())
    def test_log_matches_exact_path(self, n, data):
        k = data.draw(st.integers(min_value=0, max_value=n))
        expected = math.log2(math.comb(n, k))
        got = log2_binom(n, k)
        # relative agreement of the represented weights
        assert abs(got - expected) <= 1e-10 * max(1.0, abs(expected))

    @given(st.floats(min_value=-1000.0, max_value=1000.0, allow_nan=False))
    def test_log_weight_round_trip(self, exponent):
        x = 2.0**exponent
        back = 2.0 ** math.log2(x)
        assert abs(back - x) <= 1e-12 * x

    @pytest.mark.parametrize(
        "n, k",
        [(10**6, k) for k in (1, 7, 1000, 20000)]
        + [(10**6, 10**6 - k) for k in (1, 7, 1000, 20000)]
        + [(10**12, 10**5)],
    )
    def test_within_4_ulp_of_a_50_digit_value(self, n, k):
        expected = decimal_log2_binom(n, k)
        assert abs(log2_binom(n, k) - expected) <= 4 * math.ulp(expected)

    def test_any_size_answers(self):
        assert log2_binom(10**30, 10**29) == pytest.approx(
            decimal_log2_binom(10**30, 10**29), rel=1e-15
        )


class TestEnumeration:
    def test_listed_example(self):
        assert list(enumerate_compositions(2, (2, 2))) == [(0, 2), (1, 1), (2, 0)]

    def test_zero_total(self):
        assert list(enumerate_compositions(0, (3, 3, 3))) == [(0, 0, 0)]

    def test_saturated_bounds(self):
        assert list(enumerate_compositions(3, (1, 1, 1))) == [(1, 1, 1)]

    def test_infeasible_total_is_empty(self):
        assert list(enumerate_compositions(7, (2, 2, 2))) == []

    def test_empty_bounds(self):
        assert list(enumerate_compositions(0, ())) == [()]
        assert list(enumerate_compositions(1, ())) == []

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            list(enumerate_compositions(-1, (2,)))
        with pytest.raises(ValueError):
            list(enumerate_compositions(1, (2, -1)))
        for total, bounds in ((-1, (2,)), (3, (-2, 5)), (3, (-1, 2))):
            with pytest.raises(ValueError):
                composition_count(total, bounds)

    @given(st.data())
    @settings(max_examples=200)
    def test_matches_recursive_oracle(self, data):
        bounds = data.draw(bounds_strategy)
        total = data.draw(st.integers(min_value=0, max_value=sum(bounds) + 2))
        got = list(enumerate_compositions(total, bounds))
        expected = list(brute_compositions(total, bounds))
        assert got == expected  # same set, same (lexicographic) order

    @given(st.data())
    @settings(max_examples=200)
    def test_count_matches_polynomial_oracle(self, data):
        bounds = data.draw(bounds_strategy)
        total = data.draw(st.integers(min_value=0, max_value=sum(bounds) + 2))
        expected = poly_composition_count(total, bounds)
        assert sum(1 for _ in enumerate_compositions(total, bounds)) == expected
        assert composition_count(total, bounds) == expected

    @given(st.data())
    @settings(max_examples=200)
    def test_count_matches_polynomial_oracle_at_any_width(self, data):
        bounds = data.draw(
            st.lists(st.integers(min_value=0, max_value=12), min_size=0, max_size=24).map(tuple)
        )
        total = data.draw(st.integers(min_value=0, max_value=sum(bounds) + 3))
        assert composition_count(total, bounds) == poly_composition_count(total, bounds)

    @given(st.data())
    @settings(max_examples=100)
    def test_vandermonde_normalization(self, data):
        # sum over compositions of prod binom(N_i, k_i) equals binom(sum N, n)
        bounds = data.draw(
            st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=4).map(tuple)
        )
        L = sum(bounds)
        total = data.draw(st.integers(min_value=0, max_value=max(L, 0)))
        acc = 0
        for parts in enumerate_compositions(total, bounds):
            term = 1
            for b, k in zip(bounds, parts):
                term *= math.comb(b, k)
            acc += term
        assert acc == math.comb(L, total)

    def test_oversized_support_refused_before_the_first_tuple(self):
        # C(109, 9) ~ 4.3e12 compositions; the fourth level alone would hold C(104, 4) ~ 4.6e6 rows
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="composition support of at least"):
                next(iter(enumerate_compositions(100, (100,) * 10)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20

    def test_wrapping_row_count_refused_in_a_subprocess(self):
        # four prefixes of about 2^61 parts each: an unclipped int64 sum wraps to 4 rows and
        # np.repeat then crashes the interpreter, so the call runs in a child of its own
        code = (
            "from permutent.combinatorics import ResourceLimitError, enumerate_compositions\n"
            "try:\n"
            "    next(iter(enumerate_compositions(2**61 + 1, (1, 1, 1, 2**61 + 1, 2**61 + 1))))\n"
            "except ResourceLimitError as exc:\n"
            "    print(exc)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env,
                                timeout=60, check=False)
        assert result.returncode == 0, (result.returncode, result.stderr.decode())
        assert result.stdout.decode() == (
            "composition support of at least 12800008 exceeds guard 1600000\n"
        )

    def test_bounds_past_int64_clamped_to_the_total(self):
        assert list(enumerate_compositions(1, (2**63, 1))) == [(0, 1), (1, 0)]
        assert list(enumerate_compositions(2, (10**30, 10**30, 1))) == list(
            brute_compositions(2, (2, 2, 1))
        )

    def test_total_past_int64_refused(self):
        with pytest.raises(ResourceLimitError, match=r"past 2\^63 - 1"):
            list(enumerate_compositions(10**30, (10**30,)))
        with pytest.raises(ResourceLimitError, match=r"past 2\^63 - 1"):
            list(enumerate_compositions(2**63, (2**62, 2**62)))
        assert list(enumerate_compositions(2**63 - 1, (2**63 - 1,))) == [(2**63 - 1,)]

    def test_many_levels_refused_by_their_cells(self):
        # 10^5 rows of 10^5 levels would be a 75 GiB matrix; the guard is 8e6 cells / 10^5
        tracemalloc.start()
        try:
            start = time.perf_counter()
            with pytest.raises(ResourceLimitError) as refused:
                next(iter(enumerate_compositions(1, (1,) * 100_000)))
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(refused.value) == "composition support of at least 81 exceeds guard 80"
        assert elapsed < 1.0
        assert peak < 20 * 2**20

    def test_wide_walk_of_empty_levels_costs_no_array_per_level(self):
        # a level whose bound, clamped to the total, is 0 adds no row: the walk takes it in
        # one step (this call took 16 s and 525 MB with two arrays per level)
        start = time.perf_counter()
        first = next(enumerate_compositions(0, (0,) * 10**6))
        assert time.perf_counter() - start < 1.0
        assert first == (0,) * 10**6
        assert list(enumerate_compositions(0, (1,) * 10**6)) == [(0,) * 10**6]
        bounds = (0, 2, 0, 0, 1, 0, 3, 0)
        for total in range(7):
            assert list(enumerate_compositions(total, bounds)) == list(
                brute_compositions(total, bounds)
            )

    def test_wide_bounds_count(self):
        assert composition_count(9, (1,) * 18) == math.comb(18, 9)
        assert composition_count(10, (10,) * 16) == math.comb(25, 15)
        assert composition_count(20_000, (20_000,) * 20) == math.comb(20_019, 19)

    def test_sum_covering_sixty(self):
        bounds = (20, 20, 20)
        for total in (0, 17, 30, 60):
            assert composition_count(total, bounds) == poly_composition_count(total, bounds)
            assert sum(1 for _ in enumerate_compositions(total, bounds)) == composition_count(
                total, bounds
            )
