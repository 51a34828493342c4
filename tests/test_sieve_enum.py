import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from totient_forge import sieve_enum
from totient_forge.arith import factorize
from totient_forge.sieve_enum import (
    MAX_SIEVE_VALUE,
    RangeTooLarge,
    enumerate_solutions,
    sieve_totient,
    solution_count_table,
    totients_upto,
)


# a multiple of the wheel's period 21,600 just below 10**12
_NEAR_1E12 = 10**12 - 10**12 % 21_600


class _CountingMultiply:
    """np.multiply, counting its scatter calls (np.multiply.at)."""

    def __init__(self):
        self.at_calls = 0

    def __call__(self, *args, **kwargs):
        return np.multiply(*args, **kwargs)

    def at(self, *args):
        self.at_calls += 1
        return np.multiply.at(*args)


class _NumpyWith:
    """numpy, with some of its names replaced."""

    def __init__(self, **names):
        self.__dict__.update(names)

    def __getattr__(self, name):
        return getattr(np, name)


# values just around prime powers, where the higher-power slices start and stop
_NEAR_PRIME_POWER = st.builds(
    lambda q, d: max(1, q + d),
    st.sampled_from([2**e for e in range(1, 40)] + [3**e for e in range(1, 26)]),
    st.integers(-60, 60),
)


class TestSieveTotient:
    def test_first_ten(self):
        seg = sieve_totient(1, 11)
        assert seg.values.tolist() == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4]

    def test_power_point(self):
        assert sieve_totient(10**6, 10**6 + 1).values.tolist() == [400000]

    def test_single_cell(self):
        assert sieve_totient(1, 2).values.tolist() == [1]

    def test_against_sympy_random_segments(self):
        rng = random.Random(77)
        for _ in range(20):
            lo = rng.randrange(1, 10**9 - 600)
            seg = sieve_totient(lo, lo + 500)
            for offset in (0, 123, 499):
                n = lo + offset
                assert seg.values[offset] == sympy.totient(n), n

    def test_bounds(self):
        with pytest.raises(ValueError):
            sieve_totient(0, 10)
        with pytest.raises(RangeTooLarge):
            sieve_totient(1, 2 + (1 << 22))
        with pytest.raises(RangeTooLarge):
            sieve_totient(MAX_SIEVE_VALUE, MAX_SIEVE_VALUE + 10)

    @settings(max_examples=25, deadline=None)
    @given(lo=st.one_of(st.integers(1, 10**12), _NEAR_PRIME_POWER), w=st.integers(1, 2000))
    def test_matches_factorize(self, lo, w):
        seg = sieve_totient(lo, lo + w)
        assert seg.values.tolist() == [factorize(n).totient() for n in range(lo, lo + w)]

    # 64-value blocks: a 1000-value range spans 16 blocks, the last one partial;
    # every prime power scattered (dense 2), strided (10**6) or split at 16
    @pytest.mark.parametrize("dense", [2, 16, 10**6])
    @pytest.mark.parametrize("lo", [1, 2**20 - 500, 3**13 - 37, 10**9 + 7])
    def test_blocks_match_factorize(self, monkeypatch, lo, dense):
        monkeypatch.setattr(sieve_enum, "_BLOCK_VALUES", 64)
        monkeypatch.setattr(sieve_enum, "_DENSE_STRIDE", dense)
        seg = sieve_totient(lo, lo + 1000)
        assert seg.values.tolist() == [factorize(n).totient() for n in range(lo, lo + 1000)]

    # each block starts from the 2*3*5 wheel (period 21,600) at its phase:
    # windows from one value before, at and after a period boundary, one
    # across a boundary near 10**12 (kept short: with dense 10**6 each block
    # strides ~80,000 prime powers), and windows crossing several periods;
    # in 64-value blocks and in one block
    @pytest.mark.parametrize("lo, w", [
        (21_599, 300), (21_600, 300), (21_601, 300), (_NEAR_1E12 - 1, 66),
        (1, 2 * 21_600 + 65), (21_599, 2 * 21_600 + 65),
    ])
    def test_wheel_phases_match_factorize(self, monkeypatch, lo, w):
        expected = [factorize(n).totient() for n in range(lo, lo + w)]
        for block in (64, sieve_enum._BLOCK_VALUES):
            monkeypatch.setattr(sieve_enum, "_BLOCK_VALUES", block)
            for dense in (2, 16, 10**6):
                monkeypatch.setattr(sieve_enum, "_DENSE_STRIDE", dense)
                assert sieve_totient(lo, lo + w).values.tolist() == expected, (block, dense)

    def test_totients_upto(self, monkeypatch):
        monkeypatch.setattr(sieve_enum, "_BLOCK_VALUES", 128)
        t = totients_upto(1000)
        for n in (1, 2, 96, 97, 720, 1000):
            assert t[n] == sympy.totient(n)

    def test_totients_upto_shares_one_table(self, monkeypatch):
        # one prime-power table, built for 3000, serves every 64-value window
        monkeypatch.setattr(sieve_enum, "_BLOCK_VALUES", 64)
        t = totients_upto(3000)
        assert t.tolist() == [0] + [int(sympy.totient(n)) for n in range(1, 3001)]


class TestEnumerate:
    def test_k6_flagship(self):
        assert enumerate_solutions(6, 2, 10**6).solutions == (4, 6, 7, 10)

    def test_k1_m1(self):
        assert enumerate_solutions(1, 1, 10).solutions == (1, 3)

    def test_prefix_property(self):
        for k, M in [(1, 1), (6, 2), (7, 2), (10, 1)]:
            small = enumerate_solutions(k, M, 300).solutions
            large = enumerate_solutions(k, M, 3000).solutions
            assert large[: len(small)] == small

    def test_csv_shape(self):
        lines = enumerate_solutions(6, 2, 100).to_csv().splitlines()
        assert lines[0] == "k,M,limit"
        assert lines[1] == "6,2,100"
        assert lines[2:] == ["4", "6", "7", "10"]

    def test_matches_naive(self):
        for k, M in [(3, 2), (4, 1), (5, 2)]:
            expected = tuple(
                n for n in range(1, 2001)
                if sympy.totient(n + k) == M * sympy.totient(n)
            )
            assert enumerate_solutions(k, M, 2000).solutions == expected

    # limit 1000 with 64-value segments: 15 full segments and a last one of 40
    @pytest.mark.parametrize("k", [1, 6, 39, 40, 41, 63, 64, 65, 200])
    def test_matches_naive_across_segments(self, monkeypatch, k):
        monkeypatch.setattr(sieve_enum, "_BLOCK_VALUES", 64)
        phi = totients_upto(1000 + k)
        for M in (1, 2):
            expected = tuple(n for n in range(1, 1001) if phi[n + k] == M * phi[n])
            assert enumerate_solutions(k, M, 1000).solutions == expected

    @pytest.mark.parametrize("k, sieved", [(6, 1000 + 16 * 6), (40, 1000 + 15 * 40 + 40), (64, 2000)])
    def test_sieves_overlapping_windows_once(self, monkeypatch, k, sieved):
        windows = []
        sieve_into = sieve_enum._BlockSieve.into

        def recording_sieve(self, lo, out):
            windows.append(out.size)
            return sieve_into(self, lo, out)

        monkeypatch.setattr(sieve_enum, "_BLOCK_VALUES", 64)
        monkeypatch.setattr(sieve_enum._BlockSieve, "into", recording_sieve)
        enumerate_solutions(k, 2, 1000)
        assert sum(windows) == sieved

    def test_sieves_each_window_in_one_block_pass(self, monkeypatch):
        # 16 windows of at most 64 + 6 values: one block pass each, and every
        # pass scatters twice (totient factors and factored parts)
        multiply = _CountingMultiply()
        monkeypatch.setattr(sieve_enum, "_BLOCK_VALUES", 64)
        monkeypatch.setattr(sieve_enum, "np", _NumpyWith(multiply=multiply))
        assert enumerate_solutions(6, 2, 1000).solutions == (4, 6, 7, 10)
        assert multiply.at_calls == 2 * 16

    def test_distant_shift_keeps_blocks_small(self):
        # k beyond one segment: two windows of one segment each, never blocks
        # of k cells
        k, limit = 10**6, 1000
        phi = totients_upto(limit + k)
        tracemalloc.start()
        try:
            reports = [enumerate_solutions(k, M, limit) for M in (1, 2)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for M, report in zip((1, 2), reports):
            assert report.solutions == tuple(n for n in range(1, limit + 1) if phi[n + k] == M * phi[n])
        assert peak < 12 << 20  # ~6.6 MB here; blocks of k cells would take ~80 MB

    def test_small_limit_keeps_blocks_small(self):
        # a limit below one segment sizes the window from the limit: ~0.4 MB
        # here, against ~4.5 MB for a window of a full segment
        tracemalloc.start()
        try:
            report = enumerate_solutions(6, 2, 100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.solutions == (4, 6, 7, 10)
        assert peak < 1 << 20

    def test_validation(self):
        with pytest.raises(ValueError):
            enumerate_solutions(0, 2, 100)
        with pytest.raises(ValueError):
            enumerate_solutions(2, 3, 100)


class TestCountTable:
    def test_small_even_counts(self):
        table = solution_count_table(10, 2, 100)
        for k in range(2, 11, 2):
            assert table.counts[k] >= 1  # n = k always works for even k

    def test_k1_m1(self):
        table = solution_count_table(1, 1, 10)
        assert table.counts == {1: 2}
        assert table.min_count == 2
        assert table.min_achievers == (1,)

    def test_csv(self):
        lines = solution_count_table(3, 2, 50).to_csv().splitlines()
        assert lines[0] == "k,count"
        assert len(lines) == 4

    @pytest.mark.parametrize("k_max, M, limit", [(0, 2, 100), (5, 3, 100), (5, 0, 100), (5, 2, 0)])
    def test_validation(self, k_max, M, limit):
        with pytest.raises(ValueError, match=r"need k_max >= 1, M in \{1, 2\}, limit >= 1"):
            solution_count_table(k_max, M, limit)

    def test_traced_peak_is_a_few_keys_arrays(self):
        # the keys (one int64 per value) and a few block-sized arrays, not
        # arrays that grow with the 1.26 M pairs
        k_max, limit = 10**4, 10**6
        tracemalloc.start()
        try:
            table = solution_count_table(k_max, 2, limit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (table.min_count, table.min_achievers) == (4, (6,))
        assert peak < 4 * 8 * (limit + k_max)


def _per_k_counts(k_max, M, limit):
    phi = totients_upto(limit + k_max)
    base = M * phi[1 : limit + 1]
    return {
        k: int(np.count_nonzero(phi[1 + k : limit + k + 1] == base))
        for k in range(1, k_max + 1)
    }


def _check_count_table(k_max, M, limit):
    table = solution_count_table(k_max, M, limit)
    counts = _per_k_counts(k_max, M, limit)
    low = min(counts.values())
    assert table.counts == counts
    assert table.min_count == low
    assert table.min_achievers == tuple(k for k in sorted(counts) if counts[k] == low)


@settings(max_examples=80, deadline=None)
@given(k_max=st.integers(1, 300), M=st.sampled_from((1, 2)), limit=st.integers(1, 3000))
@example(k_max=300, M=2, limit=40)
@example(k_max=2, M=1, limit=1)
def test_count_table_matches_per_k_reference(k_max, M, limit):
    _check_count_table(k_max, M, limit)


# 64-key blocks: runs and key windows cross block edges, and a block can hold
# no n <= limit at all
@settings(max_examples=80, deadline=None)
@given(k_max=st.integers(1, 300), M=st.sampled_from((1, 2)), limit=st.integers(1, 3000))
@example(k_max=300, M=2, limit=3000)
@example(k_max=300, M=1, limit=40)
def test_count_table_small_blocks_match_per_k_reference(k_max, M, limit):
    with mock.patch.object(sieve_enum, "_BLOCK_VALUES", 64):
        _check_count_table(k_max, M, limit)
