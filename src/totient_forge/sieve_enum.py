"""Brute-force oracle: segmented totient sieve and exhaustive enumeration.

Totients are computed exactly with int64 cells; the supported value range is
capped at 2**40 (far beyond every desk-scale claim, which tops out at 10**8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .primality import primes_upto

__all__ = [
    "MAX_SIEVE_VALUE",
    "RangeTooLarge",
    "TotientSegment",
    "EnumerationReport",
    "CountTable",
    "sieve_totient",
    "totients_upto",
    "enumerate_solutions",
    "solution_count_table",
]

MAX_SIEVE_VALUE = 1 << 40
DEFAULT_SEGMENT_SIZE = 1 << 22
_MAX_DENSE_VALUES = 1 << 27  # ~1 GiB of int64 cells for dense helpers


class RangeTooLarge(ValueError):
    pass


@dataclass(frozen=True)
class TotientSegment:
    lo: int
    hi: int
    values: np.ndarray  # values[i - lo] == totient(i) for lo <= i < hi


def sieve_totient(lo: int, hi: int, segment_size: int = DEFAULT_SEGMENT_SIZE) -> TotientSegment:
    """Exact totients over [lo, hi) by segmented smallest-prime sieving."""
    if not 1 <= lo < hi:
        raise ValueError("need 1 <= lo < hi")
    if hi > MAX_SIEVE_VALUE:
        raise RangeTooLarge(f"sieve values are capped at 2**40, got {hi}")
    if hi - lo > segment_size:
        raise RangeTooLarge(f"segment of {hi - lo} exceeds the size limit {segment_size}")
    size = hi - lo
    rem = np.arange(lo, hi, dtype=np.int64)
    phi = np.ones(size, dtype=np.int64)
    for p in primes_upto(math.isqrt(hi - 1)).tolist():
        first = max(p, (lo + p - 1) // p * p)
        if first >= hi:
            continue
        idx = np.arange(first - lo, size, p)
        phi[idx] *= p - 1
        rem[idx] //= p
        while True:
            again = idx[rem[idx] % p == 0]
            if not again.size:
                break
            phi[again] *= p
            rem[again] //= p
            idx = again
    left = rem > 1
    phi[left] *= rem[left] - 1
    return TotientSegment(lo, hi, phi)


def totients_upto(n: int, segment_size: int = DEFAULT_SEGMENT_SIZE) -> np.ndarray:
    """Dense array t with t[i] = totient(i) for 1 <= i <= n (t[0] = 0)."""
    if n + 1 > _MAX_DENSE_VALUES:
        raise RangeTooLarge(f"dense totient table of {n} values exceeds the memory cap")
    out = np.zeros(n + 1, dtype=np.int64)
    for lo in range(1, n + 1, segment_size):
        hi = min(lo + segment_size, n + 1)
        out[lo:hi] = sieve_totient(lo, hi, segment_size).values
    return out


@dataclass(frozen=True)
class EnumerationReport:
    k: int
    M: int
    limit: int
    solutions: tuple[int, ...]

    def to_csv(self) -> str:
        lines = ["k,M,limit", f"{self.k},{self.M},{self.limit}"]
        lines.extend(str(n) for n in self.solutions)
        return "\n".join(lines) + "\n"


def enumerate_solutions(k: int, M: int, limit: int) -> EnumerationReport:
    """Every n <= limit with totient(n+k) = M*totient(n), exhaustively."""
    if k < 1 or M not in (1, 2) or limit < 1:
        raise ValueError("need k >= 1, M in {1, 2}, limit >= 1")
    if limit + k + 1 > MAX_SIEVE_VALUE:
        raise RangeTooLarge("k + limit beyond the sieve range")
    hits: list[int] = []
    for lo in range(1, limit + 1, DEFAULT_SEGMENT_SIZE):
        hi = min(lo + DEFAULT_SEGMENT_SIZE, limit + 1)
        phi_n = sieve_totient(lo, hi).values
        phi_nk = sieve_totient(lo + k, hi + k).values
        hits.extend((np.flatnonzero(phi_nk == M * phi_n) + lo).tolist())
    return EnumerationReport(k, M, limit, tuple(hits))


@dataclass(frozen=True)
class CountTable:
    k_max: int
    M: int
    limit: int
    counts: dict[int, int]
    min_count: int
    min_achievers: tuple[int, ...]

    def to_csv(self) -> str:
        lines = ["k,count"]
        lines.extend(f"{k},{self.counts[k]}" for k in sorted(self.counts))
        return "\n".join(lines) + "\n"


def solution_count_table(k_max: int, M: int, limit: int) -> CountTable:
    """Solution counts (n <= limit) for every k <= k_max, plus the minimum set."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    phi = totients_upto(limit + k_max)
    base = M * phi[1 : limit + 1]
    counts = {}
    for k in range(1, k_max + 1):
        counts[k] = int(np.count_nonzero(phi[1 + k : limit + k + 1] == base))
    min_count = min(counts.values())
    achievers = tuple(k for k in sorted(counts) if counts[k] == min_count)
    return CountTable(k_max, M, limit, counts, min_count, achievers)
