"""Brute-force oracle: segmented totient sieve and exhaustive enumeration.

Totients are computed exactly with int64 cells; the supported value range is
capped at 2**40 (far beyond every desk-scale claim, which tops out at 10**8).

`sieve_totient` works through its range in blocks of 2**16 values, and
`enumerate_solutions` and `totients_upto` call it one block at a time. A
block's arrays (512 KiB each) stay in the L2 cache and below numpy's 4 MiB
huge-page threshold, so sieve time does not depend on whether the kernel has
huge pages to hand out (with 2**22-value windows, C5's two enumerations took
~15% longer without them).

`enumerate_solutions` sieves each segment [lo, hi) together with its shifted
copy [lo+k, hi+k) as one window [lo, hi+k) when the two overlap (k < hi-lo),
so each value is sieved once. `solution_count_table` makes no per-k pass: it
sorts the keys (phi(m) << s) | m for 2 <= m <= limit+k_max, finds for each n
the run of keys between (M*phi(n) << s) | (n+1) and (M*phi(n) << s) | (n+k_max)
with two binary searches, and tallies m-n over the matches. The packing is
exact because every m is below 2**s and M*phi(m) << s < 2 * 2**27 * 2**27 =
2**55 < 2**63 at the dense cap of 2**27 values (s = 27).
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
# values sieved per pass over the prime powers (see the module docstring)
_BLOCK_VALUES = 1 << 16
# prime powers below this are sieved by strided slices, the rest scattered
_DENSE_STRIDE = 64
# count-table key shift: every m < _MAX_DENSE_VALUES fits below it
_KEY_SHIFT = (_MAX_DENSE_VALUES - 1).bit_length()


class RangeTooLarge(ValueError):
    pass


@dataclass(frozen=True)
class TotientSegment:
    lo: int
    hi: int
    values: np.ndarray  # values[i - lo] == totient(i) for lo <= i < hi


def _prime_powers(hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(q, factor, p) for every power q = p^j < hi of every prime p <= sqrt(hi-1):
    a multiple of q gets its totient multiplied by factor (p-1 for j = 1, else
    p) and its factored part by p."""
    p = primes_upto(math.isqrt(hi - 1))
    qs, ps = [p], [p]
    while (keep := qs[-1] <= (hi - 1) // ps[-1]).any():
        qs.append(qs[-1][keep] * ps[-1][keep])
        ps.append(ps[-1][keep])
    q, p = np.concatenate(qs), np.concatenate(ps)
    return q, np.where(q == p, p - 1, p), p


def sieve_totient(lo: int, hi: int, segment_size: int = DEFAULT_SEGMENT_SIZE) -> TotientSegment:
    """Exact totients over [lo, hi) by prime-power sieving.

    The range is sieved in blocks of _BLOCK_VALUES values. In a block, every
    multiple of every prime power q = p^j < hi (p <= sqrt(hi)) has its totient
    multiplied by p-1 (j = 1) or p (j > 1) and its factored part by p: by one
    strided slice per q below _DENSE_STRIDE, and by two scattered multiply.at
    calls for all larger q together, which have few multiples per block. What
    is left of each value after dividing out its factored part is 1 or its one
    prime factor above sqrt(hi).
    """
    if not 1 <= lo < hi:
        raise ValueError("need 1 <= lo < hi")
    if hi > MAX_SIEVE_VALUE:
        raise RangeTooLarge(f"sieve values are capped at 2**40, got {hi}")
    if hi - lo > segment_size:
        raise RangeTooLarge(f"segment of {hi - lo} exceeds the size limit {segment_size}")
    phi = np.ones(hi - lo, dtype=np.int64)
    factored = np.empty(min(hi - lo, _BLOCK_VALUES), dtype=np.int64)
    q, factor, p = _prime_powers(hi)
    dense = q < _DENSE_STRIDE
    strided = list(zip(q[dense].tolist(), factor[dense].tolist(), p[dense].tolist()))
    q, factor, p = q[~dense], factor[~dense], p[~dense]
    for start in range(lo, hi, _BLOCK_VALUES):
        size = min(_BLOCK_VALUES, hi - start)
        block, part = phi[start - lo : start - lo + size], factored[:size]
        part.fill(1)
        for qd, fd, pd in strided:
            first = -start % qd
            block[first::qd] *= fd
            part[first::qd] *= pd
        # the multiples of the sparse q, all at once: the j-th multiple of
        # q[i] in the block is at first[i] + j*q[i]
        first = -start % q
        count = (size - first + q - 1) // q
        row = np.repeat(np.arange(q.size), count)
        at = np.arange(row.size) - np.repeat(np.cumsum(count) - count, count)
        at *= q[row]
        at += first[row]
        np.multiply.at(block, at, factor[row])
        np.multiply.at(part, at, p[row])
        rest = np.arange(start, start + size, dtype=np.int64)
        rest //= part
        rest -= 1
        np.maximum(rest, 1, out=rest)  # totient factor of the leftover prime, or 1
        block *= rest
    return TotientSegment(lo, hi, phi)


def totients_upto(n: int, segment_size: int = DEFAULT_SEGMENT_SIZE) -> np.ndarray:
    """Dense array t with t[i] = totient(i) for 1 <= i <= n (t[0] = 0)."""
    if n + 1 > _MAX_DENSE_VALUES:
        raise RangeTooLarge(f"dense totient table of {n} values exceeds the memory cap")
    out = np.zeros(n + 1, dtype=np.int64)
    step = min(segment_size, _BLOCK_VALUES)
    for lo in range(1, n + 1, step):
        hi = min(lo + step, n + 1)
        out[lo:hi] = sieve_totient(lo, hi, step).values
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
    step = min(DEFAULT_SEGMENT_SIZE, _BLOCK_VALUES)
    for lo in range(1, limit + 1, step):
        hi = min(lo + step, limit + 1)
        size = hi - lo
        if k < size:
            # [lo, hi) and [lo+k, hi+k) overlap: sieve their union once
            phi = sieve_totient(lo, hi + k, size + k).values
            phi_n, phi_nk = phi[:size], phi[k:]
        else:
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
    mask = (1 << _KEY_SHIFT) - 1
    keys = phi[2:] << _KEY_SHIFT
    keys |= np.arange(2, limit + k_max + 1, dtype=np.int64)
    keys.sort()
    # n's run starts at (M*phi(n) << _KEY_SHIFT) | (n+1) and ends at
    # high = (M*phi(n) << _KEY_SHIFT) | (n+k_max); sorting the highs lets the
    # searches sweep keys in order
    high = phi[1 : limit + 1] * M
    high <<= _KEY_SHIFT
    high |= np.arange(1 + k_max, limit + k_max + 1, dtype=np.int64)
    high.sort()
    first = np.searchsorted(keys, high - (k_max - 1), side="left")
    runs = np.searchsorted(keys, high, side="right")
    runs -= first
    # expand the runs: the i-th match overall sits at keys[i + shift]
    shift = np.cumsum(runs)
    shift -= runs
    np.subtract(first, shift, out=shift)
    hit = np.repeat(shift, runs)
    hit += np.arange(hit.size)
    gaps = keys[hit]  # m of each match
    gaps &= mask
    high &= mask
    high -= k_max  # n of each run
    gaps -= np.repeat(high, runs)
    tally = np.bincount(gaps, minlength=k_max + 1)
    counts = {k: int(tally[k]) for k in range(1, k_max + 1)}
    min_count = min(counts.values())
    achievers = tuple(k for k in sorted(counts) if counts[k] == min_count)
    return CountTable(k_max, M, limit, counts, min_count, achievers)
