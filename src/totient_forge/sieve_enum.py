"""Brute-force oracle: segmented totient sieve and exhaustive enumeration.

Totients are computed exactly with int64 cells; the supported value range is
capped at 2**40 (far beyond every desk-scale claim, which tops out at 10**8).

The sieve works through its range in blocks of 2**16 values. A block's arrays
(512 KiB each) stay in the L2 cache and below numpy's 4 MiB huge-page
threshold, so sieve time does not depend on whether the kernel has huge pages
to hand out (with 2**22-value windows, C5's two enumerations took ~15% longer
without them). `sieve_totient`, `totients_upto` and `enumerate_solutions`
share one block kernel, `_BlockSieve`; each call builds one prime-power table
for its largest value and one set of block arrays, and reuses them for every
block.

`enumerate_solutions` sieves each segment [lo, hi) together with its shifted
copy [lo+k, hi+k) as one window [lo, hi+k) when the two overlap (k < hi-lo),
so each value is sieved once, and its blocks hold 2**16 + k values (limit + k
for a limit below 2**16), so each such window takes one block pass: split
into a 2**16-value block and a k-value block, a window would pay the
scatter's fixed cost twice (at C5, k = 6, the 6-value block alone takes
0.32 ms against 1.12 ms for the full one). For k >= 2**16 the two segments are sieved apart, in blocks of 2**16
values, so no block grows with k.

`solution_count_table` makes no per-k pass and keeps one array. It turns the
dense totient table in place into the keys (phi(m) << s) | m, 1 <= m <=
limit+k_max, and sorts them. A pair (n, m = n+k) is a key in the run from
(M*phi(n) << s) | (n+1) to (M*phi(n) << s) | (n+k_max). The map (phi(n), n) ->
(M*phi(n), n+k_max) preserves order, so the keys of the n <= limit, taken in
sorted order and pushed through it, give the run ends already sorted: no
second array and no second sort. The sorted keys are walked in _BLOCK_VALUES
blocks. A block's runs lie in one contiguous key window, between its first
run start and its last run end, so the binary searches stay inside it. Its
matches are expanded and tallied at most _BLOCK_VALUES at a time (plus the
rest of one run, at most k_max), so besides the keys, memory holds a few
arrays of that size whatever the number of pairs. The pairs crowd into the
first blocks, the n with small phi(n): at C7 the first block holds 553,149
of the 1,263,094 pairs. The packing is exact because every m is below 2**s
and M*phi(m) << s < 2 * 2**27 * 2**27 = 2**55 < 2**63 at the dense cap of
2**27 values (s = 27).
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
_MAX_WINDOW_VALUES = 1 << 22  # values per sieve_totient call
_MAX_DENSE_VALUES = 1 << 27  # ~1 GiB of int64 cells for dense helpers
# values sieved per pass over the prime powers, values per enumeration
# segment, and keys per count-table block (see the module docstring)
_BLOCK_VALUES = 1 << 16
# prime powers below this are sieved by strided slices, the rest scattered
_DENSE_STRIDE = 64
# 32 * 27 * 25: the period of the strided powers of 2, 3 and 5, which each
# block copies from a precomputed wheel instead of striding
_WHEEL = 21600
# count-table key shift: every m < _MAX_DENSE_VALUES fits below it
_KEY_SHIFT = (_MAX_DENSE_VALUES - 1).bit_length()


class RangeTooLarge(ValueError):
    pass


@dataclass(frozen=True)
class TotientSegment:
    lo: int
    hi: int
    values: np.ndarray  # values[i - lo] == totient(i) for lo <= i < hi


class _BlockSieve:
    """Totients of windows below hi, in blocks of at most `span` values.

    Every power q = p^j < hi of every prime p <= sqrt(hi-1) multiplies the
    totient of each of its multiples by p-1 (j = 1) or p (j > 1) and its
    factored part by p: by one strided slice per q below _DENSE_STRIDE, and
    by two scattered multiply.at calls for all larger q together, which have
    few multiples per block. What is left of a value after dividing out its
    factored part is 1 or its one prime factor above sqrt(hi).

    The strided q that divide _WHEEL = 32*27*25 (at _DENSE_STRIDE = 64: 2, 4,
    8, 16, 32, 3, 9, 27, 5 and 25, 10 of the 26) repeat with that period.
    Their factors are laid down once, over _WHEEL + span + 1 cells (~1.4 MB
    at span 2**16), and a block starts with two slice copies at its phase
    start % _WHEEL instead of a fill and 20 strided passes. The other 16
    stay strided. One 2**16-value block near 5*10**6 (2-vCPU shared host,
    numpy 2.4) spends 48 us on the copies, 160 us on the 16 strided powers,
    103 us building the scatter index, 250-290 us in multiply.at and 357 us
    in the final division: ~1.0 ms, against ~1.2 ms with the fill and 26
    strided powers (380 us).

    The scatter's index pattern is built once: a block of `span` values holds
    at most ceil(span/q) multiples of q, the j-th at first + j*q, so only
    `first` changes from block to block, and a multiple past the block's end
    lands in one spare cell. The work arrays are allocated once too, so no
    block maps fresh memory (whose page faults made sieve time depend on the
    host's memory state).
    """

    def __init__(self, hi: int, span: int):
        p = primes_upto(math.isqrt(hi - 1))
        qs, ps = [p], [p]
        while (keep := qs[-1] <= (hi - 1) // ps[-1]).any():
            qs.append(qs[-1][keep] * ps[-1][keep])
            ps.append(ps[-1][keep])
        q, p = np.concatenate(qs), np.concatenate(ps)
        factor = np.where(q == p, p - 1, p)
        dense = q < _DENSE_STRIDE
        wheel = dense & (_WHEEL % q == 0)
        # cell i of the wheel holds the factors of every value == i mod _WHEEL
        self.wheel_phi = np.ones(_WHEEL + span + 1, dtype=np.int64)
        self.wheel_part = np.ones(_WHEEL + span + 1, dtype=np.int64)
        for qw, fw, pw in zip(q[wheel].tolist(), factor[wheel].tolist(), p[wheel].tolist()):
            self.wheel_phi[::qw] *= fw
            self.wheel_part[::qw] *= pw
        strided = dense & ~wheel
        self.strided = list(zip(q[strided].tolist(), factor[strided].tolist(), p[strided].tolist()))
        # ordered by prime, so a block can stop at the square root of its
        # own largest value
        by_p = np.argsort(p[~dense], kind="stable")
        self.q, self.p = q[~dense][by_p], p[~dense][by_p]
        count = (span + self.q - 1) // self.q
        self.cells_before = np.concatenate(([0], np.cumsum(count)))
        self.row = np.repeat(np.arange(self.q.size), count)
        self.step = np.arange(self.row.size) - np.repeat(self.cells_before[:-1], count)
        self.step *= self.q[self.row]
        self.cell_factor, self.cell_p = factor[~dense][by_p][self.row], self.p[self.row]
        self.at = np.empty(self.row.size, dtype=np.int64)
        self.phi, self.part = np.empty(span + 1, dtype=np.int64), np.empty(span + 1, dtype=np.int64)
        self.rest, self.ramp = np.empty(span, dtype=np.int64), np.arange(span, dtype=np.int64)
        self.span = span

    def into(self, lo: int, out: np.ndarray) -> None:
        """out[i] = totient(lo + i), for lo + out.size <= hi."""
        for off in range(0, out.size, self.span):
            start = lo + off
            size = min(self.span, out.size - off)
            phi, part, rest = self.phi[: size + 1], self.part[: size + 1], self.rest[:size]
            phase = start % _WHEEL
            phi[:] = self.wheel_phi[phase : phase + size + 1]
            part[:] = self.wheel_part[phase : phase + size + 1]
            for qd, fd, pd in self.strided:
                first = -start % qd
                phi[first:size:qd] *= fd
                part[first:size:qd] *= pd
            used = np.searchsorted(self.p, math.isqrt(start + size - 1), side="right")
            cells = self.cells_before[used]
            at = np.take(-start % self.q[:used], self.row[:cells], out=self.at[:cells])
            at += self.step[:cells]
            np.minimum(at, size, out=at)  # cell `size` takes the multiples past the block
            np.multiply.at(phi, at, self.cell_factor[:cells])
            np.multiply.at(part, at, self.cell_p[:cells])
            np.add(self.ramp[:size], start, out=rest)
            rest //= part[:size]
            rest -= 1
            np.maximum(rest, 1, out=rest)  # totient factor of the leftover prime, or 1
            np.multiply(phi[:size], rest, out=out[off : off + size])


def sieve_totient(lo: int, hi: int) -> TotientSegment:
    """Exact totients over [lo, hi) by prime-power sieving (see _BlockSieve)."""
    if not 1 <= lo < hi:
        raise ValueError("need 1 <= lo < hi")
    if hi > MAX_SIEVE_VALUE:
        raise RangeTooLarge(f"sieve values are capped at 2**40, got {hi}")
    if hi - lo > _MAX_WINDOW_VALUES:
        raise RangeTooLarge(f"segment of {hi - lo} exceeds the size limit {_MAX_WINDOW_VALUES}")
    phi = np.empty(hi - lo, dtype=np.int64)
    _BlockSieve(hi, min(hi - lo, _BLOCK_VALUES)).into(lo, phi)
    return TotientSegment(lo, hi, phi)


def totients_upto(n: int) -> np.ndarray:
    """Dense array t with t[i] = totient(i) for 1 <= i <= n (t[0] = 0)."""
    if n + 1 > _MAX_DENSE_VALUES:
        raise RangeTooLarge(f"dense totient table of {n} values exceeds the memory cap")
    out = np.zeros(n + 1, dtype=np.int64)
    _BlockSieve(n + 1, _BLOCK_VALUES).into(1, out[1:])
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
    # no segment is longer than the range, so a small limit builds small arrays
    step = min(_BLOCK_VALUES, limit)
    # one window of step + k cells, or two of step when they cannot overlap;
    # each window is sieved in one block pass
    span = step + k if k < step else step
    sieve = _BlockSieve(limit + k + 1, span)
    cells = np.empty(span if k < step else 2 * step, dtype=np.int64)
    target = np.empty(step, dtype=np.int64)
    for lo in range(1, limit + 1, step):
        size = min(step, limit + 1 - lo)
        if k < size:
            # [lo, lo+size) and [lo+k, lo+size+k) overlap: sieve their union once
            phi = cells[: size + k]
            sieve.into(lo, phi)
            phi_n, phi_nk = phi[:size], phi[k:]
        else:
            phi_n, phi_nk = cells[:size], cells[step : step + size]
            sieve.into(lo, phi_n)
            sieve.into(lo + k, phi_nk)
        np.multiply(phi_n, M, out=target[:size])
        hits.extend((np.flatnonzero(phi_nk == target[:size]) + lo).tolist())
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
    if k_max < 1 or M not in (1, 2) or limit < 1:
        raise ValueError("need k_max >= 1, M in {1, 2}, limit >= 1")
    values = limit + k_max
    mask = (1 << _KEY_SHIFT) - 1
    # keys[i] = (phi(m) << _KEY_SHIFT) | m for m = i + 1, built in the sieve's
    # own output; the key of m = 1 is n = 1's source but never a match, since
    # every run starts at n+1 >= 2
    keys = totients_upto(values)[1:]
    keys <<= _KEY_SHIFT
    ramp = np.arange(1, _BLOCK_VALUES + 1, dtype=np.int64)
    for lo in range(0, values, _BLOCK_VALUES):
        block = keys[lo : lo + _BLOCK_VALUES]
        block |= ramp[: block.size]
        ramp += _BLOCK_VALUES
    keys.sort()
    tally = np.zeros(k_max + 1, dtype=np.int64)
    for lo in range(0, values, _BLOCK_VALUES):
        block = keys[lo : lo + _BLOCK_VALUES]
        sources = block[(block & mask) <= limit]
        if not sources.size:
            continue
        n = sources & mask
        # n's run ends at (M*phi(n) << _KEY_SHIFT) | (n+k_max); the map is
        # monotone in the key, so these ends ascend like the sources
        ends = sources >> _KEY_SHIFT
        ends *= M
        ends <<= _KEY_SHIFT
        ends |= n + k_max
        starts = ends - (k_max - 1)  # (M*phi(n) << _KEY_SHIFT) | (n+1)
        begin = np.searchsorted(keys, starts[0], side="left")
        window = keys[begin : np.searchsorted(keys, ends[-1], side="right")]
        first = np.searchsorted(window, starts, side="left")
        runs = np.searchsorted(window, ends, side="right")
        runs -= first
        # the i-th match of the block sits at window[i + shift]; expand at
        # most _BLOCK_VALUES matches at a time (plus the rest of one run)
        done = np.cumsum(runs)
        shift = first - done
        shift += runs
        cuts = np.searchsorted(done, np.arange(0, done[-1], _BLOCK_VALUES), side="right")
        cuts = np.append(cuts, runs.size)
        for a, b in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
            if a == b:
                continue
            hit = np.repeat(shift[a:b], runs[a:b])
            hit += np.arange(done[a] - runs[a], done[b - 1])
            gaps = window[hit]  # m of each match
            gaps &= mask
            gaps -= np.repeat(n[a:b], runs[a:b])
            np.add.at(tally, gaps, 1)
    counts = {k: int(tally[k]) for k in range(1, k_max + 1)}
    min_count = min(counts.values())
    achievers = tuple(k for k in sorted(counts) if counts[k] == min_count)
    return CountTable(k_max, M, limit, counts, min_count, achievers)
