"""Primality testing and prime sieving.

Verdict policy: below 2**64 the answer is deterministic; above, a strong
base-2 test plus a strong Lucas test decide, and passing numbers are reported
as ProbablePrime, never Prime. Below 1009**2 the verdict is one lookup in a
smallest-prime-factor table (uint16, ~2 MB, built on the first such query);
from there to 2**64, trial division by the primes <= 997 and then a fixed
strong-pseudoprime base set decide. A Composite verdict found by a factor
carries the smallest prime factor as its witness either way.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "DETERMINISTIC_LIMIT",
    "PRESIEVE_BOUND",
    "SEGMENT_CANDIDATES",
    "Verdict",
    "PrimalityVerdict",
    "is_prime_small",
    "is_probable_prime",
    "primes_upto",
    "presieve",
    "spf_table",
]

DETERMINISTIC_LIMIT = 1 << 64
PRESIEVE_BOUND = 100_000
SEGMENT_CANDIDATES = 1 << 20

# Strong-pseudoprime bases covering every n < 3.3 * 10**24 (> 2**64).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class Verdict(Enum):
    PRIME = "Prime"
    PROBABLE_PRIME = "ProbablePrime"
    COMPOSITE = "Composite"


@dataclass(frozen=True)
class PrimalityVerdict:
    """Outcome of a primality test.

    For Composite results the witness is a nontrivial divisor when one was
    found by trial division, or a Miller-Rabin base that exposes n (None for
    the 0/1 convention and for Lucas-only rejections).
    """

    value: int
    verdict: Verdict
    witness: int | None = None

    @property
    def is_prime(self) -> bool:
        return self.verdict is not Verdict.COMPOSITE


# ---------------------------------------------------------------------------
# prime sieves


_prime_cache = np.empty(0, dtype=np.int64)
_prime_cache_limit = 1


def primes_upto(limit: int) -> np.ndarray:
    """Ascending int64 array of all primes <= limit."""
    global _prime_cache, _prime_cache_limit
    if limit > 10**8:
        raise ValueError(f"primes_upto is capped at 10**8, got {limit}")
    if limit > _prime_cache_limit:
        sieve = np.ones(limit + 1, dtype=bool)
        sieve[:2] = False
        for p in range(2, math.isqrt(limit) + 1):
            if sieve[p]:
                sieve[p * p :: p] = False
        _prime_cache = np.flatnonzero(sieve).astype(np.int64)
        _prime_cache_limit = limit
    cut = np.searchsorted(_prime_cache, limit, side="right")
    return _prime_cache[:cut]


_TRIAL_PRIMES: list[int] = []
# 1009 is the first prime above the trial primes (<= 997 < 1000), so an
# n < 1009**2 that none of them divides has no factor <= sqrt(n): it is prime
_TRIAL_PROVEN_LIMIT = 1009**2
_SPF: array | None = None


def _trial_primes() -> list[int]:
    # small enough to stay cheap, large enough to hand back factors like 641
    global _TRIAL_PRIMES
    if not _TRIAL_PRIMES:
        _TRIAL_PRIMES = primes_upto(1000).tolist()
    return _TRIAL_PRIMES


def spf_table() -> array:
    """Smallest prime factor of every n < 1009**2, 0 for 0, 1 and primes.

    Every composite below 1009**2 has a factor among the trial primes, so the
    table needs no other bound and fits in uint16. Built on the first call.
    """
    global _SPF
    if _SPF is None:
        table = array("H", [0]) * _TRIAL_PROVEN_LIMIT
        cells = np.frombuffer(table, dtype=np.uint16)
        # descending, so the smallest prime writes each composite last
        for p in reversed(_trial_primes()):
            cells[p * p :: p] = p
        _SPF = table
    return _SPF


# ---------------------------------------------------------------------------
# Miller-Rabin


def _decompose(n: int) -> tuple[int, int]:
    # n - 1 = d * 2**s with d odd
    d = n - 1
    s = (d & -d).bit_length() - 1
    return d >> s, s


def _mr_composite(n: int, a: int, d: int, s: int) -> bool:
    """True when base a proves n composite (strong test)."""
    a %= n
    if a == 0:
        return False
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def is_prime_small(n: int) -> PrimalityVerdict:
    """Deterministic verdict for n < 2**64 (a table lookup below 1009**2)."""
    if n >= DETERMINISTIC_LIMIT:
        raise ValueError("is_prime_small requires n < 2**64")
    if n < 2:
        return PrimalityVerdict(n, Verdict.COMPOSITE)
    if n < _TRIAL_PROVEN_LIMIT:
        p = spf_table()[n]
        if p:
            return PrimalityVerdict(n, Verdict.COMPOSITE, p)
        return PrimalityVerdict(n, Verdict.PRIME)
    for p in _trial_primes():
        if n % p == 0:
            return PrimalityVerdict(n, Verdict.COMPOSITE, p)
    d, s = _decompose(n)
    for a in _MR_BASES:
        if _mr_composite(n, a, d, s):
            return PrimalityVerdict(n, Verdict.COMPOSITE, a)
    return PrimalityVerdict(n, Verdict.PRIME)


# ---------------------------------------------------------------------------
# strong Lucas test (Selfridge parameters)


def _jacobi(a: int, n: int) -> int:
    # n odd positive
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_composite(n: int) -> bool:
    """True when n fails the strong Lucas test. n odd, no tiny factors."""
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == 0:
            return abs(D) != n
        if j == -1:
            break
        D = -(D + 2) if D > 0 else -(D - 2)
        if D == 13:
            r = math.isqrt(n)
            if r * r == n:
                return True
    P = 1
    Q = (1 - D) // 4

    d = n + 1
    s = (d & -d).bit_length() - 1
    d >>= s

    # climb to U_d, V_d with the binary chain, tracking Q^index
    U, V, Qk = 1, P, Q % n
    for bit in bin(d)[3:]:
        U = U * V % n
        V = (V * V - 2 * Qk) % n
        Qk = Qk * Qk % n
        if bit == "1":
            U, V = P * U + V, D * U + P * V
            if U & 1:
                U += n
            if V & 1:
                V += n
            U = (U >> 1) % n
            V = (V >> 1) % n
            Qk = Qk * Q % n

    if U == 0 or V == 0:
        return False
    for _ in range(s - 1):
        V = (V * V - 2 * Qk) % n
        if V == 0:
            return False
        Qk = Qk * Qk % n
    return True


def is_probable_prime(n: int) -> PrimalityVerdict:
    """Best available verdict for any n >= 0.

    Delegates to the deterministic test below 2**64; above, combines a
    strong base-2 test with a strong Lucas test (no counterexample to the
    combination is known).
    """
    if n < DETERMINISTIC_LIMIT:
        return is_prime_small(n)
    for p in _trial_primes():
        if n % p == 0:
            return PrimalityVerdict(n, Verdict.COMPOSITE, p)
    d, s = _decompose(n)
    if _mr_composite(n, 2, d, s):
        return PrimalityVerdict(n, Verdict.COMPOSITE, 2)
    if _strong_lucas_composite(n):
        return PrimalityVerdict(n, Verdict.COMPOSITE)
    return PrimalityVerdict(n, Verdict.PROBABLE_PRIME)


# ---------------------------------------------------------------------------
# presieve for pair searches


_presieve_cache: dict[int, list[int]] = {}


def _presieve_primes(bound: int) -> list[int]:
    if bound not in _presieve_cache:
        _presieve_cache[bound] = primes_upto(bound).tolist()
    return _presieve_cache[bound]


def presieve(
    a: int,
    b: int,
    start: int,
    count: int,
    step: int = 1,
    bound: int = PRESIEVE_BOUND,
) -> bytearray:
    """Survivor mask over the candidates r = start + i*step, 0 <= i < count.

    mask[i] == 0 once a*r+1 or b*r+1 is divisible by (and larger than) a
    sieving prime <= bound. Candidates whose form equals a sieving prime are
    kept, so small searches stay exact.
    """
    if count < 0 or count > SEGMENT_CANDIDATES:
        raise ValueError(f"presieve segment must have 0..{SEGMENT_CANDIDATES} candidates")
    mask = bytearray(b"\x01" * count)
    if count == 0:
        return mask
    last = start + (count - 1) * step
    for q in _presieve_primes(bound):
        for c in (a, b):
            cq = c % q
            if cq == 0:
                continue  # c*r+1 is 1 mod q, never divisible
            r0 = (q - pow(cq, -1, q)) % q
            exempt = -1
            if (q - 1) % c == 0:
                r_eq = (q - 1) // c  # candidate whose form is q itself
                if start <= r_eq <= last and (r_eq - start) % step == 0:
                    exempt = (r_eq - start) // step
            sq = step % q
            if sq == 0:
                if start % q == r0:
                    prior = mask[exempt] if exempt >= 0 else 0
                    mask[:] = b"\x00" * count
                    if exempt >= 0:
                        mask[exempt] = prior
                continue
            i0 = ((r0 - start) * pow(sq, -1, q)) % q
            if i0 >= count:
                continue
            prior = mask[exempt] if exempt >= 0 else 0
            mask[i0::q] = b"\x00" * ((count - i0 + q - 1) // q)
            if exempt >= i0 and (exempt - i0) % q == 0:
                mask[exempt] = prior
    return mask
