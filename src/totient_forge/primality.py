"""Primality testing and prime sieving.

Verdict policy: below 2**64 the answer is deterministic; above, a strong
base-2 test plus a strong Lucas test decide, and passing numbers are reported
as ProbablePrime, never Prime. Every n takes the same two stages, each of
which returns None when n passes it, else a witness that n is composite.
`screen` rejects most composites cheaply: below 1009**2 it is one lookup in a
smallest-prime-factor table (uint16, ~2 MB, built on the first such query);
above, one gcd with the product of the primes <= 997 and then the strong
base-2 test. `confirm` settles what the screen passed: nothing is left to test
below 1009**2, the strong-pseudoprime bases 3..37 run below 2**64, the strong
Lucas test above. `is_prime` gives the answer as a bool; certification takes it
(`Factorization.validate`, `factorize`, the witness checks in
`constructions`, sequence generation and validation, the pair search and its
cache). `is_probable_prime` alone turns the witnesses into a verdict, where
one is reported (C1, `search-r`).

`presieve` computes only a block's start residues; each form's c mod q and
1/(c*step) mod q over the 9,592 sieving primes q come from `_form_constants`,
memoized per process by (c, step) (~150 KB per multiplier, 32 entries at
most): a 4,096-candidate block from 10^40 takes 1.3 ms, not 4.1 ms as with
one inversion per block (2-vCPU host).
"""

from __future__ import annotations

import functools
import math
from array import array
from enum import Enum
from typing import NamedTuple

import numpy as np

__all__ = [
    "DETERMINISTIC_LIMIT",
    "PRESIEVE_BOUND",
    "SEGMENT_CANDIDATES",
    "SPF_LIMIT",
    "Verdict",
    "PrimalityVerdict",
    "confirm",
    "is_prime",
    "is_probable_prime",
    "primes_upto",
    "presieve",
    "screen",
    "spf_table",
]

DETERMINISTIC_LIMIT = 1 << 64
PRESIEVE_BOUND = 100_000
SEGMENT_CANDIDATES = 1 << 20

# With base 2 (the screen's), strong-pseudoprime bases covering every
# n < 3.3 * 10**24 (> 2**64).
_CONFIRM_BASES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class Verdict(Enum):
    PRIME = "Prime"
    PROBABLE_PRIME = "ProbablePrime"
    COMPOSITE = "Composite"


class PrimalityVerdict(NamedTuple):
    """Outcome of a primality test.

    For Composite results the witness is the smallest prime factor when the
    table or the trial-prime gcd found one, or a Miller-Rabin base that
    exposes n (None for the 0/1 convention and for Lucas-only rejections).
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


# small enough to stay cheap, large enough to hand back factors like 641
_TRIAL_PRIMES: list[int] = primes_upto(1000).tolist()
_TRIAL_PRODUCT = math.prod(_TRIAL_PRIMES)
# 1009 is the first prime above the trial primes (<= 997 < 1000), so an
# n < 1009**2 that none of them divides has no factor <= sqrt(n): it is prime
SPF_LIMIT = 1009**2
_SPF: array | None = None


def spf_table() -> array:
    """Smallest prime factor of every n < 1009**2, 0 for 0, 1 and primes.

    Every composite below 1009**2 has a factor among the trial primes, so the
    table needs no other bound and fits in uint16. Built on the first call.
    """
    global _SPF
    if _SPF is None:
        table = array("H", [0]) * SPF_LIMIT
        cells = np.frombuffer(table, dtype=np.uint16)
        # descending, so the smallest prime writes each composite last
        for p in reversed(_TRIAL_PRIMES):
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


def screen(n: int) -> int | None:
    """First stage of the test: None when n passes, else a witness that n is
    composite: 0 for n < 2, the smallest prime factor when the table
    (n < 1009**2) or the gcd with the trial primes' product finds one, 2 when
    the strong base-2 test exposes n.

    A None must be settled by `confirm(n)`.
    """
    if n < SPF_LIMIT:
        if n < 2:
            return 0
        return spf_table()[n] or None
    # one gcd with the primes' product rules them all out (3.4 against
    # 16.6 us of trial division at 333 bits); scan them only to name the
    # smallest factor
    if math.gcd(n, _TRIAL_PRODUCT) > 1:
        return next(p for p in _TRIAL_PRIMES if n % p == 0)
    d, s = _decompose(n)
    return 2 if _mr_composite(n, 2, d, s) else None


def confirm(n: int) -> int | None:
    """Second stage, for an n that `screen` passed: None when n is prime
    (below 1009**2 the screen has decided), else the first of the bases
    3..37 that exposes n below 2**64, or 0 when the strong Lucas test
    rejects n above it.
    """
    if n < SPF_LIMIT:
        return None
    if n < DETERMINISTIC_LIMIT:
        d, s = _decompose(n)
        for a in _CONFIRM_BASES:
            if _mr_composite(n, a, d, s):
                return a
        return None
    return 0 if _strong_lucas_composite(n) else None


def is_probable_prime(n: int) -> PrimalityVerdict:
    """Best available verdict for any n >= 0: `screen`, then `confirm`.

    Deterministic below 2**64; above, a strong base-2 test combined with a
    strong Lucas test (no counterexample to the combination is known).
    """
    witness = screen(n)
    if witness is None:
        witness = confirm(n)
    if witness is not None:
        return PrimalityVerdict(n, Verdict.COMPOSITE, witness or None)
    return PrimalityVerdict(n, Verdict.PRIME if n < DETERMINISTIC_LIMIT else Verdict.PROBABLE_PRIME)


def is_prime(n: int) -> bool:
    """`is_probable_prime(n).is_prime` from the same stages; below 1009**2 one
    table lookup (n < 2 first, as a negative index would wrap)."""
    if n < SPF_LIMIT:
        return n >= 2 and not spf_table()[n]
    return screen(n) is None and confirm(n) is None


# ---------------------------------------------------------------------------
# presieve for pair searches


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
    kept, so small searches stay exact. Needs 1 <= a < b, start >= 1 and
    step >= 1.
    """
    if not 1 <= a < b:
        raise ValueError(f"presieve needs 1 <= a < b, got a={a}, b={b}")
    if start < 1 or step < 1:
        raise ValueError(f"presieve needs start >= 1 and step >= 1, got {start}, {step}")
    if count < 0 or count > SEGMENT_CANDIDATES:
        raise ValueError(f"presieve segment must have 0..{SEGMENT_CANDIDATES} candidates")
    if bound > PRESIEVE_BOUND:
        raise ValueError(f"presieve bound is capped at {PRESIEVE_BOUND}, got {bound}")
    mask = bytearray(b"\x01" * count)
    if count and bound >= 2:  # below 2 there is no sieving prime
        _strike_arrays(mask, a, b, start, step, primes_upto(bound))
    return mask


def _strike_arrays(mask: bytearray, a: int, b: int, start: int, step: int, primes: np.ndarray) -> None:
    """Clear every candidate whose a- or b-form has a sieving prime as a
    proper divisor, computed for all the primes at once.

    Form c at candidate i is t + i*u (mod q) with t = c*start + 1 and
    u = c*step, so it is first divisible at i0 = -t/u (mod q) and then every
    q candidates. When u == 0 (q divides c or step) the form is t at every
    candidate: struck everywhere if t == 0, nowhere otherwise. Only t depends
    on the block; c mod q and 1/u come from `_form_constants`.
    """
    count = len(mask)
    cells = np.frombuffer(mask, dtype=np.uint8)
    n = len(primes)
    s = _residues(start, primes)
    (ca, ia), (cb, ib) = _form_constants(a, step), _form_constants(b, step)
    t = np.concatenate(((ca[:n] * s + 1) % primes, (cb[:n] * s + 1) % primes))
    inv = np.concatenate((ia[:n], ib[:n]))
    del s  # from here on only arrays of 2n entries stay alive
    flat = inv == 0
    stride = np.concatenate((primes, primes))
    first = stride - t
    first *= inv
    del inv
    first %= stride
    stride[flat] = 1
    first[flat] = np.where(t[flat] == 0, 0, count)
    del t
    # a form equal to its own sieving prime does not clear its candidate
    own = np.concatenate((_own_index(a, primes, start, count, step),
                          _own_index(b, primes, start, count, step)))
    exempt = own >= 0
    for q, i, j in zip(stride[exempt].tolist(), first[exempt].tolist(), own[exempt].tolist()):
        kept = cells[j]
        cells[i::q] = 0
        cells[j] = kept
    first[exempt] = count
    live = first < count
    # dense strides as slices; sparse ones (at most four hits each) as one scatter
    sliced = live & (stride * 4 < count)
    for q, i in zip(stride[sliced].tolist(), first[sliced].tolist()):
        cells[i::q] = 0
    scattered = live & ~sliced
    q, i = stride[scattered], first[scattered]
    hits = []
    while i.size:
        hits.append(i)
        i = i + q
        keep = i < count
        q, i = q[keep], i[keep]
    if hits:
        cells[np.concatenate(hits)] = 0


def _residues(x: int, primes: np.ndarray) -> np.ndarray:
    """x mod each prime; past int64 by Horner over 32-bit limbs."""
    if x < 1 << 62:
        return np.int64(x) % primes
    limbs = x.to_bytes((x.bit_length() + 31) // 32 * 4, "big")
    residues = np.zeros_like(primes)
    for limb in np.frombuffer(limbs, dtype=">u4").tolist():
        residues = ((residues << 32) + limb) % primes
    return residues


@functools.lru_cache(maxsize=32)
def _form_constants(c: int, step: int) -> tuple[np.ndarray, np.ndarray]:
    """c mod q and 1/(c*step) mod q, or 0 where q divides c*step, for every
    prime q <= PRESIEVE_BOUND; read-only, as every block of every search with
    this multiplier and step shares them."""
    primes = primes_upto(PRESIEVE_BOUND)
    c_mod = _residues(c, primes)
    u = c_mod * _residues(step, primes) % primes
    # q = 2 gives exponent 0, so 0**(q-2) is 1 there: zero every u == 0 here
    inv = np.where(u == 0, 0, _inverses(u, primes))
    c_mod.flags.writeable = inv.flags.writeable = False
    return c_mod, inv


def _inverses(x: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """x**(q-2) mod q for each prime q: the inverse of every x not 0 mod q."""
    result = np.ones_like(primes)
    exponent = primes - 2
    for _ in range(int(exponent[-1]).bit_length()):
        result = np.where(exponent & 1 == 1, result * x % primes, result)
        x = x * x % primes
        exponent = exponent >> 1
    return result


def _own_index(c: int, primes: np.ndarray, start: int, count: int, step: int) -> np.ndarray:
    """Per prime q, the index of the candidate with c*r + 1 == q, else -1."""
    if c * start >= primes[-1]:
        return np.full_like(primes, -1)  # forms grow with r: all above the primes
    r, rem = np.divmod(primes - 1, c)
    # r - start < primes[-1], so any larger step gives the same quotient 0
    i, off = np.divmod(r - start, min(step, int(primes[-1])))
    return np.where((rem == 0) & (off == 0) & (i >= 0) & (i < count), i, -1)
