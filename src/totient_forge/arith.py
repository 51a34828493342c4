"""Exact integer arithmetic: factorization, totients, radicals, Fermat numbers.

All values are plain Python ints (arbitrary precision). Factorizations are
certified: every stored prime passes the probable-prime test, and huge inputs
must arrive with a caller-supplied factorization instead of being factored
blind.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd

import numpy as np

from .primality import is_probable_prime, primes_upto

__all__ = [
    "DEFAULT_FACTORING_BOUND",
    "FactoringBoundExceeded",
    "Factorization",
    "FermatNumber",
    "factorize",
    "factorization_of_divisor",
    "gcd",
    "iter_divisors",
    "radical",
    "star_divides",
    "totient",
    "v2",
]

DEFAULT_FACTORING_BOUND = 10**18
_TRIAL_DIVISION_LIMIT = 10**6
_SCALAR_TRIAL_PRIMES: list[int] = []


def _scalar_trial_primes() -> list[int]:
    # primes <= 10**4 for factorize's scalar pass, converted to a list once
    global _SCALAR_TRIAL_PRIMES
    if not _SCALAR_TRIAL_PRIMES:
        _SCALAR_TRIAL_PRIMES = primes_upto(10**4).tolist()
    return _SCALAR_TRIAL_PRIMES


class FactoringBoundExceeded(ValueError):
    """Raised when blind factoring is requested above the configured bound."""


@dataclass(frozen=True)
class Factorization:
    """Prime factorization as ((prime, exponent), ...) with ascending primes."""

    factors: tuple[tuple[int, int], ...]
    value: int

    @classmethod
    def from_pairs(cls, pairs) -> "Factorization":
        merged: dict[int, int] = {}
        for p, e in pairs:
            if e < 0:
                raise ValueError("negative exponent")
            if e:
                merged[p] = merged.get(p, 0) + e
        factors = tuple(sorted(merged.items()))
        value = 1
        for p, e in factors:
            value *= p**e
        return cls(factors, value)

    def totient(self) -> int:
        result = 1
        for p, e in self.factors:
            result *= p ** (e - 1) * (p - 1)
        return result

    def radical(self) -> int:
        result = 1
        for p, _ in self.factors:
            result *= p
        return result

    def times(self, other: "Factorization") -> "Factorization":
        return Factorization.from_pairs(self.factors + other.factors)

    def times_prime(self, p: int, e: int = 1) -> "Factorization":
        return Factorization.from_pairs(self.factors + ((p, e),))

    def div_exact(self, other: "Factorization") -> "Factorization":
        """Quotient factorization; other must divide self exactly."""
        exps = dict(self.factors)
        for p, e in other.factors:
            have = exps.get(p, 0)
            if have < e:
                raise ValueError(f"{other.value} does not divide {self.value}")
            exps[p] = have - e
        return Factorization.from_pairs(exps.items())

    def validate(self, deep: bool = False) -> None:
        """Check structural invariants; with deep=True re-test primality."""
        value = 1
        prev = 1
        for p, e in self.factors:
            if p <= prev or e < 1:
                raise ValueError("factors must have ascending primes, exponents >= 1")
            prev = p
            value *= p**e
            if deep and not is_probable_prime(p).is_prime:
                raise ValueError(f"listed factor {p} is not prime")
        if value != self.value:
            raise ValueError("stored value does not match factor product")

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        return " * ".join(f"{p}^{e}" if e > 1 else str(p) for p, e in self.factors)

    @classmethod
    def parse(cls, text: str) -> "Factorization":
        """Parse 'p^e * p^e * ...' (bare p means exponent 1)."""
        text = text.strip()
        if text in ("", "1"):
            return cls((), 1)
        pairs = []
        for token in text.split("*"):
            token = token.strip()
            if "^" in token:
                p_str, e_str = token.split("^")
                pairs.append((int(p_str), int(e_str)))
            else:
                pairs.append((int(token), 1))
        f = cls.from_pairs(pairs)
        f.validate(deep=True)
        return f


# ---------------------------------------------------------------------------
# factoring


def _pollard_brent(n: int, rng: random.Random) -> int:
    """Nontrivial factor of odd composite n (Brent's cycle variant)."""
    if n % 2 == 0:
        return 2
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def _factor_into(n: int, out: dict[int, int], rng: random.Random) -> None:
    if n == 1:
        return
    if is_probable_prime(n).is_prime:
        out[n] = out.get(n, 0) + 1
        return
    d = _pollard_brent(n, rng)
    _factor_into(d, out, rng)
    _factor_into(n // d, out, rng)


def factorize(
    n: int,
    hint: Factorization | None = None,
    bound: int = DEFAULT_FACTORING_BOUND,
) -> Factorization:
    """Exact factorization of n >= 1.

    Trial division by primes up to 10**6, then Pollard rho (Brent). Above
    `bound` a caller-supplied factorization is mandatory and is verified
    before being trusted.
    """
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    if hint is not None:
        if hint.value != n:
            raise ValueError("factorization hint does not match the value")
        hint.validate(deep=True)
        return hint
    if n > bound:
        raise FactoringBoundExceeded(
            f"{n} exceeds the factoring bound {bound}; pass a factorization hint"
        )
    exps: dict[int, int] = {}
    rem = n
    for p in _scalar_trial_primes():
        if p * p > rem:
            break
        if rem % p == 0:
            e = 0
            while rem % p == 0:
                rem //= p
                e += 1
            exps[p] = e
    if rem > 1 and rem >= 10**8 and not is_probable_prime(rem).is_prime:
        # no factor <= 10^4 left; sweep the rest of the trial range in one
        # vectorized pass when rem fits in int64 (always true at the default
        # bound), else fall back to the scalar loop
        primes = primes_upto(_TRIAL_DIVISION_LIMIT)
        if rem < 2**63:
            hits = primes[np.flatnonzero(rem % primes == 0)].tolist()
        else:
            hits = [p for p in primes.tolist() if rem % p == 0]
        for p in hits:
            e = 0
            while rem % p == 0:
                rem //= p
                e += 1
            exps[p] = e
    if rem > 1:
        if rem < _TRIAL_DIVISION_LIMIT**2 or is_probable_prime(rem).is_prime:
            exps[rem] = exps.get(rem, 0) + 1
        else:
            _factor_into(rem, exps, random.Random(n))
    return Factorization.from_pairs(exps.items())


def factorization_of_divisor(d: int, f: Factorization) -> Factorization:
    """Factorization of d, derived from a factorization of a multiple of d."""
    if d < 1:
        raise ValueError("divisor must be >= 1")
    pairs = []
    rem = d
    for p, _ in f.factors:
        e = 0
        while rem % p == 0:
            rem //= p
            e += 1
        if e:
            pairs.append((p, e))
    if rem != 1:
        raise ValueError(f"{d} does not divide {f.value}")
    return Factorization.from_pairs(pairs)


def iter_divisors(f: Factorization, limit: int | None = None):
    """All divisors of f.value in ascending order (optionally capped)."""
    divisors = [1]
    for p, e in f.factors:
        power = 1
        extended = list(divisors)
        for _ in range(e):
            power *= p
            for d in divisors:
                nd = d * power
                if limit is None or nd <= limit:
                    extended.append(nd)
        divisors = extended
    return sorted(divisors)


# ---------------------------------------------------------------------------
# derived quantities


def totient(n) -> int:
    """Euler's totient, from an int (factored here) or a Factorization."""
    f = n if isinstance(n, Factorization) else factorize(n)
    return f.totient()


def radical(n: int) -> int:
    """Product of the distinct primes dividing n; radical(1) = 1."""
    if n < 1:
        raise ValueError("radical requires n >= 1")
    return factorize(n).radical()


def star_divides(a: int, b: int) -> bool:
    """True when every prime dividing a also divides b (gcd chain, no factoring)."""
    if a < 1 or b < 1:
        raise ValueError("star_divides requires positive arguments")
    while a > 1:
        g = gcd(a, b)
        if g == 1:
            return False
        while a % g == 0:
            a //= g
    return True


def v2(n: int) -> int:
    """2-adic valuation: the largest e with 2**e dividing n."""
    if n < 1:
        raise ValueError("v2 requires n >= 1")
    return (n & -n).bit_length() - 1


@dataclass(frozen=True)
class FermatNumber:
    """2**(2**m) + 1; prime exactly for m in 0..4 among all m verified (m <= 32)."""

    m: int

    def __post_init__(self):
        if not 0 <= self.m <= 32:
            raise ValueError("Fermat index out of the verified range 0..32")

    @property
    def value(self) -> int:
        return (1 << (1 << self.m)) + 1

    @property
    def is_prime(self) -> bool:
        return self.m <= 4
