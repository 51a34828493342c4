"""Exact integer arithmetic: factorization, totients, star-divisibility.

All values are plain Python ints (arbitrary precision). Factorizations are
certified: every stored prime passes the probable-prime test, and huge inputs
must arrive with a caller-supplied factorization instead of being factored
blind. Blind factoring is capped at 10**18 (< 2**63, so numpy int64 trial
division by the primes <= 10**4 is exact); below 1009**2 it walks
primality's smallest-prime-factor table, and Pollard rho splits what the
trial division leaves.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from math import gcd
from typing import NamedTuple

import numpy as np

from .primality import SPF_LIMIT, is_prime, primes_upto, spf_table

__all__ = [
    "DEFAULT_FACTORING_BOUND",
    "FactoringBoundExceeded",
    "Factorization",
    "factorize",
    "iter_divisors",
    "star_divides",
    "totient",
    "v2",
]

DEFAULT_FACTORING_BOUND = 10**18
# a cofactor with no prime factor <= _FIRST_PASS_LIMIT is prime below its square
_FIRST_PASS_LIMIT = 10**4


class FactoringBoundExceeded(ValueError):
    """Raised when blind factoring is requested above DEFAULT_FACTORING_BOUND."""


class Factorization(NamedTuple):
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

    def times(self, other: "Factorization") -> "Factorization":
        mine, theirs = self.factors, other.factors
        merged = []
        i = j = 0
        while i < len(mine) and j < len(theirs):
            p, e = mine[i]
            q, f = theirs[j]
            if p < q:
                merged.append(mine[i])
                i += 1
            elif q < p:
                merged.append(theirs[j])
                j += 1
            else:
                merged.append((p, e + f))
                i += 1
                j += 1
        return Factorization(tuple(merged) + mine[i:] + theirs[j:], self.value * other.value)

    def times_prime(self, p: int, e: int = 1) -> "Factorization":
        if e < 0:
            raise ValueError("negative exponent")
        if e == 0:
            return self
        factors = self.factors
        i = bisect_left(factors, (p,))  # (p,) sorts before every (p, e)
        if i < len(factors) and factors[i][0] == p:
            factors = factors[:i] + ((p, factors[i][1] + e),) + factors[i + 1 :]
        else:
            factors = factors[:i] + ((p, e),) + factors[i:]
        return Factorization(factors, self.value * p**e)

    def div_exact(self, d: int) -> "Factorization":
        """Factorization of value // d; d must divide the value exactly."""
        if d == 1:
            return self
        if d < 1 or self.value % d:
            raise ValueError(f"{d} does not divide {self.value}")
        quotient = []
        rem = d
        for p, e in self.factors:
            while rem % p == 0:  # at most e times, since d divides the value
                rem //= p
                e -= 1
            if e:
                quotient.append((p, e))
        return Factorization(tuple(quotient), self.value // d)

    def validate(self) -> None:
        """Check the structural invariants and re-test every listed prime."""
        value = 1
        prev = 1
        for p, e in self.factors:
            if p <= prev or e < 1:
                raise ValueError("factors must have ascending primes, exponents >= 1")
            prev = p
            value *= p**e
            if not is_prime(p):
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
        f.validate()
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
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


def _divide_out(rem: int, primes: np.ndarray, exps: dict[int, int]) -> int:
    """Divide every prime of `primes` out of rem < 2**63; record them in exps."""
    for p in primes[rem % primes == 0].tolist():
        e = 0
        while rem % p == 0:
            rem //= p
            e += 1
        exps[p] = e
    return rem


def _factor_into(n: int, out: dict[int, int]) -> None:
    """Add the primes of n > 1, which has none <= 10**4, to out.

    Below 10**8 such an n is prime; above, it is tested once.
    """
    if n < _FIRST_PASS_LIMIT**2 or is_prime(n):
        out[n] = out.get(n, 0) + 1
        return
    # seeded by n, so the split is reproducible
    d = _pollard_brent(n, random.Random(n))
    _factor_into(d, out)
    _factor_into(n // d, out)


def factorize(n: int, hint: Factorization | None = None) -> Factorization:
    """Exact factorization of n >= 1.

    Below 1009**2, one ascending walk through the smallest-prime-factor
    table, which lists each prime with its exponent as it meets it. Above,
    one vectorised division by the primes <= 10**4; a cofactor left over has
    no prime factor below 10**4, so it is prime below 10**8, else tested for
    primality once, and a composite one is split by Pollard rho (Brent). Above
    DEFAULT_FACTORING_BOUND a caller-supplied factorization is mandatory and
    is verified before being trusted.
    """
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    if hint is not None:
        if hint.value != n:
            raise ValueError("factorization hint does not match the value")
        hint.validate()
        return hint
    if n > DEFAULT_FACTORING_BOUND:
        raise FactoringBoundExceeded(
            f"{n} exceeds the factoring bound {DEFAULT_FACTORING_BOUND}; "
            "pass a factorization hint"
        )
    if n < SPF_LIMIT:
        # the smallest prime factor comes first, so the walk meets the primes
        # in ascending order
        spf = spf_table()
        factors = []
        value = 1
        while n > 1:
            p = spf[n] or n
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors.append((p, e))
            value *= p**e
        return Factorization(tuple(factors), value)
    exps: dict[int, int] = {}
    rem = _divide_out(n, primes_upto(_FIRST_PASS_LIMIT), exps)
    if rem > 1:
        _factor_into(rem, exps)
    return Factorization.from_pairs(exps.items())


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

