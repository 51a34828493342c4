"""Greedy generation of the prime sequences used by the even-k constructions.

Two rule families exist. The Hasanalizade rules admit a prime p when

    (p - 2) | product(earlier terms)   and   rad(p - 1) | rad(2 * product),

the doubling rules ("new" variants) admit p = 2a + 1 when

    rad(a) | rad(product)   and   (a + 1) | product.

Each variant starts from a forced prefix, exempt from the rules (branch
variants deliberately reorder small primes), and then greedily appends the
smallest qualifying prime, strictly increasing among generated terms.
Each variant has one bound, at which `solve` and the claims generate it; a
larger bound only appends terms (`solve` reads newbranch7 further, up to its
reach, when every term divides k). Every variant generates at its bound in
milliseconds, so a sequence is generated once per process and memoized,
never stored on disk.

The product is squarefree, so each qualifying p is d + 2 or 2d - 1 for
exactly one divisor d of it: generation walks the product's sorted divisors,
not the primes below the bound, and extends them by d * q for each new term q.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .arith import Factorization, iter_divisors, star_divides
from .primality import is_prime

__all__ = [
    "MAX_BOUND",
    "SequenceVariant",
    "PrimeSequence",
    "generate_sequence",
    "sequence_product_magnitude",
    "validate_sequence",
]

# the largest bound with isqrt(bound) <= 10**8; the capped divisor lists of
# the long branch sequences grow with the bound
MAX_BOUND = (10**8 + 1) ** 2 - 1


class SequenceVariant(Enum):
    """A variant, with its forced prefix, its bound and its reach (the
    largest bound `solve` reads it at) as attributes."""

    HASANALIZADE = ("hasanalizade", (3,), 2 * 10**5)
    NEW_BASE = ("newbase", (2,), 10**8)
    # bound chosen so the product clears 10^310; at a bound of 12011
    # exactly, the product has decimal exponent 309. The reach is the bound
    # but here: newbranch7 is the only variant that gains terms past its bound
    NEW_BRANCH7 = ("newbranch7", (2, 3, 5, 11, 7), 13_000, 13 * 10**7)
    NEW_BRANCH13_23 = ("newbranch13_23", (2, 3, 5, 11, 13, 23), 20_000_000)

    def __new__(cls, value: str, prefix: tuple[int, ...], bound: int, reach: int | None = None):
        member = object.__new__(cls)
        member._value_ = value
        member.prefix = prefix
        member.bound = bound
        member.reach = bound if reach is None else reach
        return member

    @property
    def uses_aux(self) -> bool:
        return self is not SequenceVariant.HASANALIZADE


@dataclass(frozen=True)
class PrimeSequence:
    """A generated sequence: its variant, full term list and search bound."""

    variant: SequenceVariant
    terms: tuple[int, ...]
    search_bound: int

    @property
    def prefix(self) -> tuple[int, ...]:
        return self.variant.prefix

    @property
    def product(self) -> int:
        return math.prod(self.terms)

    @property
    def aux(self) -> tuple[int, ...]:
        """The a_i of the doubling variants, parallel to terms: (p-1)/2 for
        odd terms and 0 as a placeholder for the initial 2. Empty otherwise."""
        if not self.variant.uses_aux:
            return ()
        return tuple((p - 1) // 2 if p % 2 else 0 for p in self.terms)


def _hasanalizade_ok(p: int, product: int) -> bool:
    return p > 2 and product % (p - 2) == 0 and star_divides(p - 1, 2 * product)


def _doubling_ok(p: int, product: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    a = (p - 1) // 2
    return product % (a + 1) == 0 and star_divides(a, product)


def _rule(variant: SequenceVariant):
    return _hasanalizade_ok if variant is SequenceVariant.HASANALIZADE else _doubling_ok


def generate_sequence(
    variant: SequenceVariant,
    bound: int | None = None,
    cache_dir: Path | str | None = None,
) -> PrimeSequence:
    """The variant's sequence up to `bound` (default: the variant's bound),
    generated once per process.

    `cache_dir` is unused: sequences are memoized in memory, never stored.
    """
    return _generate(variant, variant.bound if bound is None else bound)


@functools.cache  # an exception is not cached: a rejected bound raises every time
def _generate(variant: SequenceVariant, bound: int) -> PrimeSequence:
    if bound < max(variant.prefix):
        raise ValueError("bound must cover the forced prefix")
    if bound > MAX_BOUND:
        raise ValueError(f"bound must be at most {MAX_BOUND}, got {bound}")
    rule = _rule(variant)
    # p = scale*d + offset for a divisor d of the product; p increases with d
    scale, offset = (1, 2) if variant is SequenceVariant.HASANALIZADE else (2, -1)
    cap = (bound - offset) // scale
    terms = list(variant.prefix)
    seen = set(terms)
    product = math.prod(terms)
    divisors = iter_divisors(Factorization.from_pairs((p, 1) for p in terms), cap)
    last_generated = 1
    while True:
        for d in divisors[bisect_right(divisors, (last_generated - offset) // scale):]:
            p = scale * d + offset
            if p not in seen and is_prime(p) and rule(p, product):
                break
        else:
            break
        terms.append(p)
        seen.add(p)
        product *= p
        last_generated = p
        multiples = [d * p for d in divisors[: bisect_right(divisors, cap // p)]]
        divisors = sorted(divisors + multiples)
    return PrimeSequence(variant, tuple(terms), bound)


def sequence_product_magnitude(seq: PrimeSequence) -> tuple[float, int]:
    """The exact product as (mantissa, decimal exponent), mantissa in [1, 10)."""
    if not seq.terms:
        raise ValueError("empty sequence")
    digits = str(seq.product)
    exponent = len(digits) - 1
    mantissa = float(digits[0] + "." + (digits[1:16] or "0"))
    return mantissa, exponent


def validate_sequence(seq: PrimeSequence) -> None:
    """Re-check every invariant of a generated sequence; raise on violation."""
    if tuple(seq.terms[: len(seq.prefix)]) != seq.prefix:
        raise ValueError("sequence does not start with its forced prefix")
    if len(set(seq.terms)) != len(seq.terms):
        raise ValueError("repeated term")
    rule = _rule(seq.variant)
    product = 1
    generated_prev = 1
    for i, p in enumerate(seq.terms):
        if not is_prime(p):
            raise ValueError(f"term {p} is not prime")
        if p > seq.search_bound:
            raise ValueError(f"term {p} beyond the search bound")
        if i >= len(seq.prefix):
            if p <= generated_prev:
                raise ValueError("generated terms must increase")
            if not rule(p, product):
                raise ValueError(f"term {p} violates the generation rules")
            generated_prev = p
        product *= p
