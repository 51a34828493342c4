"""Closure check of the two complete sequence variants, kept out of the test
suite (about 10 s).

    PYTHONPATH=src python scripts/sequence_closure.py

The product of a sequence's terms is squarefree, and a term p past the last
one must be d + 2 (Hasanalizade) or 2d - 1 (doubling rules) for a divisor d
of the product of the terms before it. So when no divisor of the full
product gives a prime p past the last term that passes the variant's rule,
the sequence is complete: no bound, however large, adds a term.

Checks every divisor of the Hasanalizade product (21 terms, 2,097,152
divisors) and of the newbase product (13 terms, 8,192 divisors), each
generated at its variant's bound. Prints one line per variant and exits 1
if any divisor gives a new term.
"""

from __future__ import annotations

import sys
import time

from totient_forge.arith import Factorization, iter_divisors
from totient_forge.primality import is_prime
from totient_forge.sequences import SequenceVariant, _rule, generate_sequence


def _divisors(primes: tuple[int, ...]):
    """Every divisor of the product of distinct primes, unordered, without
    holding all of them: products of the divisors of the two halves."""
    half = len(primes) // 2
    low, high = (iter_divisors(Factorization.from_pairs((p, 1) for p in part))
                 for part in (primes[:half], primes[half:]))
    for x in high:
        for y in low:
            yield x * y


def new_terms(variant: SequenceVariant) -> tuple[int, list[int]]:
    """(divisors checked, the terms past the last one that any gives)."""
    seq = generate_sequence(variant)
    product, last = seq.product, seq.terms[-1]
    rule = _rule(variant)
    scale, offset = (1, 2) if variant is SequenceVariant.HASANALIZADE else (2, -1)
    checked, found = 0, []
    for d in _divisors(seq.terms):
        checked += 1
        p = scale * d + offset
        if p > last and rule(p, product) and is_prime(p):
            found.append(p)
    return checked, sorted(found)


def main() -> int:
    complete = True
    for variant in (SequenceVariant.HASANALIZADE, SequenceVariant.NEW_BASE):
        started = time.perf_counter()
        checked, found = new_terms(variant)
        elapsed = time.perf_counter() - started
        print(f"{variant.value}: {checked} divisors in {elapsed:.2f} s, "
              f"{'new terms ' + str(found) if found else 'complete'}")
        complete = complete and not found
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
