"""Digest of primality verdicts, for showing that a change to the test keeps
every answer.

    PYTHONPATH=src python scripts/primality_digest.py

Prints one sha256 over one line per value, `n|verdict|witness` from
`is_probable_prime(n)`, for a seeded sample: 50,000 values in each of
[0, 1009**2), [1009**2, 2**64) and [2**64, 2**340), half of the upper two
drawn coprime to the primes <= 997 so that `confirm` runs on them, plus known
pseudoprimes and the edges of each stage.

Exits 1 if `is_prime(n)` differs from `is_probable_prime(n).is_prime` on any
value, naming the first few. Run it on two checkouts and compare: equal
digests mean equal verdicts and witnesses. It takes about half a minute and is
kept out of the test suite.
"""

from __future__ import annotations

import hashlib
import math
import random
import sys

from totient_forge.primality import (
    DETERMINISTIC_LIMIT,
    SPF_LIMIT,
    is_prime,
    is_probable_prime,
    primes_upto,
)

SEED = 2026
PER_RANGE = 50_000
# strong base-2 pseudoprimes, strong pseudoprimes to bases 2..31 (the last
# with smallest factor 151), and strong Lucas pseudoprimes
PSEUDOPRIMES = (2047, 3277, 4033, 4681, 8321, 15841, 29341, 2152302898747,
                3474749660383, 341550071728321, 3825123056546413051, 3215031751,
                5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199)
EDGES = (0, 1, 2, 3, 4, SPF_LIMIT - 1, SPF_LIMIT, SPF_LIMIT + 1,
         DETERMINISTIC_LIMIT - 1, DETERMINISTIC_LIMIT, DETERMINISTIC_LIMIT + 1)


def sample() -> list[int]:
    rng = random.Random(SEED)
    trial_product = math.prod(primes_upto(1000).tolist())
    values = [rng.randrange(SPF_LIMIT) for _ in range(PER_RANGE)]
    for lo, hi in ((SPF_LIMIT, DETERMINISTIC_LIMIT), (DETERMINISTIC_LIMIT, 2**340)):
        drawn = [rng.randrange(lo, hi) for _ in range(PER_RANGE // 2)]
        while len(drawn) < PER_RANGE:
            n = rng.randrange(lo, hi)
            if math.gcd(n, trial_product) == 1:
                drawn.append(n)
        values += drawn
    return values + list(PSEUDOPRIMES) + list(EDGES)


def main() -> int:
    values = sample()
    h = hashlib.sha256()
    mismatched = []
    for n in values:
        v = is_probable_prime(n)
        h.update(f"{n}|{v.verdict.value}|{v.witness}\n".encode())
        if is_prime(n) != v.is_prime:
            mismatched.append(n)
    print(f"{len(values)} values, sha256 {h.hexdigest()}")
    if mismatched:
        print(f"is_prime differs from is_probable_prime on {len(mismatched)} values: "
              f"{mismatched[:5]}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
