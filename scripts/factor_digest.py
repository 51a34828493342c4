"""Digest of `factorize` output, for showing that a change to factoring keeps
every factorization.

    PYTHONPATH=src python scripts/factor_digest.py

Prints one sha256 over one line `str(factorize(n))` per n, for:

- every n <= 2 * 10**5, most of them below 1009**2, where the
  smallest-prime-factor table is walked;
- the 650 pool k >= 10**6 of the solve sweep (perfbench/inputs.solve_ks),
  which take the trial-division path (10**6..10**9) or the Pollard-rho path
  (10**12..10**18);
- 300 seeded products of two primes in (10**4, 10**9), which pass the trial
  division untouched and are split by Pollard rho.

Run it on two checkouts and compare. It takes a few seconds and is kept out
of the test suite.
"""

from __future__ import annotations

import hashlib
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.inputs import solve_ks  # noqa: E402
from totient_forge.arith import factorize  # noqa: E402
from totient_forge.primality import is_prime  # noqa: E402

SEED = 20211011


def _prime_in(rng: random.Random, lo: int, hi: int) -> int:
    """The first prime at or after a seeded start in (lo, hi); a prime gap
    below 10**9 is under 300, so callers keep hi that far below their bound."""
    p = rng.randrange(lo + 1, hi)
    while not is_prime(p):
        p += 1
    return p


def main() -> int:
    values = list(range(1, 2 * 10**5 + 1))
    values.extend(sorted(k for k in set(solve_ks(0)) if k >= 10**6))
    rng = random.Random(SEED)
    values.extend(_prime_in(rng, 10**4, 10**9 - 10**3) * _prime_in(rng, 10**4, 10**9 - 10**3)
                  for _ in range(300))
    h = hashlib.sha256()
    for n in values:
        h.update(f"{factorize(n)}\n".encode())
    print(f"factorize: {len(values)} values, sha256 {h.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
