"""Digest of the totient sieve's output, for showing that a change to the
sieve kernel keeps every totient and every enumerated solution.

    PYTHONPATH=src python scripts/sieve_digest.py

Prints one sha256 digest per line, each over the int64 bytes of an array:

- `totients_upto(3*10**6)`, the dense table the count table starts from;
- `sieve_totient(10**12, 10**12 + 3*10**5)`, a window far from the origin,
  where the block phase of every prime power differs from the dense table's;
- `enumerate_solutions(k, M, 3*10**5)` for k in {1, 6, 97, 200, 40000,
  70000} and M in {1, 2}: k below and above one 2**16-value segment, so both
  the overlapping-window path and the two-window path run.

Run it on two checkouts and compare. It takes a few seconds and is kept out
of the test suite.
"""

from __future__ import annotations

import hashlib

import numpy as np

from totient_forge.sieve_enum import enumerate_solutions, sieve_totient, totients_upto


def _digest(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=np.int64).tobytes()).hexdigest()


def main() -> int:
    print(f"totients_upto(3e6)      {_digest(totients_upto(3 * 10**6))}")
    lo = 10**12
    print(f"sieve_totient(1e12, +3e5) {_digest(sieve_totient(lo, lo + 3 * 10**5).values)}")
    for k in (1, 6, 97, 200, 40000, 70000):
        for M in (1, 2):
            report = enumerate_solutions(k, M, 3 * 10**5)
            solutions = np.array(report.solutions, dtype=np.int64)
            print(f"enumerate k={k} M={M} ({solutions.size} solutions) {_digest(solutions)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
