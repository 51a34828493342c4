"""Count-table reach check, kept out of the test suite (minutes, ~1 GB).

    PYTHONPATH=src python scripts/count_reach.py K_MAX LIMIT [SEED]

Builds solution_count_table(K_MAX, 2, LIMIT) and prints its time, the
process's peak RSS, the number of (n, k) pairs and the minimum count with
the k that reach it. Then checks the table against exhaustive per-k
enumeration: k = 6 (whose solutions must be exactly 4, 6, 7, 10) and five
other k drawn with random.Random(SEED).
"""

from __future__ import annotations

import random
import resource
import sys
import time

from totient_forge.sieve_enum import enumerate_solutions, solution_count_table


def main(argv: list[str]) -> int:
    k_max, limit = int(argv[0]), int(argv[1])
    seed = int(argv[2]) if len(argv) > 2 else 0
    started = time.perf_counter()
    table = solution_count_table(k_max, 2, limit)
    elapsed = time.perf_counter() - started
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"k <= {k_max}, M=2, n <= {limit}: {elapsed:.1f} s, peak RSS {peak_mb:.0f} MB, "
          f"{sum(table.counts.values())} pairs, minimum {table.min_count} "
          f"at k in {list(table.min_achievers)}")
    ok = enumerate_solutions(6, 2, limit).solutions == (4, 6, 7, 10)
    print(f"k=6 by enumeration: {'exactly 4, 6, 7, 10' if ok else 'MISMATCH'}")
    for k in sorted(random.Random(seed).sample(range(1, k_max + 1), 5)):
        found = len(enumerate_solutions(k, 2, limit).solutions)
        ok &= found == table.counts[k]
        print(f"k={k}: table {table.counts[k]}, enumeration {found}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
