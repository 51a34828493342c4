"""Digests of `solve` output, for showing that a refactor keeps every answer.

    PYTHONPATH=src python scripts/solve_digest.py

Prints three sha256 digests, each over one line per solution,
`serialize_solution(s) + "|" + str(s.nk_factorization)`:

- sweep: solve(k, M, with_witness_search=w) for k in range(1, 4001) and the
  solve-sweep pool (perfbench/inputs.solve_ks), M in {1, 2}, w in
  {False, True};
- branch: solve(k, 2) for every multiple of 330 below 3 * 10**6, the k the
  even-k dispatch spreads over all five of its branches;
- ladder: solve(k, 2, k_fact) for k the product of every term of newbranch7
  up to 10**4, 13,000 and 10**6 and of newbranch13_23 up to 10**4, 10**6
  and 2 * 10**7, the k whose branch sequence runs out of terms coprime to k
  at some bound of the retry ladder.

Run it on two checkouts: equal digests mean equal solutions, methods,
witnesses and factorizations. It takes a few seconds, writes no cache
files, and is kept out of the test suite.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.inputs import solve_ks  # noqa: E402
from totient_forge.arith import Factorization  # noqa: E402
from totient_forge.constructions import serialize_solution, solve  # noqa: E402
from totient_forge.sequences import SequenceVariant, generate_sequence  # noqa: E402


def digest(calls) -> tuple[int, str]:
    """(lines, sha256) over every solution of solve(*call) in call order."""
    h = hashlib.sha256()
    lines = 0
    for k, M, w, k_fact in calls:
        for s in solve(k, M, k_fact=k_fact, with_witness_search=w):
            h.update(f"{serialize_solution(s)}|{s.nk_factorization}\n".encode())
            lines += 1
    return lines, h.hexdigest()


def main() -> int:
    ks = sorted(set(range(1, 4001)) | set(solve_ks(0)))
    sweep = [(k, M, w, None) for k in ks for M in (1, 2) for w in (False, True)]
    branch = [(k, 2, False, None) for k in range(330, 3 * 10**6, 330)]
    ladder = []
    for variant, bounds in ((SequenceVariant.NEW_BRANCH7, (10**4, 13_000, 10**6)),
                            (SequenceVariant.NEW_BRANCH13_23, (10**4, 10**6, 2 * 10**7))):
        for bound in bounds:
            terms = generate_sequence(variant, bound).terms
            k_fact = Factorization.from_pairs((p, 1) for p in terms)
            ladder.append((k_fact.value, 2, False, k_fact))
    for name, calls in (("sweep", sweep), ("branch", branch), ("ladder", ladder)):
        lines, hexdigest = digest(calls)
        print(f"{name}: {lines} lines, sha256 {hexdigest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
