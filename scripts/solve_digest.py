"""Digests of `solve` output, for showing that a refactor keeps every answer.

    PYTHONPATH=src python scripts/solve_digest.py

Prints four sha256 digests, each over one line per solution,
`serialize_solution(s) + "|" + str(s.nk_factorization)`:

- sweep: solve(k, M, with_witness_search=w) for k in range(1, 4001) and the
  solve-sweep pool (perfbench/inputs.solve_ks), M in {1, 2}, w in
  {False, True};
- branch: solve(k, 2) for every multiple of 330 below 3 * 10**6, the k the
  even-k dispatch spreads over all five of its branches;
- ladder: solve(k, 2, k_fact) for k the product of every term of newbranch7
  up to 10**4, 13,000 and 10**6 and of newbranch13_23 up to 10**4, 10**6
  and 2 * 10**7, the k whose branch sequence runs out of terms coprime to k
  at some bound of the retry ladder;
- witness: solve(k, 1, k_fact) for even k and solve(k, 2, k_fact) for odd
  k, where k is a product of Fermat primes F_m and the prime forms
  (F_m - 1)*r + 1 or F_m*r + 1 of F_m's first pair witnesses r, so that
  0 to 4 leading witnesses divide k (with both forms of the first witness,
  the even k is scripts/search_digest.py's avoid-list k); run in that order
  and then in reverse, so the witness `solve` picks must not depend on the
  ones it found before.

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
from totient_forge.search import FERMAT_PRIMES, fermat_pair_task, search_pair_r  # noqa: E402
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


def witness_calls() -> list:
    """solve calls whose k exclude leading Fermat pair witnesses."""
    forms = {}  # m -> [(p1, p2)] of F_m's first four witnesses
    for m, fermat in enumerate(FERMAT_PRIMES):
        r, forms[m] = 0, []
        for _ in range(4):
            r = search_pair_r(fermat_pair_task(m, r + 1), use_cache=False).r
            forms[m].append(((fermat - 1) * r + 1, fermat * r + 1))
    products = []
    for m, fermat in enumerate(FERMAT_PRIMES):
        (a1, b1), (a2, b2), (a3, b3), (_, b4) = forms[m]
        for excluded in ((), (a1,), (b1,), (a1, b1), (b2,), (a1, b2), (b1, a2, b3),
                         (a1, b2, a3, b4)):
            products.append((fermat, *excluded))
    # every F_m, each with the first form of its first witness
    products.append(tuple(p for m, fermat in enumerate(FERMAT_PRIMES)
                          for p in (fermat, forms[m][0][0])))
    calls = []
    for primes in products:
        odd = Factorization.from_pairs((p, 1) for p in primes)
        calls += [(odd.value, 2, False, odd), (2 * odd.value, 1, False, odd.times_prime(2))]
    return calls + calls[::-1]


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
    named = (("sweep", sweep), ("branch", branch), ("ladder", ladder), ("witness", witness_calls()))
    for name, calls in named:
        lines, hexdigest = digest(calls)
        print(f"{name}: {lines} lines, sha256 {hexdigest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
