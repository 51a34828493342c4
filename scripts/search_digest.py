"""Digest of pair-witness search output, for showing that a change to the
presieve or the scan keeps every answer.

    PYTHONPATH=src python scripts/search_digest.py

Prints two sha256 digests, each over one line per search,
`task|r|candidates_tested`:

- the witness-search pool (perfbench/inputs.witness_pool_tasks: the Fermat
  pair task a = F_m - 1, b = F_m, even r, from 10^D + offset) and the five C8
  searches (the same tasks from 10^100, below 10^100 + 10^6);
- searches whose forms stay below 2**64: blocks below 1009**2 (table
  lookups only), presieved blocks whose forms can equal their own sieving
  prime, and presieved blocks in [1009**2, 2**64).

The candidate count changes when the presieve clears a different set, so
equal digests mean equal masks on every block these searches scan, not only
equal witnesses.

Both digests come from uncached searches, run twice: first on an empty
presieve memo (`primality._form_constants`, each multiplier's constants
mod the sieving primes), then on the memo that pass filled. The script exits
1 unless both passes give the same two digests: a memo hit must strike what
its miss struck. Then both task lists run twice on one fresh temporary
cache, a pass of misses and a pass of hits, and the script exits 1 unless
each pass gives the same two digests: a cache hit must return what its miss
returned, `candidates_tested` included.

Run it on two checkouts and compare. It takes a few seconds and is kept out
of the test suite.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.inputs import witness_pool_tasks  # noqa: E402
from totient_forge.primality import _form_constants  # noqa: E402
from totient_forge.search import (  # noqa: E402
    PairSearchTask,
    Parity,
    fermat_pair_task,
    search_pair_r,
)

def tasks() -> list[PairSearchTask]:
    pool = [fermat_pair_task(m, start) for m, _, start in witness_pool_tasks()]
    c8 = [fermat_pair_task(m, 10**100, limit=10**100 + 10**6) for m in range(5)]
    return pool + c8


def small_tasks() -> list[PairSearchTask]:
    """Searches whose forms stay below 2**64."""
    below_table = [PairSearchTask(92, 211), PairSearchTask(1, 10**4)]
    own_prime = [PairSearchTask(1, 10**5), PairSearchTask(2, 10**6)]
    presieved = [fermat_pair_task(4, 10**6),
                 PairSearchTask(4, 5, start=10**15, parity=Parity.EVEN_ONLY)]
    presieved += [fermat_pair_task(m, 10**e) for m in range(5) for e in (10, 14)]
    return below_table + own_prime + presieved


def digest(searches: list[PairSearchTask], cache_dir: str | None = None) -> str:
    """The digest of the searches, run on `cache_dir`, or uncached without one."""
    h = hashlib.sha256()
    for task in searches:
        result = search_pair_r(task, cache_dir=cache_dir, use_cache=cache_dir is not None)
        line = f"{task.a}|{task.b}|{task.start}|{task.parity.value}|{task.limit}"
        h.update(f"{line}|{result.r}|{result.candidates_tested}\n".encode())
    return h.hexdigest()


def main() -> int:
    searches, small = tasks(), small_tasks()
    _form_constants.cache_clear()
    uncached = [digest(searches), digest(small)]
    print(f"search: {len(searches)} lines, sha256 {uncached[0]}")
    print(f"search below 2**64: {len(small)} lines, sha256 {uncached[1]}")
    warm = [digest(searches), digest(small)]
    if warm != uncached:
        print(f"error: the warm presieve memo gives other digests: {warm}")
        return 1
    with tempfile.TemporaryDirectory() as cache:
        for label in ("miss", "hit"):
            cached = [digest(searches, cache), digest(small, cache)]
            if cached != uncached:
                print(f"error: the cached {label} pass gives other digests: {cached}")
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
