"""Digest of pair-witness search output, for showing that a change to the
presieve or the scan keeps every answer.

    PYTHONPATH=src python scripts/search_digest.py

Prints one sha256 over one line per search, `task|r|candidates_tested`, for
the witness-search pool (perfbench/inputs.witness_pool_tasks: a = 2^(2^m),
b = a + 1, even r from 10^D + offset) and the five C8 searches (a = F_m - 1,
b = F_m, even r from 10^100 below 10^100 + 10^6). The candidate count
changes when the presieve clears a different set, so equal digests mean
equal masks on every block these searches scan, not only equal witnesses.

Run it on two checkouts and compare. It takes a few seconds, runs without a
cache and is kept out of the test suite.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.inputs import witness_pool_tasks  # noqa: E402
from totient_forge.search import PairSearchTask, Parity, search_pair_r  # noqa: E402


def tasks() -> list[PairSearchTask]:
    pool = [
        PairSearchTask(a=1 << (1 << m), b=(1 << (1 << m)) + 1, start=start, parity=Parity.EVEN_ONLY)
        for m, _, start in witness_pool_tasks()
    ]
    c8 = [
        PairSearchTask(
            a=1 << (1 << m), b=(1 << (1 << m)) + 1, start=10**100,
            parity=Parity.EVEN_ONLY, limit=10**100 + 10**6,
        )
        for m in range(5)
    ]
    return pool + c8


def main() -> int:
    h = hashlib.sha256()
    searches = tasks()
    for task in searches:
        result = search_pair_r(task, use_cache=False)
        line = f"{task.a}|{task.b}|{task.start}|{task.parity.value}|{task.limit}"
        h.update(f"{line}|{result.r}|{result.candidates_tested}\n".encode())
    print(f"search: {len(searches)} lines, sha256 {h.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
