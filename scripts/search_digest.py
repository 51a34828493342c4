"""Digest of pair-witness search output, for showing that a change to the
presieve or the scan keeps every answer.

    PYTHONPATH=src python scripts/search_digest.py

Prints one sha256 over one line per search, `task|r|candidates_tested`, for
the witness-search pool (perfbench/inputs.witness_pool_tasks: the Fermat
pair task a = F_m - 1, b = F_m, even r, from 10^D + offset) and the five C8
searches (the same tasks from 10^100, below 10^100 + 10^6). The candidate count
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
from totient_forge.search import PairSearchTask, fermat_pair_task, search_pair_r  # noqa: E402


def tasks() -> list[PairSearchTask]:
    pool = [fermat_pair_task(m, start) for m, _, start in witness_pool_tasks()]
    c8 = [fermat_pair_task(m, 10**100, limit=10**100 + 10**6) for m in range(5)]
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
