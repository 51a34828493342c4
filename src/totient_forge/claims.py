"""Claim verification suite (C1..C8).

Each claim re-derives one bundled numerical statement from scratch and
compares against the frozen expectation. One table, _CLAIMS, gives each
claim's level, anchor and runner: quick = C1..C6, full adds the C7
enumeration sweep, extreme adds the C8 witness re-discovery. run_claims
runs a level's claims in a pool of forked processes and reports them in
table order.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Callable, NamedTuple

from .arith import v2
from .constructions import MIN_SOLUTIONS, solve, verify_solution
from .search import PAIR_WITNESS_TABLE, fermat_pair_task, search_pair_r, verify_r_table
from .sequences import SequenceVariant, generate_sequence, sequence_product_magnitude
from .sieve_enum import enumerate_solutions, solution_count_table

__all__ = [
    "ClaimReport",
    "run_claims",
    "CLAIM_IDS",
    "LEVELS",
    "EXPECTED_HASANALIZADE",
    "EXPECTED_NEW_BASE",
    "EXPECTED_NEW_BRANCH13_23",
    "EXPECTED_NEW_BRANCH7_PREFIX",
]

# fmt: off
EXPECTED_HASANALIZADE = (
    3, 5, 7, 17, 19, 37, 97, 113, 257, 401, 487, 631, 971, 1297, 1801,
    19457, 22051, 28817, 65537, 157303, 160001,
)

EXPECTED_NEW_BASE = (2, 3, 5, 11, 19, 37, 73, 109, 1459, 2179, 2917, 4357, 8713)

EXPECTED_NEW_BRANCH13_23 = (
    2, 3, 5, 11, 13, 23, 19, 37, 73, 109, 131, 229, 457, 571, 1459, 1481,
    2179, 2621, 2917, 2963, 4357, 8713, 49921, 1318901, 3391489, 6782977,
    13565953,
)

EXPECTED_NEW_BRANCH7_PREFIX = (
    2, 3, 5, 11, 7, 13, 19, 29, 37, 41, 43, 59, 73, 83, 109, 113, 131, 163,
    173, 181, 227, 257, 331, 347, 353, 379, 419, 491, 523, 571, 601, 653,
    661, 677,
)
# fmt: on

NEW_BRANCH7_MEMBER = 12011
_C6_K_MAX = 2000

_REPRO = "reproduce: totient-forge verify-claims --level {level}"


@dataclass(frozen=True)
class ClaimReport:
    claim_id: str
    anchor: str
    status: str  # Pass | Fail | Skipped
    evidence: str
    runtime: float

    def csv_row(self) -> str:
        evidence = self.evidence.replace('"', "'")
        return f'{self.claim_id},{self.status},{self.runtime:.2f},"{self.anchor}","{evidence}"'


def _report(claim_id: str, ok: bool, evidence: str, started: float) -> ClaimReport:
    claim = _CLAIMS[claim_id]
    status = "Pass" if ok else "Fail"
    if not ok:
        evidence = f"{evidence}; {_REPRO.format(level=claim.level)}"
    return ClaimReport(claim_id, claim.anchor, status, evidence, time.perf_counter() - started)


def claim_c1(cache_dir: Path) -> ClaimReport:
    t0 = time.perf_counter()
    rows = verify_r_table()
    bad = [row.m for row in rows if not row.ok]
    evidence = "; ".join(
        f"m={row.m}: {row.p1_verdict.verdict.value}/{row.p2_verdict.verdict.value}" for row in rows
    )
    return _report("C1", not bad, evidence, t0)


def claim_c2(cache_dir: Path) -> ClaimReport:
    t0 = time.perf_counter()
    seq = generate_sequence(SequenceVariant.HASANALIZADE)
    ok = seq.terms == EXPECTED_HASANALIZADE and seq.product > 4 * 10**58
    mant, exp = sequence_product_magnitude(seq)
    evidence = f"{len(seq.terms)} terms, last {seq.terms[-1]}, product {mant:.2f}e{exp}"
    if not ok and seq.terms == EXPECTED_HASANALIZADE:
        evidence += (
            "; list matches exactly, but the literal 'product > 4e58' cannot hold:"
            " the even-k coverage bound is 2*product = "
            f"{2 * seq.product:.2e}"
        )
    return _report("C2", ok, evidence, t0)


def claim_c3(cache_dir: Path) -> ClaimReport:
    t0 = time.perf_counter()
    seq = generate_sequence(SequenceVariant.NEW_BASE)
    mant, exp = sequence_product_magnitude(seq)
    ok = seq.terms == EXPECTED_NEW_BASE and exp == 26
    evidence = f"{len(seq.terms)} terms, last {seq.terms[-1]}, product {mant:.2f}e{exp}"
    return _report("C3", ok, evidence, t0)


def claim_c4(cache_dir: Path) -> ClaimReport:
    t0 = time.perf_counter()
    seq23 = generate_sequence(SequenceVariant.NEW_BRANCH13_23)
    mant23, exp23 = sequence_product_magnitude(seq23)
    seq7 = generate_sequence(SequenceVariant.NEW_BRANCH7)
    mant7, exp7 = sequence_product_magnitude(seq7)
    ok = (
        seq23.terms == EXPECTED_NEW_BRANCH13_23
        and exp23 == 83
        and seq7.terms[: len(EXPECTED_NEW_BRANCH7_PREFIX)] == EXPECTED_NEW_BRANCH7_PREFIX
        and NEW_BRANCH7_MEMBER in seq7.terms
        and exp7 >= 310
    )
    evidence = (
        f"13_23: {len(seq23.terms)} terms, product {mant23:.2f}e{exp23}; "
        f"7: {len(seq7.terms)} terms, product {mant7:.2f}e{exp7}"
    )
    if not ok and seq23.terms == EXPECTED_NEW_BRANCH13_23 and exp23 != 83:
        evidence += (
            "; the 27-term list matches exactly, but its exact product has"
            f" exponent {exp23}, so the stated exponent 83 cannot hold"
        )
    return _report("C4", ok, evidence, t0)


def claim_c5(cache_dir: Path) -> ClaimReport:
    t0 = time.perf_counter()
    large = enumerate_solutions(6, 2, 10**7).solutions
    small = tuple(n for n in large if n <= 10**6)
    ok = small == (4, 6, 7, 10) and large == (4, 6, 7, 10)
    evidence = f"10^6: {list(small)}; 10^7: {list(large)}"
    return _report("C5", ok, evidence, t0)


def claim_c6(cache_dir: Path) -> ClaimReport:
    t0 = time.perf_counter()
    failures = []
    for k in range(1, _C6_K_MAX + 1):
        m2 = solve(k, 2)
        needed = MIN_SOLUTIONS[(2, k % 2)]
        if len(m2) < needed:
            failures.append(f"k={k}, M=2: {len(m2)} < {needed}")
        if not all(verify_solution(s) for s in m2):
            failures.append(f"k={k}, M=2: verification failure")
        if k % 2 == 0:
            m1 = solve(k, 1)
            if len(m1) < MIN_SOLUTIONS[(1, 0)]:
                failures.append(f"k={k}, M=1: {len(m1)} < {MIN_SOLUTIONS[(1, 0)]}")
            vals = {v2(s.n) for s in m1}
            if len(vals) != len(m1):
                failures.append(f"k={k}, M=1: repeated 2-adic valuation")
            if not all(verify_solution(s) for s in m1):
                failures.append(f"k={k}, M=1: verification failure")
        if len(failures) > 4:
            break
    evidence = "; ".join(failures) if failures else f"all k <= {_C6_K_MAX} satisfied the minimum counts"
    return _report("C6", not failures, evidence, t0)


def claim_c7(cache_dir: Path) -> ClaimReport:
    t0 = time.perf_counter()
    table = solution_count_table(10**4, 2, 10**6)
    ok = table.min_count == 4 and table.min_achievers == (6,)
    evidence = f"min count {table.min_count} at k in {list(table.min_achievers)}"
    return _report("C7", ok, evidence, t0)


def claim_c8(cache_dir: Path) -> ClaimReport:
    t0 = time.perf_counter()
    notes = []
    ok = True
    for m, expected in sorted(PAIR_WITNESS_TABLE.items()):
        task = fermat_pair_task(m, 10**100, limit=10**100 + 10**6)
        result = search_pair_r(task, cache_dir=cache_dir)
        offset = result.r - 10**100
        if result.r == expected:
            notes.append(f"m={m}: r = 10^100 + {offset}")
        elif result.r < expected:
            notes.append(
                f"m={m}: FINDING: smaller witness 10^100 + {offset} precedes the bundled value"
            )
        else:
            ok = False
            notes.append(f"m={m}: search returned 10^100 + {offset}, bundled value missed")
    return _report("C8", ok, "; ".join(notes), t0)


class _Claim(NamedTuple):
    level: str  # the lowest level that runs the claim
    anchor: str
    run: Callable[[Path], ClaimReport]


# every claim, in run order; a level runs its own claims and those of the
# levels before it
_CLAIMS = {
    "C1": _Claim("quick", "bundled pair-witness table: both linear forms probable prime for m = 0..4", claim_c1),
    "C2": _Claim("quick", "Hasanalizade sequence to 2*10^5: 21 terms ending 157303, 160001; product > 4*10^58", claim_c2),
    "C3": _Claim("quick", "base doubling sequence to 10^8: 13 terms ending 8713; product of order 6*10^26", claim_c3),
    "C4": _Claim("quick", "branch sequences: 27 terms ending 13565953 (~2*10^83); 7-branch prefix, 12011, >= 10^310", claim_c4),
    "C5": _Claim("quick", "enumeration k=6, M=2: exactly {4, 6, 7, 10} up to 10^6 and nothing new up to 10^7", claim_c5),
    "C6": _Claim("quick", f"k <= {_C6_K_MAX}: >= 3 solutions (even, M=2), >= 5 (odd, M=2), 5 Fermat solutions with distinct v2 (even, M=1)", claim_c6),
    "C7": _Claim("full", "count table k <= 10^4, M=2, n <= 10^6: minimum 4, achieved only at k=6", claim_c7),
    "C8": _Claim("extreme", "witness search from 10^100 rediscovers the bundled r values (discrepancies reported)", claim_c8),
}

CLAIM_IDS = tuple(_CLAIMS)
LEVELS = tuple(dict.fromkeys(claim.level for claim in _CLAIMS.values()))


def _run_claim(claim_id: str, cache_dir: Path) -> ClaimReport:
    return _CLAIMS[claim_id].run(cache_dir)


def run_claims(level: str, cache_dir: Path) -> list[ClaimReport]:
    """Run the claims of `level` and return their reports in table order.

    The claims share no state but C8's pair-search cache, whose writes are
    atomic, so each runs in a pool of forked processes, min(usable CPUs,
    claims) of them. Workers receive claim ids and look up the runner in
    their forked copy of _CLAIMS. A runner's exception reaches the caller
    unchanged; a worker that dies raises
    concurrent.futures.process.BrokenProcessPool.
    """
    if level not in LEVELS:
        raise ValueError(f"level must be one of {sorted(LEVELS)}")
    # imported here: at module level they would slow every CLI start-up
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    reach = LEVELS.index(level)
    ids = [cid for cid, claim in _CLAIMS.items() if LEVELS.index(claim.level) <= reach]
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        cpus = os.cpu_count() or 1
    with ProcessPoolExecutor(min(cpus, len(ids)), mp_context=multiprocessing.get_context("fork")) as pool:
        return list(pool.map(_run_claim, ids, repeat(cache_dir)))
