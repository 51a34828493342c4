"""Seeded workload inputs and the output digests shared by the benchmark and
the reference generator."""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# The pools below are drawn once from POOL_SEED; a run's seed sets the order
# in which their tasks are run. Per-task cost is heavy-tailed (one solve call
# with k near 10^18 can cost 40 ms, 1.6% of a sweep), so k values or search
# starts drawn from the run's seed would make the work of a run vary.
POOL_SEED = 20211011

# every k of the C6 range plus a pool of samples that send factorize down its
# trial-division path (10^6..10^9) and its Pollard-rho path (10^12..10^18)
SOLVE_FIXED_K_MAX = 2000
SOLVE_SAMPLES_PER_RANGE = 325
SOLVE_SAMPLE_RANGES = ((10**6, 10**9), (10**12, 10**18))
SOLVE_M_VALUES = (1, 2)

# witness-search pool: a = 2^(2^m), b = a + 1, even r from 10^D + offset
WITNESS_DIGITS = (40, 60, 80, 100)
WITNESS_OFFSET_RANGE = 10**6


def solve_ks(seed: int) -> list[int]:
    """The k values of one solve sweep, in the seed's sweep order."""
    pool = random.Random(POOL_SEED)
    ks = list(range(1, SOLVE_FIXED_K_MAX + 1))
    for lo, hi in SOLVE_SAMPLE_RANGES:
        ks.extend(pool.randrange(lo, hi) for _ in range(SOLVE_SAMPLES_PER_RANGE))
    random.Random(seed).shuffle(ks)
    return ks


def solution_digest(solutions) -> str:
    """Digest of the sorted (n, method) pairs of one solve call."""
    pairs = sorted((s.n, s.method) for s in solutions)
    text = ";".join(f"{n}:{method}" for n, method in pairs)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def witness_pool_tasks() -> list[tuple[int, int, int]]:
    """(m, D, start) for every pool task, in pool order."""
    rng = random.Random(POOL_SEED)
    return [
        (m, digits, 10**digits + rng.randrange(WITNESS_OFFSET_RANGE))
        for digits in WITNESS_DIGITS
        for m in range(5)
    ]


def load_reference(name: str):
    with open(REFERENCE_DIR / name, encoding="utf-8") as handle:
        return json.load(handle)


def percentile(values, q: int) -> float:
    """Nearest-rank q-th percentile."""
    ordered = sorted(values)
    return ordered[max(1, -(-len(ordered) * q // 100)) - 1]
