"""Minimal-witness search for r such that a*r+1 and b*r+1 are both prime.

Candidates are scanned in increasing order in blocks that grow geometrically,
so the first hit is the minimal r. A block whose forms are all below 1009**2
is not presieved: `screen` there is one lookup in the smallest-prime-factor
table, as cheap as a strike. Any other block is presieved against the primes
up to min(PRESIEVE_BOUND, sqrt of its largest form), all 9,592 primes
<= 10^5 once b*r passes 10^10, and the scan jumps from survivor to survivor
of the mask (under 1% of a 10^40..10^100 block) instead of visiting every
candidate. The presieve memoizes each multiplier's inverses mod those
primes per process (`primality._form_constants`, keyed by multiplier and
step), so a process inverts only in its first block with each of them.

A survivor is a hit when both forms pass the two stages of the primality
test, run form by form: `screen` (a table lookup below 1009**2, else the gcd
with the trial primes' product and the strong base-2 test) on a*r+1, then on
b*r+1, and only when both pass, `confirm` on each (the bases 3..37 below
2**64, the strong Lucas test above). Most survivors fail the screen on one
form, so the confirm stage (the Lucas test costs three to four base-2 tests)
runs almost only on the hit.

The search knows nothing of k: `solve` skips the witnesses whose forms
divide k itself (`constructions._fermat_witness`).

Results are cached under the cache directory: an explicit --cache-dir beats
$TOTIENT_FORGE_CACHE, which beats ~/.cache/totient_forge. A record is a
"# <key>" header, the body lines and a "# count=N" trailer: a file written
for another key, or cut short, fails to read instead of passing for a valid
one.
"""

from __future__ import annotations

import hashlib
import logging
import math
import os
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import NamedTuple

from .primality import (
    PRESIEVE_BOUND,
    SEGMENT_CANDIDATES,
    SPF_LIMIT,
    PrimalityVerdict,
    confirm,
    is_prime,
    is_probable_prime,
    presieve,
    screen,
)

__all__ = [
    "CACHE_ENV",
    "default_cache_dir",
    "Parity",
    "PairSearchTask",
    "PairSearchResult",
    "LimitExhausted",
    "search_pair_r",
    "verify_r_table",
    "PAIR_WITNESS_TABLE",
    "RTableRow",
    "FERMAT_PRIMES",
    "fermat_pair_task",
]

log = logging.getLogger(__name__)

CACHE_ENV = "TOTIENT_FORGE_CACHE"

DEFAULT_CANDIDATE_BUDGET = 10**7

# The five known Fermat primes F_m = 2^(2^m) + 1, m = 0..4.
FERMAT_PRIMES = tuple((1 << (1 << m)) + 1 for m in range(5))

# Bundled witnesses r (indexed by the Fermat prime exponent m) for which both
# (F_m - 1) * r + 1 and F_m * r + 1 pass the probable-prime tests.
PAIR_WITNESS_TABLE = {
    0: 10**100 + 9760,
    1: 10**100 + 60128,
    2: 10**100 + 150326,
    3: 10**100 + 51326,
    4: 10**100 + 14786,
}


class Parity(Enum):
    ANY = "any"
    EVEN_ONLY = "even"


class LimitExhausted(RuntimeError):
    """No qualifying r below the give-up bound."""


@dataclass(frozen=True)
class PairSearchTask:
    a: int
    b: int
    start: int = 1
    parity: Parity = Parity.ANY
    limit: int | None = None

    def __post_init__(self):
        if self.a < 1 or self.b <= self.a:
            raise ValueError("need 1 <= a < b")
        if self.start < 1:
            raise ValueError("start must be >= 1")


def fermat_pair_task(m: int, start: int, limit: int | None = None) -> PairSearchTask:
    """The Fermat pair task: even r >= start with (F_m - 1)*r + 1 and F_m*r + 1 prime."""
    fermat = FERMAT_PRIMES[m]
    return PairSearchTask(a=fermat - 1, b=fermat, start=start, parity=Parity.EVEN_ONLY, limit=limit)


class PairSearchResult(NamedTuple):
    r: int
    p1: int
    p2: int
    candidates_tested: int

    @property
    def verdicts(self) -> tuple[PrimalityVerdict, PrimalityVerdict]:
        """The verdicts of p1 and p2, tested afresh."""
        return is_probable_prime(self.p1), is_probable_prime(self.p2)


def _scan_block(task: PairSearchTask, block_start: int, count: int, step: int):
    """Test one block; return (result_or_None, tested count)."""
    top = task.b * (block_start + (count - 1) * step) + 1
    if top < SPF_LIMIT:
        # every form is one table lookup, which a strike would not undercut
        mask = b"\x01" * count
    else:
        # sieving beyond sqrt(max candidate value) buys nothing
        bound = min(PRESIEVE_BOUND, math.isqrt(top) + 1)
        mask = presieve(task.a, task.b, block_start, count, step, bound)
    tested = 0
    i = -1
    while (i := mask.find(1, i + 1)) >= 0:
        r = block_start + i * step
        p1 = task.a * r + 1
        p2 = task.b * r + 1
        tested += 1
        # both forms take the screen before either is confirmed: confirming
        # a prime costs eleven base-2 tests below 2**64, three to four above
        if (screen(p1) is None and screen(p2) is None
                and confirm(p1) is None and confirm(p2) is None):
            return PairSearchResult(r, p1, p2, tested), tested
    return None, tested


def search_pair_r(
    task: PairSearchTask,
    cache_dir: Path | str | None = None,
    use_cache: bool = True,
) -> PairSearchResult:
    """Smallest r >= task.start, of the task's parity, below its limit, with both forms prime."""
    step = 2 if task.parity is Parity.EVEN_ONLY else 1
    first = task.start
    if task.parity is Parity.EVEN_ONLY and first % 2:
        first += 1
    limit = task.limit if task.limit is not None else first + DEFAULT_CANDIDATE_BUDGET * step

    cache_path = None
    if use_cache:
        # the limit is part of the key: cutting a block short can leave it
        # below 1009**2, unpresieved, which changes the candidates tested
        key = f"{task.a}|{task.b}|{task.start}|{task.parity.value}|{limit}"
        root = Path(cache_dir) if cache_dir is not None else default_cache_dir()
        digest = hashlib.sha256(key.encode()).hexdigest()[:24]
        cache_path = root / "pair_search" / f"{digest}.txt"
        cached = _load_cached(cache_path, key, task, limit)
        if cached is not None:
            return cached

    result = None
    tested_total = 0
    # blocks grow geometrically so tiny searches stay tiny; below
    # PRESIEVE_BOUND**2 a short first block more often stays below 1009**2,
    # where nothing is presieved, and otherwise sieves fewer primes
    block_start, count = first, 1 << 12
    if task.b * (first + count * step) + 1 < PRESIEVE_BOUND**2:
        count = 1 << 6
    while block_start < limit:
        count = min(count, (limit - block_start + step - 1) // step)
        result, tested = _scan_block(task, block_start, count, step)
        tested_total += tested
        if result is not None:
            break
        block_start += count * step
        count = min(count * 4, SEGMENT_CANDIDATES)

    if result is None:
        raise LimitExhausted(f"no qualifying r in [{first}, {limit}) for a={task.a}, b={task.b}")
    result = result._replace(candidates_tested=tested_total)
    if cache_path is not None:
        _write_record(cache_path, key, [str(result.r), str(tested_total)])
    return result


# ---------------------------------------------------------------------------
# result cache: one record per (a, b, start, parity, limit) key, whose body is
# r and the candidates tested; both forms are re-tested on load


def default_cache_dir() -> Path:
    env = os.environ.get(CACHE_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "totient_forge"


def _write_record(path: Path, key: str, body: list[str]) -> None:
    """Replace `path` with the record of `body` for `key` in one step, so
    readers never see a partial file.

    The text goes to a temporary file in the same directory, which
    os.replace then renames over the target; on failure it is removed.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text("\n".join([f"# {key}", *body, f"# count={len(body)}"]) + "\n", encoding="utf-8")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _read_record(path: Path, key: str) -> list[str] | None:
    """The body lines of the record at `path`, or None when there is no file.

    Raises ValueError when the header does not carry `key` or the trailer's
    count does not match the body.
    """
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except FileNotFoundError:
        return None
    if lines[:1] != [f"# {key}"]:
        raise ValueError("key mismatch")
    if lines[-1] != f"# count={len(lines) - 2}":
        raise ValueError("count mismatch")
    return lines[1:-1]


def _load_cached(path: Path, key: str, task: PairSearchTask, limit: int) -> PairSearchResult | None:
    """The cached result, or None when absent or corrupt."""
    try:
        body = _read_record(path, key)
        if body is None:
            return None
        r_line, tested_line = body
        r, tested = int(r_line), int(tested_line)
        if not task.start <= r < limit or (task.parity is Parity.EVEN_ONLY and r % 2):
            raise ValueError("cached r violates the task")
        if tested < 1:
            raise ValueError("a scan tests at least its hit")
        p1, p2 = task.a * r + 1, task.b * r + 1
        if not (is_prime(p1) and is_prime(p2)):
            raise ValueError("cached r is not a witness")
        return PairSearchResult(r, p1, p2, tested)
    except ValueError as exc:
        log.warning("discarding corrupt search cache %s (%s)", path, exc)
        return None


# ---------------------------------------------------------------------------
# bundled witness table verification


@dataclass(frozen=True)
class RTableRow:
    m: int
    r: int
    p1_verdict: PrimalityVerdict
    p2_verdict: PrimalityVerdict

    @property
    def ok(self) -> bool:
        return self.p1_verdict.is_prime and self.p2_verdict.is_prime


def verify_r_table() -> list[RTableRow]:
    """Re-test both linear forms for every bundled witness row."""
    rows = []
    for m, r in sorted(PAIR_WITNESS_TABLE.items()):
        fermat = FERMAT_PRIMES[m]
        rows.append(
            RTableRow(m, r, is_probable_prime((fermat - 1) * r + 1), is_probable_prime(fermat * r + 1))
        )
    return rows
