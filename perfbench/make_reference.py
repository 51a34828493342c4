"""Write the pinned reference outputs under perfbench/reference/.

Run once, from the repository root, to create references that are missing:

    PYTHONPATH=src python3 perfbench/make_reference.py

Existing files are never overwritten. The references record the answers of
the commit that defined the benchmark; a later change whose answers differ
fails the benchmark's correctness gate and must not re-pin them. In
particular C2 and C4 are pinned as Fail: they encode published magnitudes
that exact arithmetic contradicts.

Every pinned answer is also checked here by means independent of the
library: witness r values by sympy.isprime over every smaller candidate.
"""

from __future__ import annotations

import csv
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import sympy

from inputs import (
    REFERENCE_DIR,
    SOLVE_FIXED_K_MAX,
    SOLVE_M_VALUES,
    solution_digest,
    witness_pool_tasks,
)
from totient_forge import PairSearchTask, Parity, search_pair_r, solve

_SMALL_PRIMORIAL = math.prod(sympy.primerange(2, 1000))


def _is_prime(n: int) -> bool:
    # a common factor below 1000 settles most candidates without sympy
    return math.gcd(n, _SMALL_PRIMORIAL) == 1 and sympy.isprime(n)


def _write(name: str, compute) -> None:
    path = REFERENCE_DIR / name
    if path.exists():
        print(f"{path} exists; left unchanged")
        return
    data = compute()
    REFERENCE_DIR.mkdir(exist_ok=True)
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")


def claims_reference(cache_dir: str) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = Path(tmp) / "claims.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "totient_forge.cli", "--cache-dir", cache_dir,
             "verify-claims", "--level", "extreme", "--csv", str(csv_path)],
            stdout=subprocess.DEVNULL, check=False,
        )
        with open(csv_path, encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(handle))
    statuses = {row["claim"]: row["status"] for row in rows}
    if statuses.get("C2") != "Fail" or statuses.get("C4") != "Fail":
        raise SystemExit("C2 and C4 must fail by design; refusing to pin")
    return {
        "exit_code": proc.returncode,
        "claims": {row["claim"]: {"status": row["status"], "evidence": row["evidence"]}
                   for row in rows},
    }


def solve_reference(cache_dir: str) -> dict:
    return {
        f"{k}/{M}": solution_digest(solve(k, M, with_witness_search=True, cache_dir=cache_dir))
        for k in range(1, SOLVE_FIXED_K_MAX + 1)
        for M in SOLVE_M_VALUES
    }


def witness_reference() -> list[dict]:
    pool = []
    for m, digits, start in witness_pool_tasks():
        a = 1 << (1 << m)
        task = PairSearchTask(a=a, b=a + 1, start=start, parity=Parity.EVEN_ONLY)
        r = search_pair_r(task, use_cache=False).r
        first = start + start % 2
        if not (_is_prime(a * r + 1) and _is_prime((a + 1) * r + 1)):
            raise SystemExit(f"m={m} D={digits}: r={r} is not a witness")
        for smaller in range(first, r, 2):
            if _is_prime(a * smaller + 1) and _is_prime((a + 1) * smaller + 1):
                raise SystemExit(f"m={m} D={digits}: {smaller} precedes r={r}")
        pool.append({"m": m, "digits": digits, "start": str(start), "r": str(r)})
        print(f"m={m} D={digits}: r = start + {r - start}", flush=True)
    return pool


def main() -> None:
    with tempfile.TemporaryDirectory() as cache_dir:
        _write("claims.json", lambda: claims_reference(cache_dir))
        _write("solve_fixed.json", lambda: solve_reference(cache_dir))
    _write("witness_pool.json", witness_reference)


if __name__ == "__main__":
    main()
