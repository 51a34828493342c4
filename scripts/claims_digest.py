"""Digest of the claim suite's report, for showing that a change keeps every verdict.

    PYTHONPATH=src python scripts/claims_digest.py

Runs `verify-claims --level extreme` against a fresh temporary cache and
prints its exit code and one sha256 over the report's rows, one line per
claim, `claim|status|evidence`. The `runtime_s` column is left out, since
it differs on every run.

It then runs every claim again in this process, one after another with no
pool, through the same runners and merges (claims._CLAIMS) and another
fresh cache, and exits 1 unless those (claim, status, evidence) rows equal
the pooled report's.

Run it on two checkouts: equal digests mean equal verdicts and evidence for
C1..C8. It takes a few seconds; it is kept out of the test suite.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from totient_forge import claims
from totient_forge.cli import main as cli_main


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = Path(tmp) / "claims.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(["--cache-dir", str(Path(tmp) / "cache"), "verify-claims",
                             "--level", "extreme", "--csv", str(csv_path)])
        with open(csv_path, newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        serial = []
        for claim in claims._CLAIMS.values():
            report = claim.merge([claim.run(Path(tmp) / "serial", *part) for part in claim.parts])
            serial.append(next(csv.reader([report.csv_row()])))
    h = hashlib.sha256()
    for row in rows:
        h.update(f"{row['claim']}|{row['status']}|{row['evidence']}\n".encode())
    print(f"exit {code}: {len(rows)} claims, sha256 {h.hexdigest()}")
    pooled = [(row["claim"], row["status"], row["evidence"]) for row in rows]
    if pooled != [(cid, status, evidence) for cid, status, _, _, evidence in serial]:
        print("the pooled report differs from the claims run in-process", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
