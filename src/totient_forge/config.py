"""The cache location, atomic writes into it, and the record framing of the
pair-search cache, the one cache on disk.

Precedence: an explicit --cache-dir beats the environment, which beats the
default.

A record is a "# <key>" header, the body lines and a "# count=N" trailer:
a file written for another key, or cut short, fails to read instead of
passing for a valid one.
"""

from __future__ import annotations

import os
from pathlib import Path

CACHE_ENV = "TOTIENT_FORGE_CACHE"


def default_cache_dir() -> Path:
    env = os.environ.get(CACHE_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "totient_forge"


def write_text_atomic(path: Path, text: str) -> None:
    """Replace `path` with `text` in one step, so readers never see a partial file.

    The text goes to a temporary file in the same directory, which
    os.replace then renames over the target; on failure it is removed.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_record(path: Path, key: str, body: list[str]) -> None:
    """Write `body` as the record for `key`, atomically."""
    write_text_atomic(path, "\n".join([f"# {key}", *body, f"# count={len(body)}"]) + "\n")


def read_record(path: Path, key: str) -> list[str] | None:
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
