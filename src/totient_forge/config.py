"""The cache location, and atomic writes into it.

Precedence: an explicit --cache-dir beats the environment, which beats the
default.
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

