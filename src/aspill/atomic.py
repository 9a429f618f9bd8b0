"""Atomic replacement of output files."""

from __future__ import annotations

import os
import uuid
from pathlib import Path


def write_atomic(path: str | Path, text: str) -> None:
    """Write text as UTF-8 to path so that readers see the old or the new file whole.

    The text goes to a uniquely named temporary file in the same directory,
    which os.replace then moves over path; runs writing into one directory
    at once cannot overwrite each other's temporary files. No newline
    translation happens, so the bytes are the same on every platform.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with tmp.open("x", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
