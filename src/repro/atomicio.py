"""Crash-safe file writes: temp file, fsync, then ``os.replace``.

Every file the library persists (checkpoints, parked jobs, trace and
metric exports, bench records) goes through :func:`atomic_write`, so a
reader never observes a half-written file and a crash leaves either the
old file or the new one.  This module imports nothing from the package,
so any layer can use it.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import BinaryIO, Callable, Union

PathLike = Union[str, os.PathLike]


def atomic_write(path: PathLike, fill: Callable[[BinaryIO], object]) -> Path:
    """Write *path* crash-safely; ``fill(handle)`` writes the bytes.

    The data lands in a temp file in the destination directory, is
    flushed and fsynced, and is then renamed over *path*.  On any error
    the temp file is removed and the error propagates.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            fill(handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def atomic_write_text(path: PathLike, text: str) -> Path:
    """:func:`atomic_write` of *text* encoded as UTF-8."""
    return atomic_write(path, lambda handle: handle.write(text.encode("utf-8")))
