"""Atomic, durable file publication: the one tempfile + ``os.replace`` path.

Every artefact the cache publishes whole — arena and feature-index segments,
the mmap sidecar, snapshots and a compacted journal — goes through
:func:`publish`, so a reader (or a restart after a crash) sees either the
previous file or the complete new one, never a torn mix.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import BinaryIO, Callable, Union

__all__ = ["fsync_directory", "publish"]


def publish(path: Union[str, os.PathLike], writer: Callable[[BinaryIO], None]) -> None:
    """Write ``path`` atomically and durably through ``writer(stream)``.

    ``writer`` fills a binary tempfile created beside ``path``; the file is
    flushed and fsync'd, moved over ``path`` with ``os.replace``, and the
    directory is fsync'd so the rename itself survives a crash.  On any
    error the tempfile is removed and the previous ``path`` is left intact.
    """
    target = Path(path)
    fd, tmp_name = tempfile.mkstemp(dir=target.parent, prefix=target.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as stream:
            writer(stream)
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(tmp_name, target)
    except BaseException:
        Path(tmp_name).unlink(missing_ok=True)
        raise
    fsync_directory(target.parent)


def fsync_directory(directory: Union[str, os.PathLike]) -> None:
    """Make the entries of ``directory`` (a create or a rename) durable."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
