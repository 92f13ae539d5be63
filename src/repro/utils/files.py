"""Atomic file writes shared by the result cache, work queue and registry.

Readers of a path written by :func:`atomic_write` see either the old file
or the whole new one, never a prefix: the data goes to a temp file in the
same directory, which ``os.replace`` then renames over ``path``.  A failed
write removes its temp file, so no stray ``*.tmp`` is left behind.

Atomic is not durable.  ``os.replace`` orders the rename against nothing,
so after a power loss a visible name can point at blocks that never hit
the disk.  ``durable=True`` closes that window (fsync the temp file before
the rename, the directory after it); only the serving registry pays for
it, since a published manifest must never reference a blob of zeros,
whereas a lost runtime record just re-runs its job.
"""
from __future__ import annotations

import os
import tempfile
from pathlib import Path

__all__ = ["atomic_write", "fsync_dir"]


def fsync_dir(path) -> None:
    """Flush a directory's entry table (making a rename/link durable)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - e.g. O_RDONLY on a dir (Windows)
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fs without directory fsync
        pass
    finally:
        os.close(fd)


def atomic_write(path, data: bytes | str, durable: bool = False) -> Path:
    """Replace ``path`` with ``data`` (``str`` is UTF-8 encoded) atomically.

    Creates the parent directory if needed.  ``durable=True`` also fsyncs
    the file before the rename and the directory after it.  Returns
    ``path``.
    """
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            if durable:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    if durable:
        fsync_dir(path.parent)
    return path
