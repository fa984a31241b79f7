"""Crash-durable file-write helpers (mkstemp + fsync + atomic replace).

The durability-bearing layers — sweep exports, the run journal's restart
path, the serving cache — promise that a reader never observes a torn
file: after a crash the target either holds the complete previous
content or the complete new content, nothing in between.  PR 8's
torn-header incident is what happens when that promise is kept by
convention instead of by construction.

The atomic-replace helpers are the construction, written once:

* the new content goes to a ``mkstemp`` sibling in the *target's own
  directory* (same filesystem, so the final rename cannot degrade into a
  copy);
* the temp file is flushed and ``fsync``-ed before it is visible under
  the real name;
* ``os.replace`` publishes it atomically;
* the directory entry is fsync-ed afterwards (best-effort — not every
  platform allows directory fds) so the rename itself survives a crash.

The static-analysis rule RPR003 (``repro.devtools.lint``) flags any raw
truncating write under ``sweep/`` and ``serve/``; routing through this
module is how call sites satisfy it.  This module itself lives outside
the rule's scope on purpose: it is the one place allowed to spell the
raw pattern.

Append-only JSONL logs (the run journal, the serving workload trace)
cannot be replaced per line; their crash mode is a torn final line.
:func:`discard_torn_tail` is what both writers call before their first
append, so a new line never merges into the fragment.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Union

__all__ = ["atomic_write_bytes", "atomic_write_text", "discard_torn_tail",
           "fsync_directory"]


def fsync_directory(directory: Union[str, Path]) -> None:
    """Flush a directory entry to disk, where the platform allows it."""
    try:
        fd = os.open(str(directory), os.O_RDONLY)
    except OSError:
        return  # e.g. Windows: directories cannot be opened for fsync
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: Union[str, Path], data: bytes) -> Path:
    """Durably replace ``path``'s content with ``data``; returns the path.

    The write is atomic with respect to concurrent readers (they see the
    old file or the new one, never a mixture) and durable across a crash
    once the call returns.
    """
    path = Path(path)
    fd, temp_name = tempfile.mkstemp(
        dir=str(path.parent) or ".", prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise
    fsync_directory(path.parent)
    return path


def atomic_write_text(path: Union[str, Path], text: str,
                      encoding: str = "utf-8") -> Path:
    """Durably replace ``path``'s content with ``text``; returns the path."""
    return atomic_write_bytes(path, text.encode(encoding))


def discard_torn_tail(path: Union[str, Path]) -> None:
    """Truncate a torn (newline-less) final line off an append-only log.

    Appending straight after a torn tail would merge the new line into
    the fragment, producing one complete-but-corrupt line that poisons
    every later load.  Loaders already ignore the fragment, so dropping
    it loses nothing.  A missing file is left alone.
    """
    try:
        handle = Path(path).open("rb+")
    except FileNotFoundError:
        return
    with handle:
        end = handle.seek(0, os.SEEK_END)
        if end == 0:
            return
        handle.seek(end - 1)
        if handle.read(1) == b"\n":
            return
        # Torn (only after a crash): cut just past the last newline, or
        # to empty when the whole file is one fragment.
        handle.seek(0)
        handle.truncate(handle.read().rfind(b"\n") + 1)
