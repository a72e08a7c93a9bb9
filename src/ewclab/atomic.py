"""Whole-file reads, and atomic replacement for the checkpoints, run
files and reports.

Bytes go to a temporary file beside the target, which then replaces the
target in one ``os.replace``.  A write that fails or is interrupted
leaves any earlier file at the target as it was and removes its
temporary file, so a crash leaves a state a rerun repairs.  Text is
UTF-8, and a text file that already holds its bytes is left in place.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

from .errors import EwcLabError


def read_file(path, missing: type[EwcLabError], what: str) -> bytes:
    """The bytes of ``path``; a missing file raises ``missing`` naming it."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        raise missing(f"no {what} at {os.fspath(path)!r}") from None


@contextmanager
def atomic_open(path):
    """Open a temporary file beside ``path`` for binary writing; on a clean
    exit it replaces ``path``, on an exception it is deleted."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_text(path, text: str) -> None:
    """Write ``text`` as UTF-8.  When ``path`` already holds exactly those
    bytes it is left alone, keeping its inode and mtime, and a stray
    temporary file beside it is removed."""
    data = text.encode("utf-8")
    try:
        with open(path, "rb") as fh:
            same = os.fstat(fh.fileno()).st_size == len(data) and fh.read() == data
    except FileNotFoundError:
        same = False
    if same:
        tmp = f"{os.fspath(path)}.tmp"
        if os.path.exists(tmp):
            os.unlink(tmp)
        return
    with atomic_open(path) as fh:
        fh.write(data)
