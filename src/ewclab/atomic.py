"""Atomic file replacement for the checkpoints, run files and reports.

Bytes go to a temporary file beside the target, which then replaces the
target in one ``os.replace``.  A write that fails or is interrupted
leaves any earlier file at the target as it was and removes its
temporary file, so a crash leaves a state a rerun repairs.
"""

from __future__ import annotations

import os
from contextlib import contextmanager


@contextmanager
def atomic_open(path, mode: str = "w"):
    """Open a temporary file beside ``path`` for writing; on a clean exit
    it replaces ``path``, on an exception it is deleted."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_text(path, text: str) -> None:
    with atomic_open(path) as fh:
        fh.write(text)
