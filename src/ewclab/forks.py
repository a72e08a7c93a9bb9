"""Forked helper processes: how many a job may use, and how one is
forked.  The Fisher estimate and the training step both split their
work this way, and both fold the results in the order one process
would, so the split never moves a bit.
"""

from __future__ import annotations

import os
import sys
from typing import Callable, Iterable


def available_processes() -> int:
    """Processes a job may run at once: one per core this process may run
    on (``os.sched_getaffinity``), on Linux only.  Windows has no fork,
    and macOS' Accelerate is not fork-safe."""
    return len(os.sched_getaffinity(0)) if sys.platform == "linux" else 1


def fork_child(run: Callable[[int, int], None], inherited: Iterable = ()) -> tuple[int, int, int]:
    """Fork a child that runs ``run(read_end, write_end)`` on its ends of
    two new pipes, one to it and one from it.  Returns (pid, the write
    end of the pipe to the child, the read end of the pipe from it).

    The child closes this process's pipe ends and the ``inherited`` open
    files (other children's pipes), so each pipe has one reader and one
    writer: a closed end fails the other side's write with EPIPE and ends
    its reads.  The child leaves only by ``os._exit``, 0 once ``run``
    returns and 1 if it raises: it never flushes this process's buffered
    output or runs exit hooks.  (numpy's OpenBLAS stops its idle thread
    pool before a fork, so the child starts from the one thread that
    forked.)"""
    child_in, parent_out = os.pipe()
    try:
        parent_in, child_out = os.pipe()
    except OSError:
        os.close(child_in)
        os.close(parent_out)
        raise
    try:
        pid = os.fork()
    except OSError:
        for fd in (child_in, parent_out, parent_in, child_out):
            os.close(fd)
        raise
    if pid:
        os.close(child_in)
        os.close(child_out)
        return pid, parent_out, parent_in
    status = 1
    try:
        os.close(parent_out)
        os.close(parent_in)
        for pipe in inherited:
            pipe.close()
        run(child_in, child_out)
        status = 0
    finally:
        os._exit(status)
