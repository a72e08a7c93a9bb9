"""Forked helper processes: how many processes a job may use, and one
class that forks a helper and sends it jobs.  A run's helper and a
Fisher estimate's helpers work this way, and every split folds the
helpers' results in the order one process would, so no split moves a
bit.
"""

from __future__ import annotations

import os
import pickle
import sys
from typing import Callable, Iterable

import numpy as np


def available_processes() -> int:
    """Processes a job may run at once: one per core this process may run
    on (``os.sched_getaffinity``), on Linux only.  Windows has no fork,
    and macOS' Accelerate is not fork-safe."""
    return len(os.sched_getaffinity(0)) if sys.platform == "linux" else 1


class Helper:
    """A forked process that runs the jobs this process sends it, in
    order.  ``jobs`` maps a job's name to a function of its arguments that
    yields its replies; their code and data are inherited at fork.  Each
    request pickles the values of ``store`` (if given: the helper copies
    them into its own store first), this process's ``np.geterr()``, under
    which the helper runs the job, and the job's name and arguments.  A
    helper that fails to reply is dead from then on, and this process
    does its work itself.

    The helper closes this process's ends of its own pipes and of every
    other live helper's, so each pipe has one reader and one writer: a
    closed end fails the other side's write with EPIPE and ends its
    reads.  It leaves only by ``os._exit``, 0 once its request pipe ends
    and 1 if a job raises, so it never flushes this process's buffered
    output or runs exit hooks.  (numpy's OpenBLAS stops its idle thread
    pool before a fork, so the helper starts from the one thread that
    forked.)"""

    live: set[Helper] = set()  # the helpers whose pipe ends this process holds

    def __init__(self, jobs: dict[str, Callable[..., Iterable]], store=None):
        fds: list[int] = []
        try:
            fds += os.pipe()  # to the helper
            fds += os.pipe()  # from it
            self.pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            raise
        child_in, parent_out, parent_in, child_out = fds
        if not self.pid:
            status = 1
            try:
                held = [pipe.fileno() for other in Helper.live for pipe in (other.requests, other.replies)
                        if not pipe.closed]
                for fd in (parent_out, parent_in, *held):
                    os.close(fd)
                _serve(jobs, store, child_in, child_out)
                status = 0
            finally:
                os._exit(status)
        os.close(child_in)
        os.close(child_out)
        self.requests = open(parent_out, "wb")
        self.replies = open(parent_in, "rb")
        self.store = store
        self.alive = True
        Helper.live.add(self)

    def request(self, job: str, *args) -> bool:
        """Send ``job`` with ``args``; False when the helper is dead."""
        if self.alive:
            try:
                flat = None if self.store is None else self.store.flat()
                pickle.dump((flat, np.geterr(), job, args), self.requests, pickle.HIGHEST_PROTOCOL)
                self.requests.flush()
                return True
            except OSError:
                self.alive = False
        return False

    def reply(self, own: Callable[[], object]):
        """The pending job's next reply.  Should the helper die before
        sending it in full, it is dead from then on, and this returns
        ``own()``: this process does that part itself."""
        try:
            return pickle.load(self.replies)
        except (EOFError, OSError, pickle.UnpicklingError):
            self.alive = False
            return own()

    def finish(self) -> None:
        """Send no more jobs: close the request pipe, so the helper exits
        once it has sent its replies."""
        try:
            self.requests.close()  # flushes a request a dead helper never read
        except OSError:
            pass

    def close(self) -> None:
        """Close both pipes, so the helper reads EOF or fails its write,
        then reap it."""
        self.finish()
        self.replies.close()
        Helper.live.discard(self)
        os.waitpid(self.pid, 0)


def _serve(jobs: dict[str, Callable[..., Iterable]], store, read_end: int, write_end: int) -> None:
    """A helper's loop: run each request's job and send its replies, until
    the request pipe ends."""
    offsets = None if store is None else np.cumsum([arr.size for arr in store.values()])[:-1]
    with open(read_end, "rb") as requests, open(write_end, "wb") as replies:
        while True:
            try:
                flat, errors, job, args = pickle.load(requests)
            except EOFError:
                return  # the calling process is done
            if flat is not None:
                for arr, part in zip(store.values(), np.split(flat, offsets)):
                    arr[...] = part.reshape(arr.shape)
            with np.errstate(**errors):
                for reply in jobs[job](*args):
                    pickle.dump(reply, replies, pickle.HIGHEST_PROTOCOL)
                    replies.flush()
