"""The one forked helper process: how many processes a job may use, and
one class that forks a helper, hands it jobs and takes their results
back.  At most one helper is alive at a time.  Each job function is
also its own fallback: a result the helper does not deliver is computed
here by the same function, so a helper moves where a result is
computed, never its bits or which error is raised.
"""

from __future__ import annotations

import os
import pickle
import sys
from collections import deque
from typing import Callable

import numpy as np


def available_processes() -> int:
    """Processes a job may run at once: one per core this process may run
    on (``os.sched_getaffinity``), on Linux only.  Windows has no fork,
    and macOS' Accelerate is not fork-safe."""
    return len(os.sched_getaffinity(0)) if sys.platform == "linux" else 1


class Helper:
    """Runs the jobs this process submits, in a forked helper process when
    two processes are available (:func:`available_processes`) and the
    fork succeeds, else here.  ``jobs`` maps a job's name to a function of
    its arguments that returns its result; the helper inherits their code
    and data at fork.  Each submitted job pickles the values of ``store``
    (if given: the helper copies them into its own store first), this
    process's ``np.geterr()``, under which the helper runs the job, and
    the job's name and arguments.  :meth:`result` takes the results back
    in submit order; one the helper fails to deliver in full is computed
    here, and the helper is dead from then on.  As a context manager it
    reaps the helper on every exit.

    The helper closes this process's ends of its pipes, so each pipe has
    one reader and one writer: a closed end fails the other side's write
    with EPIPE and ends its reads.  It leaves only by ``os._exit``, 0 once
    its request pipe ends and 1 if a job raises, so it never flushes this
    process's buffered output or runs exit hooks.  (numpy's OpenBLAS
    stops its idle thread pool before a fork, so the helper starts from
    the one thread that forked.)"""

    def __init__(self, jobs: dict[str, Callable], store=None):
        self.jobs = jobs
        self.store = store
        self.pending: deque[tuple[str, tuple]] = deque()
        self.pid = None
        self.alive = False
        if available_processes() < 2:
            return
        fds: list[int] = []
        try:
            fds += os.pipe()  # to the helper
            fds += os.pipe()  # from it
            pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            return  # no process to spare: every result is computed here
        child_in, parent_out, parent_in, child_out = fds
        if not pid:
            status = 1
            try:
                os.close(parent_out)
                os.close(parent_in)
                _serve(jobs, store, child_in, child_out)
                status = 0
            finally:
                os._exit(status)
        os.close(child_in)
        os.close(child_out)
        self.pid = pid
        self.requests = open(parent_out, "wb")
        self.replies = open(parent_in, "rb")
        self.alive = True

    def __enter__(self) -> Helper:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def submit(self, job: str, *args) -> None:
        """Queue ``job`` with ``args``, and send it if the helper lives."""
        self.pending.append((job, args))
        if self.alive:
            try:
                flat = None if self.store is None else self.store.flat()
                pickle.dump((flat, np.geterr(), job, args), self.requests, pickle.HIGHEST_PROTOCOL)
                self.requests.flush()
            except OSError:
                self.alive = False

    def result(self):
        """The oldest pending job's result: the helper's reply, or, should
        the helper not deliver it in full, ``jobs[job](*args)`` run here."""
        job, args = self.pending.popleft()
        if self.alive:
            try:
                return pickle.load(self.replies)
            except (EOFError, OSError, pickle.UnpicklingError):
                self.alive = False
        return self.jobs[job](*args)

    def finish(self) -> None:
        """Send no more jobs: close the request pipe, so the helper exits
        once it has sent its replies."""
        if self.pid is not None:
            try:
                self.requests.close()  # flushes a request a dead helper never read
            except OSError:
                pass

    def close(self) -> None:
        """Close both pipes, so the helper reads EOF or fails its write,
        then reap it."""
        if self.pid is not None:
            self.finish()
            self.replies.close()
            os.waitpid(self.pid, 0)
            self.pid, self.alive = None, False


def _serve(jobs: dict[str, Callable], store, read_end: int, write_end: int) -> None:
    """A helper's loop: run each request's job and send its result, until
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
                result = jobs[job](*args)
            pickle.dump(result, replies, pickle.HIGHEST_PROTOCOL)
            replies.flush()
