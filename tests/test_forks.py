"""The one forked helper: results in submit order, each computed here by
its own job whenever the helper does not deliver it."""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

from ewclab.forks import Helper

pytestmark = pytest.mark.skipif(sys.platform != "linux", reason="the helper forks on Linux only")


def logged_jobs(calls, parent, exit_at=None):
    """A ``square`` and a ``fail`` job; each call here appends its
    argument to ``calls``, and the helper leaves by ``os._exit(3)`` when
    asked to square ``exit_at``."""

    def square(x):
        if os.getpid() == parent:
            calls.append(x)
        elif x == exit_at:
            os._exit(3)
        return np.full(3, float(x)) ** 2

    def fail(x):
        raise ValueError(f"no result for {x}")

    return {"square": square, "fail": fail}


@pytest.fixture
def cores(monkeypatch):
    """``cores(n)`` makes ``n`` cores available; returns the list of pids
    forked from then on."""
    forks = []
    real_fork = os.fork

    def logged_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    def set_cores(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
        monkeypatch.setattr(os, "fork", logged_fork)
        return forks

    return set_cores


def test_results_come_back_in_submit_order(cores):
    forks = cores(2)
    calls, parent = [], os.getpid()
    with Helper(logged_jobs(calls, parent)) as helper:
        for x in range(5):
            helper.submit("square", x)
        results = [helper.result() for _ in range(5)]
        assert helper.alive
    assert len(forks) == 1
    assert calls == []  # the helper computed every result
    assert [r.tolist() for r in results] == [[x * x] * 3 for x in range(5)]


def test_a_helper_that_dies_leaves_the_later_results_here(cores):
    forks = cores(2)
    calls, parent = [], os.getpid()
    with Helper(logged_jobs(calls, parent, exit_at=1)) as helper:
        for x in range(4):
            helper.submit("square", x)
        results = [helper.result() for _ in range(4)]
        assert not helper.alive
        helper.submit("square", 4)
        results.append(helper.result())
    assert len(forks) == 1
    assert calls == [1, 2, 3, 4]  # the first reply came from the helper
    assert [r.tobytes() for r in results] == [(np.full(3, float(x)) ** 2).tobytes() for x in range(5)]


def test_a_job_that_raises_in_the_helper_raises_the_same_here(cores):
    cores(2)
    with pytest.raises(ValueError) as here:
        logged_jobs([], os.getpid())["fail"](7)
    with Helper(logged_jobs([], os.getpid())) as helper:
        helper.submit("fail", 7)
        helper.submit("square", 2)
        with pytest.raises(type(here.value), match=f"^{here.value}$"):
            helper.result()
        assert helper.result().tolist() == [4.0] * 3


def no_fork():
    raise BlockingIOError("no process to spare")


@pytest.mark.parametrize("why", ["one core", "not linux", "failed fork"])
def test_no_helper_computes_every_result_here(cores, monkeypatch, why):
    forks = cores(1 if why == "one core" else 2)
    if why == "not linux":
        monkeypatch.setattr(sys, "platform", "darwin")
    elif why == "failed fork":
        monkeypatch.setattr(os, "fork", no_fork)
    calls, parent = [], os.getpid()
    with Helper(logged_jobs(calls, parent)) as helper:
        assert helper.pid is None and not helper.alive
        for x in range(3):
            helper.submit("square", x)
        assert calls == []  # a job runs when its result is taken
        results = [helper.result().tolist() for _ in range(3)]
    assert forks == []
    assert calls == [0, 1, 2]
    assert results == [[x * x] * 3 for x in range(3)]
