"""Fixtures shared by the test modules."""

from __future__ import annotations

import os

import pytest

import ewclab
from ewclab import network


def pytest_report_header(config):
    """Name the package under test: ``pythonpath = src`` puts this
    checkout's ``src/`` ahead of ``PYTHONPATH``, so a run meant for
    another tree tests this one."""
    return f"ewclab: {os.path.dirname(ewclab.__file__)}"


@pytest.fixture
def save_unchecked(monkeypatch):
    """``save_checkpoint`` with its Fisher layout check off: it writes the
    files with a mismatched payload that ``load_checkpoint`` must reject."""

    def save(*args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(network, "_check_layout", lambda *_: None)
            network.save_checkpoint(*args, **kwargs)

    return save


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Every test reaps the processes it starts."""
    yield
    if not hasattr(os, "fork"):
        return
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail("the test left a child process behind")


@pytest.fixture(autouse=True)
def no_descriptor_left():
    """Every test closes the file descriptors it opens."""
    if not os.path.isdir("/proc/self/fd"):
        yield
        return
    before = set(os.listdir("/proc/self/fd"))
    yield
    left = set(os.listdir("/proc/self/fd")) - before
    if left:
        pytest.fail(f"the test left file descriptors {sorted(left, key=int)} open")
