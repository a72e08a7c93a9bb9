"""Fixtures shared by the test modules."""

from __future__ import annotations

import pytest

from ewclab import network


@pytest.fixture
def save_unchecked(monkeypatch):
    """``save_checkpoint`` with its Fisher layout check off: it writes the
    files with a mismatched payload that ``load_checkpoint`` must reject."""

    def save(*args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(network, "_check_layout", lambda *_: None)
            network.save_checkpoint(*args, **kwargs)

    return save
