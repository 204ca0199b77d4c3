"""Fixtures shared by several test files."""

import numpy as np
import pytest

from gesbn import scoring


@pytest.fixture
def bounded_bincount(monkeypatch):
    """np.bincount that fails, before it allocates anything, when asked
    for a table wider than scoring.MAX_TABLE_CELLS, so that a test of a
    refused table never builds it, even when the refusal is broken."""
    bincount = np.bincount

    def guarded(x, weights=None, minlength=0):
        assert minlength <= scoring.MAX_TABLE_CELLS, f"asked for a {minlength}-cell table"
        return bincount(x, weights=weights, minlength=minlength)

    monkeypatch.setattr(np, "bincount", guarded)
