"""Fixtures shared by the test modules."""

import pytest

from opshort import numkit


@pytest.fixture
def fresh_memo(monkeypatch):
    """An empty process memo, so a test that counts decodes, validations,
    drivers or A : B computations sees every one whatever ran before it."""
    monkeypatch.setattr(numkit, "_memo", numkit._Memo())
