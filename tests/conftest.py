"""Fixtures shared by the test modules."""

import collections

import pytest


@pytest.fixture
def equation_scans(monkeypatch) -> collections.Counter:
    """Each extension equation's scans by name, counted from the fixture's
    start by wrapping the entries of ``extension._EQUATIONS``."""
    from sympleib import extension

    scans = collections.Counter()
    for name, run in list(extension._EQUATIONS.items()):
        def counted(e, eq_name, _run=run):
            scans[eq_name] += 1
            return _run(e, eq_name)
        monkeypatch.setitem(extension._EQUATIONS, name, counted)
    return scans
