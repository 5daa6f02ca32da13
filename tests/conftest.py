"""Shared fixtures."""

import numpy as np
import pytest

from ghzdist import analytics, factory


@pytest.fixture(autouse=True)
def cleared_depolarizing_table():
    """Each test starts with no factory depolarizing table, so none depends
    on which tests filled it before."""
    factory._key, factory._table = None, np.empty(0)


@pytest.fixture
def skewed_b0(monkeypatch):
    """Adds 1e-6 to the subset coefficient B_0: a fault the coefficient
    identity check must catch."""
    original = analytics.subset_coefficient_b
    monkeypatch.setattr(
        analytics,
        "subset_coefficient_b",
        lambda u_size, n: original(u_size, n) + (1e-6 if u_size == 0 else 0.0),
    )
