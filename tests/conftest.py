import numpy as np
import pytest
from hypothesis import settings

from permutent import combinatorics

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture
def fresh_log2_table(monkeypatch):
    """Call to restart the shared log-factorial table from 0!; restored after the test."""

    def reset():
        monkeypatch.setattr(combinatorics, "_log2_fact", np.zeros(1))
        monkeypatch.setattr(combinatorics, "_log2_fact_last", np.longdouble(0.0))

    return reset
