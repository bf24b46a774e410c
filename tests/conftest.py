"""Settings shared by the whole test suite.

One hypothesis profile for every property test: derandomized, so a run
is repeatable, with no example database written to the tree and no
per-example deadline, since exact arithmetic has a wide spread of
running times.
"""

import pytest
from hypothesis import settings

from mwtate.exactalg import intmat

settings.register_profile(
    "mwtate", max_examples=150, derandomize=True, database=None, deadline=None
)
settings.load_profile("mwtate")


@pytest.fixture
def smith_calls(monkeypatch) -> list:
    """The matrices ``intmat._smith`` is called on during the test."""
    calls = []
    smith = intmat._smith

    def counted(m, **transforms):
        calls.append(m)
        return smith(m, **transforms)

    monkeypatch.setattr(intmat, "_smith", counted)
    return calls
