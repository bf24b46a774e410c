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
def intmat_calls(monkeypatch):
    """Records calls into :mod:`mwtate.exactalg.intmat` by name.

    ``intmat_calls("column_reduce")`` starts recording that function and
    returns the list its calls go to, one ``(args, kwargs)`` pair each;
    callers inside intmat and in other modules are both seen.
    """

    def record(name) -> list:
        calls = []
        func = getattr(intmat, name)

        def counted(*args, **kwargs):
            calls.append((args, kwargs))
            return func(*args, **kwargs)

        monkeypatch.setattr(intmat, name, counted)
        return calls

    return record


@pytest.fixture
def smith_calls(intmat_calls) -> list:
    """The calls of ``intmat.smith_normal_form`` during the test."""
    return intmat_calls("smith_normal_form")


@pytest.fixture
def echelon_calls(intmat_calls) -> list:
    """The echelon passes (calls of ``intmat._echelon``) during the test."""
    return intmat_calls("_echelon")
