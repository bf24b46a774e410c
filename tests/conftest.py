"""Settings shared by the whole test suite.

One hypothesis profile for every property test: derandomized, so a run
is repeatable, with no example database written to the tree and no
per-example deadline, since exact arithmetic has a wide spread of
running times.
"""

from hypothesis import settings

settings.register_profile(
    "mwtate", max_examples=150, derandomize=True, database=None, deadline=None
)
settings.load_profile("mwtate")
