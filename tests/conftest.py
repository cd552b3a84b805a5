"""Hypothesis runs the same examples on every run of the suite.

``derandomize=True`` draws each property test's examples from a seed derived
from the test itself, and ``database=None`` keeps examples saved by an earlier
run (in ``.hypothesis/``) from changing what the next run tries.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
