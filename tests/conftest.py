"""Suite-wide settings.

Hypothesis runs derandomized: every run draws the same examples and keeps
no example database, so the property tests are as deterministic as the
rest of the tier-1 suite.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
