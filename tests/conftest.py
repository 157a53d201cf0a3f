"""Shared test settings.

Property tests run derandomized, without an example database and without a
per-example deadline, so a tier-1 run draws the same examples every time and
a slow host cannot turn a correct example into a failure.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, deadline=None, database=None)
settings.load_profile("derandomized")
