"""Shared test settings.

Property tests draw the same examples on every run, like every other
seeded computation in the package; ``deadline=None`` keeps a slow machine
from failing a correct example.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, deadline=None, database=None)
settings.load_profile("derandomized")
