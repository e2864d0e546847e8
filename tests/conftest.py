"""Fixed hypothesis draws: every ``@given`` test draws the same examples on
every run, and no example database is read or written."""

from hypothesis import settings

settings.register_profile("fixed", derandomize=True, database=None)
settings.load_profile("fixed")
