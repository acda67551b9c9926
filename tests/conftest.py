"""Test settings shared by the whole suite.

Hypothesis draws the same examples on every run and every machine: the
"derandomized" profile seeds each test from the test itself and keeps no
example database.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
