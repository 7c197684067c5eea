"""Hypothesis profiles.  `ci` runs the properties that leave their example
count to the profile 1,000 times each: `pytest --hypothesis-profile=ci`."""

from hypothesis import settings

settings.register_profile("ci", max_examples=1000)
