"""Hypothesis runs derandomized: every tier-1 run draws the same examples,
whatever the run's seed and whatever the local example database holds."""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")
