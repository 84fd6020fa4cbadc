"""Shared Hypothesis settings: every property test is seeded and derandomized."""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")
