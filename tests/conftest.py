"""Shared pytest configuration.

Property tests run under one hypothesis profile: no per-example deadline,
because dense D^3 examples vary in time with host load, and derandomized
search, so every run draws the same examples.
"""

from hypothesis import settings

settings.register_profile("cqlab", deadline=None, derandomize=True)
settings.load_profile("cqlab")
