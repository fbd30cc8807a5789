"""Test-wide settings.

Hypothesis runs derandomized, which also turns off its example database,
so every run of the suite draws the same examples whatever `.hypothesis/`
holds. Each test keeps its own `max_examples`.
"""

from hypothesis import settings

settings.register_profile("depolcap", derandomize=True, deadline=None)
settings.load_profile("depolcap")
