"""Session-wide test settings.

Property tests run under one hypothesis profile: examples are drawn from a
hash of each test (derandomize=True, which also turns the example database
off), so every run checks the same inputs, and there is no per-example
deadline, since a slow shared host would otherwise fail a correct test.
"""

from hypothesis import settings

settings.register_profile("albaxter", derandomize=True, deadline=None)
settings.load_profile("albaxter")
