"""Hypothesis settings for the whole suite.

`HYPOTHESIS_PROFILE=ci` loads the `ci` profile, which draws every `@given`
test's examples from a fixed seed (`derandomize=True`), so two runs of the
suite try the same examples and a failure found once is found again. It
changes no test's `max_examples`. Without the variable, hypothesis keeps its
default profile and draws fresh examples on every run.

pytest imports this file before any test module, so the profile is loaded
before a test's own `@settings(...)` is built, and those settings inherit it.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
