"""Hypothesis profiles: tier-1 draws the same examples on every run.

``HYPOTHESIS_PROFILE=deep`` draws new random examples on every run instead,
``DEEP`` times as many as each property's own ``max_examples``, so that
repeated local runs search further and deeper, for example
``HYPOTHESIS_PROFILE=deep python -m pytest tests/test_cli.py -k any_config``.
"""

import os

from hypothesis import settings

PROFILE = os.environ.get("HYPOTHESIS_PROFILE", "tier1")
DEEP = 10  # a deep run's examples per tier-1 example

settings.register_profile("tier1", derandomize=True)
settings.register_profile("deep", derandomize=False)
settings.load_profile(PROFILE)


def pytest_collection_modifyitems(items):
    # a property's own @settings outrank the profile, so a deep run scales
    # each one, once however many parameters it runs under
    if PROFILE != "deep":
        return
    for test in {getattr(item.obj, "__func__", item.obj) for item in items}:
        if hasattr(test, "hypothesis"):
            own = test._hypothesis_internal_use_settings
            test._hypothesis_internal_use_settings = settings(
                own, max_examples=DEEP * own.max_examples)
