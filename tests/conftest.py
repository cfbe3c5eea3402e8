"""Hypothesis profiles: tier-1 draws the same examples on every run.

``HYPOTHESIS_PROFILE=deep`` draws new random examples on every run instead,
so that repeated local runs search further, for example
``HYPOTHESIS_PROFILE=deep python -m pytest tests/test_cli.py -k any_config``.
"""

import os

from hypothesis import settings

settings.register_profile("tier1", derandomize=True)
settings.register_profile("deep", derandomize=False)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))
