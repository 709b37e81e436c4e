import json
import os

import pytest
from hypothesis import settings

from linkmech.cli import bundled_spec_path
from linkmech.core import validate_problem

# The default test run draws the same Hypothesis examples every time, so its
# verdict repeats; HYPOTHESIS_PROFILE=default draws fresh random examples.
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))


def bundled_problem(name):
    with open(bundled_spec_path(name), encoding="utf-8") as fh:
        return validate_problem(json.load(fh))


@pytest.fixture(scope="session")
def counterexample_problem():
    return bundled_problem("counterexample")


@pytest.fixture(scope="session")
def binary_problem():
    return bundled_problem("binary")
