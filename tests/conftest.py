import json

import pytest

from linkmech.cli import bundled_spec_path
from linkmech.core import validate_problem


def bundled_problem(name):
    with open(bundled_spec_path(name), encoding="utf-8") as fh:
        return validate_problem(json.load(fh))


@pytest.fixture(scope="session")
def counterexample_problem():
    return bundled_problem("counterexample")


@pytest.fixture(scope="session")
def binary_problem():
    return bundled_problem("binary")
