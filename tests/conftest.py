import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# CI: the same examples on every run, so a failure reproduces, and no
# per-example deadline, which slow shared runners would miss at random
settings.register_profile("ci", derandomize=True, deadline=None)

from obd.compiler import compile_model
from obd.dsl import parse_domain

MODELS = Path(__file__).parent.parent / "models"


@pytest.fixture(scope="session")
def toy_text() -> str:
    return (MODELS / "toy.obd").read_text()


@pytest.fixture(scope="session")
def toy_model(toy_text):
    return parse_domain(toy_text)


@pytest.fixture(scope="session")
def toy_mdp(toy_model):
    return compile_model(toy_model)


@pytest.fixture(scope="session")
def restaurant_text() -> str:
    return (MODELS / "restaurant.obd").read_text()


@pytest.fixture(scope="session")
def restaurant_model(restaurant_text):
    return parse_domain(restaurant_text)


@pytest.fixture(scope="session")
def restaurant_mdp(restaurant_model):
    return compile_model(restaurant_model)
