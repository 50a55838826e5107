from pathlib import Path

import numpy as np
import pytest

from blockspectra import make_case

TESTS = Path(__file__).parent


def pytest_collection_modifyitems(items):
    """Any warning fails a test under tests/; a test's own filterwarnings mark still applies."""
    for item in items:
        if TESTS in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error"), append=False)


@pytest.fixture(scope="session")
def case3():
    return make_case(3, seed=0)


@pytest.fixture(scope="session")
def case4():
    return make_case(4, seed=0)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
