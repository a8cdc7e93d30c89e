import numpy as np
import pytest
from hypothesis import settings

from framefield.construct import haar_bank
from framefield.galois import FieldParams

# fixed example sets keep the suite deterministic and its run time bounded
settings.register_profile(
    "framefield", derandomize=True, deadline=None, max_examples=40, database=None
)
settings.load_profile("framefield")


@pytest.fixture(scope="session")
def p2():
    return FieldParams(2, 1)


@pytest.fixture(scope="session")
def p3():
    return FieldParams(3, 1)


@pytest.fixture(scope="session")
def gf4():
    return FieldParams(2, 2)


@pytest.fixture(scope="session")
def haar2(p2):
    return haar_bank(p2)


@pytest.fixture(scope="session")
def haar3(p3):
    return haar_bank(p3)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
