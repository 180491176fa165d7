import cmath

import numpy as np
import pytest

from skeinlab import DEPTH3_DELTA, braid_pair, delta_for_l, from_classification_data, solve_triangle
from skeinlab import shapes


@pytest.fixture(autouse=True)
def cold_shape_graph():
    """Each test starts on an empty shape graph, so the tests that count the
    engine's edge deltas see every rewrite computed in any test order."""
    shapes.graph.cache_clear()


@pytest.fixture(scope="session")
def model12():
    return from_classification_data(1.0 + np.sqrt(3.0), -1)


@pytest.fixture(scope="session")
def model_depth3():
    return from_classification_data(DEPTH3_DELTA, +1)


@pytest.fixture(scope="session")
def model_brauer():
    return from_classification_data(4.0, -1)


@pytest.fixture(scope="session")
def table12(model12):
    return solve_triangle(model12)


@pytest.fixture(scope="session")
def braid12(model12):
    q = cmath.exp(1j * cmath.pi / 12.0)
    return braid_pair(model12, q, q ** -5)


@pytest.fixture(scope="session")
def braid_depth3(model_depth3):
    q = cmath.exp(2j * cmath.pi / 7.0)
    return braid_pair(model_depth3, q, q ** 2)
