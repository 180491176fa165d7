import cmath

import numpy as np
import pytest

from helpers import (
    coproduct_product_trace_closure,
    coproduct_trace_closure,
    disjoint_union,
    medial_diagram,
    octahedron_diagram,
    rotated_trace_closure,
    trace_closure,
)
from skeinlab import DEPTH3_DELTA, braid_pair, from_classification_data, gram, solve_triangle
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
def gram12(model12):
    return gram(model12)


@pytest.fixture(scope="session")
def table12(model12, gram12):
    return solve_triangle(model12, gram12)


@pytest.fixture(scope="session")
def braid12(model12):
    q = cmath.exp(1j * cmath.pi / 12.0)
    return braid_pair(model12, q, q ** -5)


@pytest.fixture(scope="session")
def braid_depth3(model_depth3):
    q = cmath.exp(2j * cmath.pi / 7.0)
    return braid_pair(model_depth3, q, q ** 2)


@pytest.fixture(scope="module")
def triangle_rich(model12):
    """3-gon-rich diagrams by name: tied labels (the exact generator on
    every vertex), mixed and generic labels, self-loops, and disconnected
    diagrams with free loops."""
    g = model12.uncappable().coeffs
    rng = np.random.default_rng(11)

    def labels(n, kind):
        if kind == "tied":
            return [g] * n
        if kind == "mixed":
            return [g if v % 2 == 0 else tuple(rng.normal(size=3)) for v in range(n)]
        return [tuple(rng.normal(size=3)) for _ in range(n)]

    out = {}
    for kind in ("tied", "mixed", "generic"):
        out[f"octahedron-{kind}"] = octahedron_diagram(labels(6, kind))
        out[f"square_pyramid-{kind}"] = medial_diagram("square_pyramid", labels(8, kind))
    out["triangular_prism-tied"] = medial_diagram("triangular_prism", labels(9, "tied"))
    out["triangular_prism-mixed"] = medial_diagram("triangular_prism", labels(9, "mixed"))
    out["tetrahedron-mixed"] = medial_diagram("tetrahedron", labels(6, "mixed"))
    x, y, z, w = labels(4, "generic")
    out["self-loops"] = disjoint_union(
        trace_closure(x), rotated_trace_closure(y), coproduct_trace_closure(z, w)
    )
    out["disconnected"] = disjoint_union(
        octahedron_diagram(labels(6, "tied")),
        coproduct_product_trace_closure(g, g, labels(1, "generic")[0]),
        trace_closure(labels(1, "generic")[0]),
        free_loops=2,
    )
    return out
