"""Diagram builders shared across the test modules."""

import math

import numpy as np

from skeinlab import Diagram, Vertex
from skeinlab.errors import MalformedPairing, NonPlanar, ShadingInconsistent, SkeinlabError


def trace_closure(coeffs):
    """Single vertex with darts (0,1) and (2,3) capped; evaluates to tr(x)."""
    d = Diagram({0: Vertex(tuple(coeffs))}, {})
    d.add_edge((0, 0), (0, 1))
    d.add_edge((0, 2), (0, 3))
    return d.infer_shading()


def rotated_trace_closure(coeffs):
    """Caps on (1,2) and (3,0); evaluates to tr(F(x))."""
    d = Diagram({0: Vertex(tuple(coeffs))}, {})
    d.add_edge((0, 1), (0, 2))
    d.add_edge((0, 3), (0, 0))
    return d.infer_shading()


def product_trace_closure(x, y):
    """Closed diagram of tr(x y)."""
    d = Diagram({0: Vertex(tuple(x)), 1: Vertex(tuple(y))}, {})
    for a, b in [((0, 1), (1, 0)), ((0, 2), (1, 3)), ((1, 2), (0, 3)), ((0, 0), (1, 1))]:
        d.add_edge(a, b)
    return d.infer_shading()


def coproduct_trace_closure(x, y):
    """Closed diagram of tr(x * y) (coproduct)."""
    d = Diagram({0: Vertex(tuple(x)), 1: Vertex(tuple(y))}, {})
    for a, b in [((0, 2), (1, 1)), ((0, 3), (1, 0)), ((1, 2), (1, 3)), ((0, 0), (0, 1))]:
        d.add_edge(a, b)
    return d.infer_shading()


def coproduct_product_trace_closure(x, y, z):
    """Closed diagram of tr((x * y) z)."""
    d = Diagram({0: Vertex(tuple(x)), 1: Vertex(tuple(y)), 2: Vertex(tuple(z))}, {})
    for a, b in [
        ((0, 2), (1, 1)),
        ((0, 3), (1, 0)),
        ((0, 1), (2, 0)),
        ((1, 2), (2, 3)),
        ((2, 2), (1, 3)),
        ((0, 0), (2, 1)),
    ]:
        d.add_edge(a, b)
    return d.infer_shading()


def random_diagram(rng, max_vertices=5):
    """Rejection-sample a valid closed planar diagram with random labels,
    or None when the random pairing is non-planar."""
    nv = int(rng.integers(1, max_vertices + 1))
    darts = [(v, s) for v in range(nv) for s in range(4)]
    perm = rng.permutation(len(darts))
    d = Diagram({v: Vertex(tuple(rng.normal(size=3))) for v in range(nv)}, {})
    try:
        for i in range(0, len(darts), 2):
            d.add_edge(darts[perm[i]], darts[perm[i + 1]])
        d = d.infer_shading()
        d.validate()
        return d
    except SkeinlabError:
        return None


def random_diagram_corpus(rng, count, max_vertices=5):
    out = []
    while len(out) < count:
        d = random_diagram(rng, max_vertices)
        if d is not None:
            out.append(d)
    return out


_OCTA_COORDS = {
    0: (0.0, 2.0),
    1: (-2.0, -1.0),
    2: (2.0, -1.0),
    3: (-0.5, 0.35),
    4: (0.0, -0.55),
    5: (0.5, 0.35),
}
_OCTA_ADJ = {
    0: [1, 2, 3, 5],
    1: [0, 2, 3, 4],
    2: [0, 1, 4, 5],
    3: [4, 5, 0, 1],
    4: [3, 5, 1, 2],
    5: [4, 3, 2, 0],
}


def octahedron_diagram(labels):
    """The all-triangle 6-vertex map (outer triangle 0,1,2 around inner
    triangle 3,4,5), dart order at each vertex from the planar drawing."""
    slots = {}
    for v, nbrs in _OCTA_ADJ.items():
        x, y = _OCTA_COORDS[v]
        order = sorted(
            nbrs,
            key=lambda w: math.atan2(_OCTA_COORDS[w][1] - y, _OCTA_COORDS[w][0] - x),
        )
        for s, w in enumerate(order):
            slots[(v, w)] = s
    d = Diagram({v: Vertex(tuple(labels[v])) for v in range(6)}, {})
    done = set()
    for v, nbrs in _OCTA_ADJ.items():
        for w in nbrs:
            if (w, v) in done:
                continue
            done.add((v, w))
            d.add_edge((v, slots[(v, w)]), (w, slots[(w, v)]))
    return d.infer_shading()


def reference_validate(d, check_shading=True):
    """The multi-scan `Diagram.validate` that the one-pass walk replaced,
    kept as a test oracle: pairing checks, then `faces()`, `components()`,
    one edge scan and one dart scan per component, then the shading of
    every face."""
    all_darts = set(d.darts())
    for a, b in d.edges.items():
        if a not in all_darts or b not in all_darts:
            raise MalformedPairing(f"edge endpoint {a if a not in all_darts else b} unknown")
        if a == b:
            raise MalformedPairing(f"self-paired dart {a}")
        if d.edges.get(b) != a:
            raise MalformedPairing("pairing is not an involution")
    missing = [x for x in all_darts if x not in d.edges]
    if missing:
        raise MalformedPairing(f"unpaired darts {sorted(missing)[:4]}")
    if d.free_loops < 0:
        raise MalformedPairing("negative free loop count")

    faces = d.faces()
    face_of = {}
    for i, f in enumerate(faces):
        for x in f:
            face_of[x] = i
    for comp in d.components():
        v = len(comp)
        e = sum(1 for (a, _), (b, _) in d.edges.items() if a in comp) // 2
        f = len({face_of[x] for x in face_of if x[0] in comp})
        if v - e + f != 2:
            raise NonPlanar(f"component {sorted(comp)}: V-E+F = {v - e + f} != 2")

    if check_shading:
        for face in faces:
            # Parity of the region after dart s, as in Diagram.validate.
            parities = {(d.vertices[v].shading0 + s + 1) % 2 for v, s in face}
            if len(parities) > 1:
                raise ShadingInconsistent(f"face {face} mixes shading parities")
