"""Closed diagrams rich in 3-gons: medial graphs of small convex polyhedra.

The medial graph of a polyhedron has one 4-valent vertex per polyhedron
edge; its faces are the polyhedron's faces and vertex stars, so every
triangular face and every degree-3 vertex gives a 3-gon.  The medial graph
of the tetrahedron is the octahedron.  Plus the structure-constant closures
whose values the 2-box tables give directly.

Maps are plain data: a vertex count and a list of dart pairings, dart
(vertex, slot) with slots 0..3 counterclockwise.
"""

from __future__ import annotations

import math

import numpy as np


def _pyramid(n: int):
    pts = [(math.cos(2 * math.pi * k / n), math.sin(2 * math.pi * k / n), 0.0) for k in range(n)]
    pts.append((0.0, 0.0, 1.2))
    edges = [(k, (k + 1) % n) for k in range(n)] + [(k, n) for k in range(n)]
    return pts, edges


def _prism(n: int):
    pts = [(math.cos(2 * math.pi * k / n), math.sin(2 * math.pi * k / n), z)
           for z in (0.0, 1.0) for k in range(n)]
    edges = ([(k, (k + 1) % n) for k in range(n)]
             + [(n + k, n + (k + 1) % n) for k in range(n)]
             + [(k, n + k) for k in range(n)])
    return pts, edges


def _bipyramid(n: int):
    pts = [(math.cos(2 * math.pi * k / n), math.sin(2 * math.pi * k / n), 0.0) for k in range(n)]
    pts += [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0)]
    edges = ([(k, (k + 1) % n) for k in range(n)]
             + [(k, n) for k in range(n)] + [(k, n + 1) for k in range(n)])
    return pts, edges


# name -> (points, edges); the medial graph has len(edges) vertices.
POLYHEDRA = {
    "tetrahedron": _pyramid(3),
    "square_pyramid": _pyramid(4),
    "triangular_prism": _prism(3),
    "triangular_bipyramid": _bipyramid(3),
    "pentagonal_pyramid": _pyramid(5),
    "hexagonal_pyramid": _pyramid(6),
}


def _rotation_system(pts, edges):
    """Neighbours of each vertex in counterclockwise order seen from outside."""
    p = np.array(pts, dtype=float)
    centre = p.mean(axis=0)
    nbrs = {u: [] for u in range(len(pts))}
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    rot = {}
    for u, ws in nbrs.items():
        n = p[u] - centre
        n /= np.linalg.norm(n)
        e1 = p[ws[0]] - p[u]
        e1 -= (e1 @ n) * n
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(n, e1)

        def angle(w):
            d = p[w] - p[u]
            return math.atan2(d @ e2, d @ e1) % (2 * math.pi)

        rot[u] = sorted(ws, key=angle)
    return rot


def medial_map(name: str):
    """Medial graph as (n_vertices, edge list of dart pairs).

    Medial vertex m_e of e = (u, v) has darts, counterclockwise:
    0 -> previous edge around v, 1 -> next edge around u,
    2 -> previous edge around u, 3 -> next edge around v.
    """
    pts, edges = POLYHEDRA[name]
    rot = _rotation_system(pts, edges)
    index = {frozenset(e): i for i, e in enumerate(edges)}

    def slot(e, x, which):
        u, v = edges[e]
        if x == u:
            return 1 if which == "next" else 2
        return 3 if which == "next" else 0

    pairs = []
    for x, ws in rot.items():
        k = len(ws)
        for i, w in enumerate(ws):
            e = index[frozenset((x, w))]
            f = index[frozenset((x, ws[(i + 1) % k]))]
            pairs.append(((e, slot(e, x, "next")), (f, slot(f, x, "prev"))))
    return len(edges), pairs


# Structure-constant closures: (vertex count, pairings).  Their values are
# tr(x y), tr(x * y) and tr((x * y) z) of the 2-box algebra.
PRODUCT_TRACE = (2, [((0, 1), (1, 0)), ((0, 2), (1, 3)), ((1, 2), (0, 3)), ((0, 0), (1, 1))])
COPRODUCT_TRACE = (2, [((0, 2), (1, 1)), ((0, 3), (1, 0)), ((1, 2), (1, 3)), ((0, 0), (0, 1))])
COPRODUCT_PRODUCT_TRACE = (3, [
    ((0, 2), (1, 1)), ((0, 3), (1, 0)), ((0, 1), (2, 0)),
    ((1, 2), (2, 3)), ((2, 2), (1, 3)), ((0, 0), (2, 1)),
])
