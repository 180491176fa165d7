"""Diagram builders and test oracles shared across the test modules."""

import itertools
import math
from collections import defaultdict

import numpy as np

from skeinlab import DEPTH3_DELTA, Diagram, Tolerance, Vertex, delta_for_l
from skeinlab.errors import (
    InvariantViolation,
    MalformedPairing,
    NonPlanar,
    ShadingInconsistent,
    SkeinlabError,
)
from skeinlab.threebox import (
    GramMatrix,
    _basis_shapes,
    _braid_wiring,
    _labelled,
    _solve,
    expand,
    mirror,
)


# -- the loci of the golden reports, and residuals pushed off them ---------

FIXTURE_LOCI = {
    "depth3": DEPTH3_DELTA,
    "l12": delta_for_l(12),
    "l100": delta_for_l(100),
    "delta5": 5.0,
    "delta11": 11.0,
}

# Relative perturbations of a parameter, smallest first, up to 1e-6.
PERTURBATIONS = [10.0**-k for k in range(13, 5, -1)]


def first_over(limit, residual):
    """The smallest perturbation eps whose residual(eps) is at or over
    limit, or None."""
    return next((eps for eps in PERTURBATIONS if not residual(eps) < limit), None)


# -- pairings computed two ways agree to roundoff --------------------------

# The programs of `skein._run` drop nothing and the FormalSum engine drops
# terms at its `Tolerance.SUM_DROP` floor, so a pairing <x, D_j> from each agrees to
# ROUNDOFF times its Cauchy-Schwarz bound sqrt(<x, x> G_jj).
ROUNDOFF = 1e-15


def cauchy_schwarz(g, v=None):
    """sqrt(<x, x> G_jj), the bound of |<x, D_j>|, from the Gram entries g:
    as a 14 x 14 array over x = D_i when v is None, else for the one pattern
    x whose pairings with the basis are v, <x, x> = c G c* from its
    expansion c (G^T c = v)."""
    diag = np.abs(np.diagonal(g))
    if v is None:
        return np.sqrt(np.outer(diag, diag))
    c = _solve(GramMatrix(g), v)
    return np.sqrt(abs(c @ g @ c.conj()) * diag)


# -- the 2-box structure constants as numpy arrays -------------------------
#
# The paper's formulas over the basis (e, P1, P2), written out again as
# arrays: references for the tuples `TwoBoxModel` keeps.


def rotation_matrix(model):
    """The one-click rotation: rotation_matrix(m) @ x is the coefficient
    triple of x turned one click."""
    d, a, b, sg = model.delta, model.a, model.b, model.sigma
    s = a + b
    return np.array(
        [
            [1.0 / d, a * (d - 1.0 / d) / s, b * (d - 1.0 / d) / s],
            [1.0 / d, (-a / d + sg * b) / s, (-b / d - sg * b) / s],
            [1.0 / d, (-a / d - sg * a) / s, (-b / d + sg * a) / s],
        ]
    )


def trace_vector(model):
    """tr(x) = trace_vector(m) @ x: tr(e) = 1, tr(P1) = a, tr(P2) = b."""
    return np.array([1.0, model.a, model.b])


def coproduct_tensor(model):
    """cop[i, j] is the coproduct of basis elements i and j: delta^-1 times
    the unit on e, and the depth-3 fusion rules on (P1, P2)."""
    d, a, b = model.delta, model.a, model.b
    cop = np.zeros((3, 3, 3))
    cop[0, 0] = (1.0 / d, 0.0, 0.0)
    cop[0, 1] = cop[1, 0] = (0.0, 1.0 / d, 0.0)
    cop[0, 2] = cop[2, 0] = (0.0, 0.0, 1.0 / d)
    cop[1, 1] = (a / d, 0.0, (a * a - a) / (d * b))
    cop[1, 2] = cop[2, 1] = (0.0, (a - 1.0) / d, (a * b - a * a + a) / (d * b))
    cop[2, 2] = (b / d, (b - a + 1.0) / d, (b * b - b - a * b + a * a - a) / (d * b))
    return cop


def reference_id_e_t_decomposition(model, coeffs):
    """`skein._id_e_t_decomposition` as a 3x3 solve, kept as a test oracle:
    (alpha, beta, gamma) with coeffs = alpha id + beta e + gamma T, where
    T = bP1 - aP2."""
    m = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, model.b], [1.0, 0.0, -model.a]], dtype=complex)
    return tuple(np.linalg.solve(m, np.array(coeffs, dtype=complex)))


# -- closed diagrams ------------------------------------------------------


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


# Plane straight-line drawings of small polyhedra (one face outside):
# name -> (vertex coordinates, edges).
SCHLEGEL = {
    "tetrahedron": (
        {0: (0.0, 2.0), 1: (-2.0, -1.0), 2: (2.0, -1.0), 3: (0.0, 0.0)},
        [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (2, 3)],
    ),
    "square_pyramid": (
        {0: (-1.0, -1.0), 1: (1.0, -1.0), 2: (1.0, 1.0), 3: (-1.0, 1.0), 4: (0.0, 0.0)},
        [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (1, 4), (2, 4), (3, 4)],
    ),
    "triangular_prism": (
        {0: (0.0, 2.0), 1: (-2.0, -1.0), 2: (2.0, -1.0),
         3: (0.0, 0.7), 4: (-0.6, -0.35), 5: (0.6, -0.35)},
        [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)],
    ),
}


def medial_diagram(name, labels):
    """The medial map of a polyhedron in SCHLEGEL: one vertex per edge, one
    face per polyhedron face and per polyhedron vertex, so every triangle
    and every degree-3 vertex gives a 3-gon.  Vertex i sits on edge
    (u, v) = edges[i]; its darts, counterclockwise, run to the edges before
    u around v, after v around u, before v around u and after u around v."""
    coords, edges = SCHLEGEL[name]
    index = {frozenset(e): i for i, e in enumerate(edges)}

    def dart(x, w, after):
        """The dart of the vertex on edge xw that lies after (or before)
        that edge around x."""
        i = index[frozenset((x, w))]
        at_u = edges[i][0] == x
        return (i, (1 if after else 2) if at_u else (3 if after else 0))

    d = Diagram({i: Vertex(tuple(labels[i])) for i in range(len(edges))}, {})
    for x, (px, py) in coords.items():
        nbrs = sorted(
            (b if a == x else a for a, b in edges if x in (a, b)),
            key=lambda w: math.atan2(coords[w][1] - py, coords[w][0] - px),
        )
        for a, b in zip(nbrs, nbrs[1:] + nbrs[:1]):
            d.add_edge(dart(x, a, True), dart(x, b, False))
    return d.infer_shading()


def renumbered(d, rng):
    """d with its vertices renumbered to seeded sparse ids, listed in a
    seeded order."""
    ids = rng.choice(10 * len(d.vertices) + 10, size=len(d.vertices), replace=False)
    new = {v: int(i) for v, i in zip(d.vertices, ids)}
    order = [list(d.vertices)[k] for k in rng.permutation(len(d.vertices))]
    return Diagram(
        {new[v]: d.vertices[v] for v in order},
        {(new[a], sa): (new[b], sb) for (a, sa), (b, sb) in d.edges.items()},
        d.free_loops,
    )


def disjoint_union(*parts, free_loops=0):
    """The diagrams side by side, vertex ids shifted apart."""
    out = Diagram({}, {}, free_loops)
    for d in parts:
        shift = max(out.vertices, default=-1) + 1 - min(d.vertices, default=0)
        out.vertices.update({v + shift: vert for v, vert in d.vertices.items()})
        out.edges.update({(a + shift, sa): (b + shift, sb) for (a, sa), (b, sb) in d.edges.items()})
        out.free_loops += d.free_loops
    return out


def reference_walk_connections(connections, is_connector):
    """`skein.walk_connections` before it classified each node once, kept
    as a test oracle: the same pairs in the same order, the same loop count
    and the same errors.  Resolve chains through degree-2 connector nodes;
    returns the terminal pairings and the number of connector-only cycles."""
    adj = defaultdict(list)
    for cid, (a, b) in enumerate(connections):
        adj[a].append((cid, b))
        adj[b].append((cid, a))

    for node, links in adj.items():
        want = 2 if is_connector(node) else 1
        if len(links) != want:
            raise InvariantViolation(f"node {node} has {len(links)} links, wants {want}")

    used: set[int] = set()
    pairs = []
    for node in list(adj):
        if is_connector(node) or any(cid in used for cid, _ in adj[node]):
            continue
        cid, cur = adj[node][0]
        used.add(cid)
        while is_connector(cur):
            nxt = [(c, o) for c, o in adj[cur] if c not in used]
            if not nxt:
                raise InvariantViolation("dangling connector walk")
            cid, cur = nxt[0]
            used.add(cid)
        pairs.append((node, cur))

    loops = 0
    for cid0, (_, cur) in enumerate(connections):
        if cid0 in used:
            continue
        # connector-only cycle
        used.add(cid0)
        while True:
            nxt = [(c, o) for c, o in adj[cur] if c not in used]
            if not nxt:
                break
            cid, cur = nxt[0]
            used.add(cid)
        loops += 1
    return pairs, loops


def reference_faces(d):
    """`Diagram.faces` before it inlined the face permutation, kept as a
    test oracle: orbits of phi(v, s) = partner(v, s+1), started from the
    darts in vertex order; each corner (v, s) stands for the region
    counterclockwise after dart s."""

    def phi(x):
        v, slot = x
        return d.edges[(v, (slot + 1) % 4)]

    seen = set()
    out = []
    for start in ((v, slot) for v in d.vertices for slot in range(4)):
        if start in seen:
            continue
        orbit = []
        x = start
        while True:
            orbit.append(x)
            seen.add(x)
            x = phi(x)
            if x == start:
                break
            if x in seen:
                raise MalformedPairing("face permutation is not a permutation")
        out.append(orbit)
    return out


def reference_normalized(s):
    """`FormalSum.normalized` with every term keyed by
    `reference_canonical_key`, kept as a test oracle: the terms of equal key
    summed onto the first one, in first-seen order, then the terms under
    `Tolerance.SUM_DROP` times the largest dropped.  Returns the (coefficient,
    diagram) list."""
    buckets = {}
    for coeff, diag in s.terms:
        key = reference_canonical_key(diag)
        if key in buckets:
            prev, d0 = buckets[key]
            buckets[key] = (prev + coeff, d0)
        else:
            buckets[key] = (complex(coeff), diag)
    scale = max([abs(c) for c, _ in buckets.values()], default=1.0)
    return [(c, d) for c, d in buckets.values() if abs(c) > Tolerance.SUM_DROP * max(1.0, scale)]


def reference_canonical_key(d):
    """The all-starts `Diagram.canonical_key` that the minimal-label search
    replaced, kept as a test oracle: a BFS from every vertex, each label
    keyed again for every start (exact coefficients, signed zeros merged,
    then the shading bit) without reading `Vertex.key`, and components
    keyed the same way."""

    def label_key(vert):
        return tuple((c.real + 0.0, c.imag + 0.0) for c in vert.coeffs) + (vert.shading0,)

    if not d.vertices:
        return ("empty", d.free_loops)
    best = None
    for start in d.vertices:
        order = {start: 0}
        queue = [start]
        while queue:
            v = queue.pop(0)
            for slot in range(4):
                w, _ = d.edges[(v, slot)]
                if w not in order:
                    order[w] = len(order)
                    queue.append(w)
        if len(order) < len(d.vertices):
            parts = []
            for comp in d.components():
                sub = Diagram(
                    {v: d.vertices[v] for v in comp},
                    {a: b for a, b in d.edges.items() if a[0] in comp},
                    0,
                )
                parts.append(reference_canonical_key(sub))
            return ("multi", d.free_loops, tuple(sorted(map(repr, parts))))
        enc = []
        for v in sorted(order, key=order.get):
            enc.append(label_key(d.vertices[v]))
            for slot in range(4):
                w, wslot = d.edges[(v, slot)]
                enc.append((order[w], wslot))
        key = tuple(enc)
        if best is None or key < best:
            best = key
    return ("diagram", d.free_loops, best)


def reference_surgery(diagram, removed, inner, new_vertices=None, new_edges=None):
    """The full-scan surgery that the engine's edge delta (`skein._delta`,
    applied by `skein._rebuild`) replaced, kept as a test oracle: every
    edge of the diagram is scanned for removed darts, and the result is
    built edge by edge.  Returns it and the number of loops closed."""
    new_vertices = new_vertices or {}
    new_edges = new_edges or []

    def is_connector(d):
        return d[0] in removed

    connections = list(itertools.chain(inner, new_edges))
    linked = {d for pair in connections for d in pair if is_connector(d)}
    seen_pairs = set()
    for a, b in diagram.edges.items():
        if (b, a) in seen_pairs:
            continue
        seen_pairs.add((a, b))
        a_rm, b_rm = is_connector(a), is_connector(b)
        if not a_rm and not b_rm:
            continue
        dead_a = a_rm and a not in linked
        dead_b = b_rm and b not in linked
        if dead_a or dead_b:
            if not (dead_a and dead_b):
                raise InvariantViolation("half-dead edge in surgery")
            continue
        connections.append((a, b))

    paired, loops = reference_walk_connections(connections, is_connector)
    result = Diagram(
        {v: vert for v, vert in diagram.vertices.items() if v not in removed},
        {},
        diagram.free_loops + loops,
    )
    result.vertices.update(new_vertices)
    for a, b in diagram.edges.items():
        if not is_connector(a) and not is_connector(b) and a < b:
            result.add_edge(a, b)
    for a, b in paired:
        result.add_edge(a, b)
    return result, loops


def reference_validate(d, check_shading=True):
    """A multi-scan `Diagram.validate`, kept as a test oracle: pairing
    checks, then `reference_faces`, `components()`, one edge scan and one dart scan
    per component, then the shading of every face.  It does not check that
    labels are finite."""
    all_darts = {(v, slot) for v in d.vertices for slot in range(4)}
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

    faces = reference_faces(d)
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


def reference_closure(x, y):
    """`threebox.closure` as it wired the two patterns before
    `threebox.wiring`, kept as a test oracle: glue point by glue point, each
    side with its own arc dedup."""
    ym = mirror(y)
    off = max((vid for vid, _ in x.vertices), default=-1) + 1
    vertices = {vid: v for vid, v in x.vertices}
    vertices.update({vid + off: v for vid, v in ym.vertices})
    connections = []
    arc_seen = set()
    for i in range(6):
        att = x.boundary[i]
        if att[0] == "v":
            connections.append((("g", i), (att[1], att[2])))
        else:
            pair = tuple(sorted((i, att[1])))
            if ("x",) + pair not in arc_seen:
                arc_seen.add(("x",) + pair)
                connections.append((("g", pair[0]), ("g", pair[1])))
        # mirror-y side: its boundary point p sits on glue point 5-p
        att = ym.boundary[5 - i]
        if att[0] == "v":
            connections.append((("g", i), (att[1] + off, att[2])))
        else:
            pair = tuple(sorted((i, 5 - att[1])))
            if ("y",) + pair not in arc_seen:
                arc_seen.add(("y",) + pair)
                connections.append((("g", pair[0]), ("g", pair[1])))
    pairs, loops = reference_walk_connections(connections, lambda n: n[0] == "g")
    d = Diagram(vertices, {}, loops)
    for (a, sa), (b, sb) in x.internal_edges:
        d.add_edge((a, sa), (b, sb))
    for (a, sa), (b, sb) in ym.internal_edges:
        d.add_edge((a + off, sa), (b + off, sb))
    for a, b in pairs:
        d.add_edge(a, b)
    d.validate(check_shading=False)
    return d.infer_shading()


def reference_substitute_triangle(coeff, diag, corners, triangle):
    """`skein._substitute_triangle` as it wired each table pattern into the
    3-gon's hole before `threebox.wiring`, with the full-scan surgery and
    shading inference of each child, kept as a test oracle."""
    ext = []
    for u, d in (corners[0], corners[2], corners[1]):
        ext.append((u, (d + 2) % 4))
        ext.append((u, (d + 3) % 4))
    removed = {u for u, _ in corners}
    nid0 = max(itertools.chain(diag.vertices, [0])) + 1
    floor = Tolerance.TABLE_DROP * max(1.0, float(np.max(np.abs(triangle.left_coeffs))))
    out = []
    patterns = [_labelled(shape, triangle.generator) for shape in _basis_shapes()[0]]
    for c_i, pattern in zip(triangle.left_coeffs, patterns):
        if abs(c_i) < floor:
            continue
        new_vertices = {}
        new_edges = []
        vid_map = {}
        for pv, vert in dict(pattern.vertices).items():
            vid_map[pv] = nid0 + pv
            new_vertices[nid0 + pv] = vert
        for (pa, sa), (pb, sb) in pattern.internal_edges:
            new_edges.append(((vid_map[pa], sa), (vid_map[pb], sb)))
        arcs_done = set()
        for i, att in enumerate(pattern.boundary):
            if att[0] == "v":
                _, pv, slot = att
                new_edges.append((ext[i], (vid_map[pv], slot)))
            else:
                j = att[1]
                if (min(i, j), max(i, j)) in arcs_done:
                    continue
                arcs_done.add((min(i, j), max(i, j)))
                new_edges.append((ext[i], ext[j]))
        reduced, _ = reference_surgery(diag, removed, [], new_vertices, new_edges)
        out.append((coeff * c_i, reduced.infer_shading()))
    return out


def same_wiring(got, want):
    """Equal vertex order and labels, edge pairs as a set, and free loops."""
    return (
        list(got.vertices.items()) == list(want.vertices.items())
        and got.edges == want.edges
        and got.free_loops == want.free_loops
    )


def braid_pattern(model, braid, side, roots=(0, 0, 0)):
    """Side "A" or "B" of the Yang-Baxter equation with the braid label U on
    every crossing, re-rooted by roots[i] clicks at vertex i: an odd root
    carries rotate(U), as two clicks leave U as it is."""
    u = braid.U
    return _braid_wiring(side, roots, [(model.rotate(u) if k % 2 else u).coeffs for k in roots])


def reference_ybe_residual(model, braid, gm, roots_a=(0, 0, 0), roots_b=(0, 0, 0)):
    """The Yang-Baxter residual with both sides built and each paired with
    all 14 basis patterns and expanded on its own, as before side B's
    pairings were read off side A's by the turn; the per-vertex root offsets
    re-root the crossings of each side; gm is the Gram matrix."""
    pa = braid_pattern(model, braid, "A", roots_a)
    pb = braid_pattern(model, braid, "B", roots_b)
    ca, _ = expand(model, pa, gm)
    cb, _ = expand(model, pb, gm)
    d = ca - cb
    g = gm.entries
    val = complex(d.conj() @ g @ d)
    scale = max(1.0, abs(complex(ca.conj() @ g @ ca)))
    return float(np.sqrt(max(val.real, 0.0)) / np.sqrt(scale))
