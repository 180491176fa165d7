"""Evaluation of closed planar diagrams (`diagram.Diagram`) by face
reduction.  Evaluation repeatedly removes a face with at most three sides:

  * free loop      -> factor delta
  * 1-gon          -> cap functional of the vertex label
  * 2-gon          -> fuse the two vertices into one labeled by the product
                      of suitably rotated labels
  * 3-gon          -> expand labels over {id, e, T} and substitute the
                      supplied triangle table for the pure-generator case

Each rewrite strictly decreases (vertex count, edge count), so evaluation
terminates.  A formal sum merges terms by `Diagram.canonical_key`, whose
exact label keys merge only terms with equal labels.  Equal keys imply an
equal invariant (free loops, vertex count, sum of the label keys' hashes),
so `FormalSum.normalized` keys only the terms whose invariant another term
of the sum shares; about half the terms of a 3-gon-rich reduction have an
invariant of their own and skip the key's BFS.

Every rewrite comes in two halves.  The shape half picks the face and
computes the rewrite's record: for a 1-gon or 2-gon an op (cap vertex u
on a dart pair, or fuse u and v into a new vertex, with the re-root
parities and sides), then the edge delta of `_delta`, which visits only
the darts of the removed vertices and returns the loops closed and the
dart pairs its connector walk made; `walk_connections` classifies each
node of the walk once.  A 3-gon has a record per id/e/T
choice and per basis pattern wired into its hole, the last headed by the
shading bits that inference gives the pattern's vertices; the basis
shapes are `threebox._basis_shapes`, the same for every table, whose
generator labels each new vertex.  The number half
applies an op to labels, held as plain tuples of three complex
coefficients: the cap scalar, or the product label, from the model's
rotation and cap rows and the elementwise product of
`twobox.product_coeffs`.  `_rebuild` makes every child term from its
parent term and the record: the edge map is copied as it stands, the
removed vertices' darts drop out and the delta is applied.

`evaluate` is the FormalSum engine: it validates every input, then reduces
fresh copies of its vertices term by term.  A child term shares the
vertices it keeps with its parent, so each vertex's label key is computed
once, and none is left on the caller's vertices.  The engine keeps the
records in the process-wide graph of `shapes`: a node per label-free
shape (vertex ids in order, their shading bits, the dart pairing) holds
its engine face and, for each rewrite taken from it, the record and the
child node.  A rewrite taken again reuses its record, with no delta, face
walk or shading inference.  `evaluate` looks the root node up by the
input's content after validating it and attaches nothing to it.  The
graph is dropped whole when it reaches `shapes.SHAPE_CACHE_NODES` nodes,
and a call with a `chooser` neither reads nor writes it.

A diagram whose reduction never meets a 3-gon has a fixed op sequence,
its plan, that depends only on its shape (vertex ids, shading bits, dart
pairing, free loops).  `_plan` takes it from a valid diagram with the
shape half.  `_compile` turns plans, each vertex mapped to one of a few
leaf labels, into one straight-line program, and `_run` evaluates it with
the number half and the engine's zero-drop of a single term, each
distinct cap, rotation and fusion once: threebox pairs the basis in three
programs of 14 to 40 closures.  `_size` raises the same NonFiniteScalar,
in the same words, on both evaluators; `threebox.inner` is the engine.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import shapes
from .diagram import Dart, Diagram, Vertex
from .errors import (
    InvariantViolation,
    MalformedPairing,
    NonFiniteScalar,
    SideMismatch,
    TriangleTableRequired,
)
from .scalar import DEFAULT_TOL, Scalar, Tolerance, check_finite
from .twobox import PLUS, TwoBoxModel, product_coeffs

# -- edge deltas ---------------------------------------------------------


def walk_connections(connections, is_connector):
    """Resolve chains through degree-2 connector nodes; returns the terminal
    pairings, each listed from whichever of its two terminals comes first in
    `connections`, and the number of connector-only cycles.  Each node is
    classified once."""
    adj = defaultdict(list)
    for cid, (a, b) in enumerate(connections):
        adj[a].append((cid, b))
        adj[b].append((cid, a))

    connector = {}
    for node, links in adj.items():
        connector[node] = kind = is_connector(node)
        want = 2 if kind else 1
        if len(links) != want:
            raise InvariantViolation(f"node {node} has {len(links)} links, wants {want}")

    used = [False] * len(connections)
    pairs = []
    for node, links in adj.items():
        if connector[node]:
            continue
        ((cid, cur),) = links
        if used[cid]:  # the walk from the other end came in here
            continue
        used[cid] = True
        while connector[cur]:
            (c1, o1), (c2, o2) = adj[cur]
            if not used[c1]:
                cid, cur = c1, o1
            elif not used[c2]:
                cid, cur = c2, o2
            else:
                raise InvariantViolation("dangling connector walk")
            used[cid] = True
        pairs.append((node, cur))

    # Every terminal's link is used now, so what is left joins connectors
    # only: each unused connection lies on a connector-only cycle.
    loops = 0
    for cid0, (_, cur) in enumerate(connections):
        if used[cid0]:
            continue
        used[cid0] = True
        while True:
            (c1, o1), (c2, o2) = adj[cur]
            if not used[c1]:
                cid, cur = c1, o1
            elif not used[c2]:
                cid, cur = c2, o2
            else:
                break
            used[cid] = True
        loops += 1
    return pairs, loops


def _delta(
    diagram: Diagram,
    removed: set[int],
    inner: list[tuple[Dart, Dart]],
    new_edges: list[tuple[Dart, Dart]] = (),
) -> list[int]:
    """The edge delta of removing vertices, wiring their darts through
    `inner` arcs and the leg connections in `new_edges`: [loops, a0, b0,
    a1, b1, ...], the closed loops formed and the walked dart pairs as
    codes 4 * vertex + slot.  `_rebuild` applies it.

    Removed-vertex darts without any inner/leg connection must be paired
    among themselves (they vanish with the vertices, e.g. the edges of a
    fused bigon).  A walked dart must be a new vertex's dart or a kept dart
    whose partner is removed, and must be walked once."""
    edges = diagram.edges

    def is_connector(d: Dart) -> bool:
        return d[0] in removed

    connections: list[tuple[Dart, Dart]] = [*inner, *new_edges]
    linked = {d for pair in connections for d in pair if d[0] in removed}

    # Only the darts of removed vertices are visited: each of their edges
    # joins the walk, or vanishes when it is dead at both ends.
    for u in removed:
        for a in ((u, 0), (u, 1), (u, 2), (u, 3)):
            b = edges[a]
            b_rm = b[0] in removed
            if b_rm and b < a:
                continue  # the same edge, met from its other end
            dead_a = a not in linked
            dead_b = b_rm and b not in linked
            if dead_a or dead_b:
                if not (dead_a and dead_b):
                    raise InvariantViolation("half-dead edge in surgery")
                continue
            connections.append((a, b))

    paired, loops = walk_connections(connections, is_connector)
    delta = [loops]
    walked: set[Dart] = set()
    for a, b in paired:
        for x in (a, b):
            partner = edges.get(x)
            if x in walked or (partner is not None and partner[0] not in removed):
                raise MalformedPairing(f"dart {x} paired twice")
            walked.add(x)
        delta += (4 * a[0] + a[1], 4 * b[0] + b[1])
    return delta


def _rebuild(diag: Diagram, removed, new_vertices: dict, code, at: int = 0) -> Diagram:
    """The child of `diag` under a recorded rewrite whose delta starts at
    code[at]: its vertices but the removed ones, then `new_vertices` (an id
    already there keeps its place), and its edge map with the delta applied.
    Every child term of a rewrite is made here."""
    verts = {v: x for v, x in diag.vertices.items() if v not in removed}
    verts.update(new_vertices)
    edges = diag.edges.copy()
    for u in removed:
        del edges[u, 0], edges[u, 1], edges[u, 2], edges[u, 3]
    for i in range(at + 1, len(code), 2):
        a, b = code[i], code[i + 1]
        a, b = (a >> 2, a & 3), (b >> 2, b & 3)
        edges[a] = b
        edges[b] = a
    child = Diagram.__new__(Diagram)  # takes the two dicts as they are
    child.vertices, child.edges, child.free_loops = verts, edges, code[at]
    return child


# -- formal sums ---------------------------------------------------------


def _size(coeff: Scalar) -> float:
    """|coeff|; an inf or nan coefficient, or one whose modulus is past the
    float range, raises NonFiniteScalar in the words of both evaluators."""
    try:
        size = abs(coeff)
    except OverflowError:  # finite parts, modulus past the float range
        raise NonFiniteScalar(f"non-finite scalar |{coeff!r}|") from None
    if not math.isfinite(size):
        check_finite(coeff)
    return size


def _kept(size: float, scale: float, tol: Tolerance) -> bool:
    """Whether a term of modulus `size` survives next to terms of size `scale`."""
    return size > tol.drop_tol * max(1.0, scale)


@dataclass
class FormalSum:
    """Scalar-weighted multiset of diagrams, deduplicated by canonical form."""

    terms: list[tuple[Scalar, Diagram]] = field(default_factory=list)

    def normalized(self, tol: Tolerance = DEFAULT_TOL) -> "FormalSum":
        """Merge the terms of equal canonical key, in first-seen order, then
        drop the terms that `_kept` refuses; the first merged coefficient
        that is inf or nan, or whose modulus is past the float range, raises
        NonFiniteScalar (`_size`).  Equal keys imply an equal invariant
        (free loops, vertex count, sum of the label keys' hashes), so a term
        whose invariant no other term shares merges with nothing: its bucket
        key is the invariant, which no canonical key (a tuple headed by a
        str) can equal, and only the other terms are keyed."""
        terms = self.terms
        invariants = [
            (d.free_loops, len(d.vertices), sum([hash(v.key) for v in d.vertices.values()]))
            for _, d in terms
        ]
        shared: dict[tuple, bool] = {}
        for inv in invariants:
            shared[inv] = inv in shared
        buckets: dict[object, tuple[Scalar, Diagram]] = {}
        for (coeff, diag), inv in zip(terms, invariants):
            key = diag.canonical_key() if shared[inv] else inv
            if key in buckets:
                prev, d0 = buckets[key]
                buckets[key] = (prev + coeff, d0)
            else:
                buckets[key] = (complex(coeff), diag)
        sizes = [_size(c) for c, _ in buckets.values()]
        scale = max(sizes, default=1.0)
        return FormalSum([t for t, size in zip(buckets.values(), sizes) if _kept(size, scale, tol)])

    @property
    def is_scalar(self) -> bool:
        return all(d.n_vertices == 0 and d.free_loops == 0 for _, d in self.terms)

    def scalar_value(self) -> Scalar:
        if not self.is_scalar:
            raise InvariantViolation("formal sum not fully reduced")
        return sum((c for c, _ in self.terms), complex(0.0))


# -- label frame changes ------------------------------------------------


def _id_e_t_decomposition(model: TwoBoxModel, coeffs) -> tuple[Scalar, Scalar, Scalar]:
    """(alpha, beta, gamma) with coeffs = alpha id + beta e + gamma T over
    (e, P1, P2), where id = (1, 1, 1), e = (1, 0, 0) and T = (0, b, -a)."""
    c0, c1, c2 = coeffs
    gamma = (c1 - c2) / (model.a + model.b)
    alpha = c2 + model.a * gamma
    return alpha, c0 - alpha, gamma


# -- 1-gon and 2-gon rewrites, split into shape and numbers ---------------
#
# An op names what a rewrite does to the labels, in vertex ids of the
# diagram it was taken on:
#   ("cap", u, pair)                       vertex u capped on darts (pair, pair+1)
#   ("fuse", u, v, nid, ku, kv, su, sv)    u and v fused into nid, labelled by
#                                          the product of u re-rooted at parity
#                                          ku on side su and v at kv on sv


def _small_step(diag: Diagram, face: list[Dart]):
    """The record of a 1-gon or 2-gon rewrite: its op as `shapes.decode_op`
    reads it, then its edge delta."""
    if len(face) == 2:
        (u, d), (v, dp) = face
        if u == v:
            # A self-bigon forces the self-loop (d+1, d+2), i.e. a coexisting
            # 1-gon; reduce that one instead.
            face = [(u, (d + 1) % 4)]
        else:
            nid = max(itertools.chain(diag.vertices, [0])) + 1
            legs = [
                ((u, (d + 3) % 4), (nid, 0)),
                ((v, (dp + 2) % 4), (nid, 1)),
                ((v, (dp + 3) % 4), (nid, 2)),
                ((u, (d + 2) % 4), (nid, 3)),
            ]
            # Each side is stored as a bit, 1 for MINUS: the parity of the
            # region before dart d+3 of u, or dart dp+1 of v.  The side of u
            # is the fused vertex's shading bit.
            su = (diag.vertices[u].shading0 + d + 3) % 2
            sv = (diag.vertices[v].shading0 + dp + 1) % 2
            head = [1, u, v, nid, (d + 3) % 2, (dp + 1) % 2, su, sv]
            return shapes.pack(head + _delta(diag, {u, v}, [], legs))
    u, d = face[0]
    return shapes.pack([0, u, d] + _delta(diag, {u}, [((u, (d + 2) % 4), (u, (d + 3) % 4))]))


def _small_child(diag: Diagram, op: tuple, step, at: int, label) -> Diagram:
    """The child of a 1-gon or 2-gon rewrite from its record, a fused
    vertex labelled `label`."""
    if op[0] == "cap":
        return _rebuild(diag, op[1:2], {}, step, at)
    return _rebuild(diag, op[1:3], {op[3]: Vertex(label, 0 if op[6] == PLUS else 1)}, step, at)


def _number_step(model: TwoBoxModel, coeff: Scalar, op: tuple, labels):
    """Number half of a rewrite: the new coefficient and, for a fusion, the
    fused label; `labels` maps vertex ids to coefficient triples."""
    if op[0] == "cap":
        _, u, pair = op
        return coeff * model.cap_coeffs(labels[u], pair), None
    _, u, v, _, ku, kv, su, sv = op
    x = model.rotate_coeffs(labels[u], ku)
    y = model.rotate_coeffs(labels[v], kv)
    return coeff, product_coeffs(su, x, sv, y)


def _apply_small(model: TwoBoxModel, coeff: Scalar, diag: Diagram, face, node=None):
    """A 1-gon or 2-gon rewrite of one term: the record from `node`, or
    computed (and stored there), then the numbers and the rebuilt child."""
    step = node.step if node is not None else None
    if step is None:
        if face is None:  # the node's first rewrite raised
            face = find_small_face(diag)
        step = _small_step(diag, face)
        if node is not None:
            node.step = step
            shapes.graph.misses += 1
    else:
        shapes.graph.hits += 1
    op, at = shapes.decode_op(step)
    gone = op[1:3] if op[0] == "fuse" else op[1:2]
    coeff, label = _number_step(model, coeff, op, {w: diag.vertices[w].coeffs for w in gone})
    out = _small_child(diag, op, step, at, label)
    if node is not None:
        out._shape = (node, None)
    return [(coeff, out)]


# -- 3-gon rewrites ------------------------------------------------------


ID_ARCS = ((0, 1), (2, 3))
E_ARCS = ((3, 0), (1, 2))


def _apply_3gon(
    model: TwoBoxModel,
    coeff: Scalar,
    diag: Diagram,
    face,
    triangle,
    tol: Tolerance,
    node=None,
):
    if triangle is None:
        raise TriangleTableRequired("met a 3-gon face with no triangle table")
    if node is not None:
        corners = [(c >> 2, c & 3) for c in node.corners]
    else:
        corners = list(face)
        if len({u for u, _ in corners}) != 3:
            # A 3-gon revisiting a vertex comes from a self-loop; it always
            # coexists with a smaller reducible face, so rewrite that instead.
            alt = find_small_face(diag)
            if len(alt) <= 2:
                return _apply_small(model, coeff, diag, alt)
            raise InvariantViolation("degenerate 3-gon with no smaller face")

    decomp = []
    for u, d in corners:
        rerooted = model.rotate_coeffs(diag.vertices[u].coeffs, d)
        decomp.append(_id_e_t_decomposition(model, rerooted))

    codes = node.codes if node is not None else None
    out_terms = []
    for k, choice in enumerate(itertools.product(range(3), repeat=3)):  # 0=id, 1=e, 2=T
        w = coeff
        for (alpha, beta, gamma), c in zip(decomp, choice):
            w *= (alpha, beta, gamma)[c]
        if abs(w) < tol.TERM_DROP * max(1.0, abs(coeff)):
            continue

        if k == shapes.ALL_T:
            out_terms.extend(_substitute_triangle(tol, w, diag, corners, triangle, node))
            continue

        removed = set()
        relabel = {}
        for (u, d), c in zip(corners, choice):
            if c == 2:
                t_coeffs = model.rotate_coeffs((0.0, model.b, -model.a), d)
                relabel[u] = Vertex(t_coeffs, diag.vertices[u].shading0)
                continue
            removed.add(u)
            if c == 1:
                w /= model.delta
        code = codes[k] if codes is not None else None
        if code is None:
            inner = [
                ((u, (a + d) % 4), (u, (b + d) % 4))
                for (u, d), c in zip(corners, choice)
                if c < 2
                for a, b in (ID_ARCS, E_ARCS)[c]
            ]
            code = shapes.pack(_delta(diag, removed, inner))
            if codes is not None:
                codes[k] = code
                shapes.graph.misses += 1
        else:
            shapes.graph.hits += 1
        reduced = _rebuild(diag, removed, relabel, code)
        if codes is not None:
            reduced._shape = (node.nodes, k)
        out_terms.append((w, reduced))
    return out_terms


def _table_floor(tol: Tolerance, triangle) -> float:
    """Table coefficients under this size are dropped."""
    return tol.TABLE_DROP * max(1.0, float(np.max(np.abs(triangle.left_coeffs))))


def _substitute_triangle(tol, coeff, diag, corners, triangle, node=None):
    """Replace an all-generator 3-gon by the triangle table expansion: the
    basis shapes wired into the hole, each new vertex labelled by the
    table's generator.  A shape's record, from `node` or computed (and
    stored there) for every table, is headed by the shading bits of its
    vertices, which a miss takes from the inferred shading of the child."""
    from .threebox import _basis_shapes, wiring  # threebox imports this module

    # The face orbit lists corners clockwise around the 3-gon, so the
    # counterclockwise hole boundary visits them in reversed vertex order
    # (first corner, then the third, then the second).
    ext = []
    for u, d in (corners[0], corners[2], corners[1]):
        ext.append((u, (d + 2) % 4))
        ext.append((u, (d + 3) % 4))
    removed = {u for u, _ in corners}
    nid0 = max(itertools.chain(diag.vertices, [0])) + 1
    basis = _basis_shapes()[0]
    codes = nodes = None
    if node is not None:
        if node.table is None:
            node.table = ([None] * len(basis), [None] * len(basis))
        codes, nodes = node.table

    floor = _table_floor(tol, triangle)
    t = triangle.generator

    out = []
    for i, (c_i, shape) in enumerate(zip(triangle.left_coeffs, basis)):
        if abs(c_i) < floor:
            continue
        code = codes[i] if codes is not None else None
        if code is None:
            inner, legs = wiring(shape, nid0, ext.__getitem__)
            delta = _delta(diag, removed, [], inner + legs)
            # Pattern vertices arrive with placeholder shading bits.  The
            # inference roots each component at its least id, a kept one,
            # so on a consistent parent no kept vertex changes its bit.
            new_vertices = {nid0 + vid: Vertex(t, s0) for vid, s0 in shape[0]}
            shaded = _rebuild(diag, removed, new_vertices, delta).infer_shading().vertices
            if any(shaded[v].shading0 != x.shading0 for v, x in diag.vertices.items() if v not in removed):
                raise InvariantViolation("triangle substitution moved a kept shading bit")
            bits = sum(shaded[nid0 + vid].shading0 << j for j, (vid, _) in enumerate(shape[0]))
            code = shapes.pack([bits, *delta])
            if codes is not None:
                codes[i] = code
                shapes.graph.misses += 1
        else:
            shapes.graph.hits += 1
        new = {nid0 + vid: Vertex(t, code[0] >> j & 1) for j, (vid, _) in enumerate(shape[0])}
        child = _rebuild(diag, removed, new, code, 1)
        if nodes is not None:
            child._shape = (nodes, i)
        out.append((coeff * complex(c_i), child))
    return out


# -- public operations ---------------------------------------------------


def small_faces(d: Diagram) -> list[list[Dart]]:
    faces = [f for f in d.faces() if len(f) <= 3]
    faces.sort(key=lambda f: (len(f), min(f)))
    return faces


def find_small_face(d: Diagram) -> list[Dart]:
    """A face with at most 3 sides (preference 1 < 2 < 3, ties by vertex id)."""
    if d.n_vertices == 0:
        raise InvariantViolation("diagram has no vertices")
    faces = small_faces(d)
    if not faces:
        raise InvariantViolation("valid planar 4-valent diagram lost its small faces")
    return faces[0]


def _loop_factor(model: TwoBoxModel, loops: int) -> Scalar:
    """delta ** loops; a power past the float range raises NonFiniteScalar."""
    try:
        return model.delta ** loops
    except OverflowError:
        raise NonFiniteScalar(f"non-finite scalar delta ** {loops}") from None


def reduce_once(
    s: FormalSum,
    model: TwoBoxModel,
    triangle=None,
    tol: Tolerance = DEFAULT_TOL,
    chooser=None,
) -> FormalSum:
    """One rewrite on every term that still has vertices or loops.  Without
    a chooser the shape half of each rewrite comes from the shape graph,
    and the diagrams of the returned terms link to their nodes, so they are
    not to be changed in place (edit a `copy()`).  A chooser picks each face
    itself; such a call neither reads nor writes the graph."""
    out = []
    for coeff, diag in s.terms:
        link = diag._shape
        if diag.free_loops:
            coeff = coeff * _loop_factor(model, diag.free_loops)
            diag = Diagram(diag.vertices, diag.edges, 0)
        if diag.n_vertices == 0:
            out.append((coeff, diag))
            continue
        if chooser is None:
            slot = link or shapes.graph.root_slot(diag)
            node, face = shapes.node_at(slot), None
            if node is None:
                face = find_small_face(diag)
                node = shapes.graph.settle(slot, face)
        else:
            node, face = None, chooser(diag)
        sides = len(face) if face is not None else node.SIDES
        if sides in (1, 2):
            out.extend(_apply_small(model, coeff, diag, face, node))
        elif sides == 3:
            out.extend(_apply_3gon(model, coeff, diag, face, triangle, tol, node))
        else:
            raise InvariantViolation(f"face of size {len(face)} is not reducible")
    return FormalSum(out).normalized(tol)


# -- reduction plans -----------------------------------------------------


def _plan(diag: Diagram) -> tuple:
    """The reduction plan of a valid diagram: one (free loops, op) per
    rewrite step, taken with the engine's face order and shape half.  It
    depends on the diagram's shape only, not on its labels.  Like the
    engine without a triangle table, it raises TriangleTableRequired at a
    3-gon; a fusion whose sides differ raises SideMismatch when compiled
    (`_compile`), as the engine's number half does on reaching it."""
    plan = []
    while diag.n_vertices or diag.free_loops:
        loops, op = diag.free_loops, None
        if loops:
            diag = Diagram(diag.vertices, diag.edges, 0)
        if diag.n_vertices:
            face = find_small_face(diag)
            if len(face) > 2:
                raise TriangleTableRequired("met a 3-gon face with no triangle table")
            step = _small_step(diag, face)
            op, at = shapes.decode_op(step)
            # The plan reads no labels: a fused vertex carries a zero one.
            diag = _small_child(diag, op, step, at, (0.0, 0.0, 0.0))
        plan.append((loops, op))
    return tuple(plan)


def _survives(coeff: Scalar, tol: Tolerance) -> bool:
    """The engine's zero-drop of a single term: whether `coeff` is kept.
    A non-finite coefficient raises NonFiniteScalar (`_size`)."""
    size = _size(coeff)
    return _kept(size, size, tol)


# -- straight-line programs ----------------------------------------------


class Program(NamedTuple):
    """Plans whose vertices carry a few shared labels, the leaves, compiled
    to compute each of their caps, rotations and fusions once.  Registers
    hold the leaves, then the nodes in order; a node is ("rotate", reg),
    ("cap", reg, pair parity) or ("fuse", reg, reg, side).  A chain per
    plan keeps the plan's steps that change its coefficient, as (loops,
    cap register or None)."""

    nodes: tuple
    chains: tuple


def _compile(closures, leaves: int) -> Program:
    """The program of `closures`, (plan, {vertex id: leaf}) pairs whose
    leaves number `leaves`; equal nodes are kept once.  A fusion whose
    sides differ raises SideMismatch."""
    nodes: dict[tuple, int] = {}

    def node(key: tuple) -> int:
        return nodes.setdefault(key, leaves + len(nodes))

    chains = []
    for plan, leaf in closures:
        reg = dict(leaf)
        chain = []
        for loops, op in plan:
            cap = None
            if op is not None and op[0] == "cap":
                _, u, pair = op
                cap = node(("cap", reg[u], pair % 2))
            elif op is not None:
                _, u, v, nid, ku, kv, su, sv = op
                if su != sv:
                    raise SideMismatch(f"fusion of vertices {u} and {v} joins different shadings")
                x = node(("rotate", reg[u])) if ku % 2 else reg[u]
                y = node(("rotate", reg[v])) if kv % 2 else reg[v]
                reg[nid] = node(("fuse", x, y, su))
            if loops or cap is not None:
                chain.append((loops, cap))
        chains.append(tuple(chain))
    return Program(tuple(nodes), tuple(chains))


def _run(program: Program, leaves, model: TwoBoxModel, tol: Tolerance) -> list[Scalar]:
    """The value of each plan of `program` on the leaf labels `leaves`,
    bit for bit what the engine gives on the plan's diagram: a chain stops
    at the first coefficient that `_survives` drops, and a non-finite one
    raises NonFiniteScalar, chain by chain in plan order."""
    regs = list(leaves)
    for op in program.nodes:
        if op[0] == "cap":
            regs.append(model.cap_coeffs(regs[op[1]], op[2]))
        elif op[0] == "rotate":
            regs.append(model.rotate_coeffs(regs[op[1]], 1))
        else:
            regs.append(product_coeffs(op[3], regs[op[1]], op[3], regs[op[2]]))
    values = []
    for chain in program.chains:
        coeff = complex(1.0)
        for loops, cap in chain:
            if loops:
                coeff = coeff * _loop_factor(model, loops)
            if cap is not None:
                coeff = coeff * regs[cap]
            if not _survives(coeff, tol):
                values.append(complex(0.0))
                break
        else:
            values.append(complex(0.0) + coeff)
    return values


def evaluate_detailed(
    d: Diagram,
    model: TwoBoxModel,
    triangle=None,
    tol: Tolerance = DEFAULT_TOL,
    chooser=None,
) -> tuple[Scalar, int]:
    """Evaluate a closed diagram to a scalar; also return the rewrite count.
    d is validated, then the FormalSum engine reduces it term by term."""
    d.validate(check_shading=True)
    # A fresh term of fresh vertices: the root is looked up by content, and
    # the label keys that the engine keeps go on its own vertices, so
    # nothing on d is read or attached.
    d = Diagram({v: Vertex(x.coeffs, x.shading0) for v, x in d.vertices.items()}, d.edges, d.free_loops)
    s = FormalSum([(complex(1.0), d)])
    steps = 0
    while not s.is_scalar:
        s = reduce_once(s, model, triangle, tol, chooser)
        steps += 1
        if steps > 10000:
            raise InvariantViolation("evaluation failed to terminate")
    return s.scalar_value(), steps


def evaluate(
    d: Diagram,
    model: TwoBoxModel,
    triangle=None,
    tol: Tolerance = DEFAULT_TOL,
    chooser=None,
) -> Scalar:
    return evaluate_detailed(d, model, triangle, tol, chooser)[0]
