"""Closed planar diagrams with 2-box-labeled 4-valent vertices, and their
evaluation by face reduction.

A diagram is a combinatorial map: every vertex carries four darts in
counterclockwise order with dart 0 at the $-position, and the edges are a
fixed-point-free involution on darts.  Faces are the orbits of the face
permutation phi(v, d) = partner(v, d+1); planarity is enforced through the
Euler characteristic of every connected component.  `Diagram.validate`
runs on every input to `evaluate`: it checks the pairing, then counts the
faces of `faces()` against the components of `components()`, looks for a
face that mixes shading parities, and checks that every label is finite.

Evaluation repeatedly removes a face with at most three sides:

  * free loop      -> factor delta
  * 1-gon          -> cap functional of the vertex label
  * 2-gon          -> fuse the two vertices into one labeled by the product
                      of suitably rotated labels
  * 3-gon          -> expand labels over {id, e, T} and substitute the
                      supplied triangle table for the pure-generator case

Each rewrite strictly decreases (vertex count, edge count), so evaluation
terminates.  A rewrite's surgery visits only the darts of the vertices it
removes and copies the rest of the edge map as it stands, and a formal sum
merges terms by `Diagram.canonical_key`, which reads each `Vertex.key` once
and runs its BFS only from the vertices with the least label key.

The 1-gon and 2-gon rewrites come in two halves.  The shape half picks the
face and rewires the map; it emits an op (cap vertex u on a dart pair, or
fuse u and v into a new vertex, with the re-root parities and sides).  The
number half applies an op to labels, held as plain tuples of three
complex coefficients: the cap scalar, or the product label, from the
model's rotation and cap rows and the elementwise product of
`twobox.product_coeffs`.
`evaluate` is the FormalSum engine: it validates every input, then reduces
it term by term with the two halves.  A diagram whose reduction never
meets a 3-gon has a fixed op sequence, its plan, that depends only on its
shape (vertex ids, shading bits, dart pairing, free loops).  `_plan`
compiles it from a valid diagram with the shape half, and `_replay` runs
it on a map of labels with the number half and the engine's zero-drop of
a single term; `threebox.inner` keeps one plan per closure shape.
"""

from __future__ import annotations

import itertools
import operator
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InvariantViolation,
    MalformedPairing,
    NonPlanar,
    ShadingInconsistent,
    TriangleTableRequired,
)
from .scalar import DEFAULT_TOL, Scalar, Tolerance, check_finite
from .twobox import MINUS, PLUS, TwoBoxModel, product_coeffs

Dart = tuple[int, int]


@dataclass(frozen=True)
class Vertex:
    """A labeled 4-valent vertex; coeffs are over (e, P1, P2) in the frame
    rooted at dart 0, shading0 is the parity of the region before dart 0."""

    coeffs: tuple[Scalar, Scalar, Scalar]
    shading0: int = 0

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))

    @property
    def key(self) -> tuple:
        """What canonical forms compare: the coefficients rounded to 9
        decimals, signed zeros merged, then the shading bit."""
        return tuple(
            (round(c.real, 9) + 0.0, round(c.imag, 9) + 0.0) for c in self.coeffs
        ) + (self.shading0,)


class Diagram:
    """A closed diagram: labeled vertices, dart pairing, free loops."""

    def __init__(
        self,
        vertices: dict[int, Vertex] | None = None,
        edges: dict[Dart, Dart] | None = None,
        free_loops: int = 0,
    ):
        self.vertices: dict[int, Vertex] = dict(vertices or {})
        self.edges: dict[Dart, Dart] = dict(edges or {})
        self.free_loops = int(free_loops)

    # -- construction helpers -------------------------------------------

    def add_edge(self, a: Dart, b: Dart) -> None:
        if a == b:
            raise MalformedPairing(f"self-paired dart {a}")
        if a in self.edges or b in self.edges:
            raise MalformedPairing(f"dart {a if a in self.edges else b} paired twice")
        self.edges[a] = b
        self.edges[b] = a

    def copy(self) -> "Diagram":
        return Diagram(dict(self.vertices), dict(self.edges), self.free_loops)

    def darts(self):
        for v in self.vertices:
            for slot in range(4):
                yield (v, slot)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges) // 2

    # -- faces and components -------------------------------------------

    def _phi(self, d: Dart) -> Dart:
        v, slot = d
        return self.edges[(v, (slot + 1) % 4)]

    def faces(self) -> list[list[Dart]]:
        """Orbits of the face permutation; each corner (v, d) stands for the
        region counterclockwise after dart d."""
        seen: set[Dart] = set()
        out = []
        for start in self.darts():
            if start in seen:
                continue
            orbit = []
            d = start
            while True:
                orbit.append(d)
                seen.add(d)
                d = self._phi(d)
                if d == start:
                    break
                if d in seen:
                    raise MalformedPairing("face permutation is not a permutation")
            out.append(orbit)
        return out

    def components(self) -> list[set[int]]:
        parent = {v: v for v in self.vertices}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for (a, _), (b, _) in self.edges.items():
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
        groups = defaultdict(set)
        for v in self.vertices:
            groups[find(v)].add(v)
        return list(groups.values())

    # -- validation ------------------------------------------------------

    def validate(self, check_shading: bool = True) -> None:
        """Raise MalformedPairing, NonPlanar, ShadingInconsistent or
        NonFiniteScalar, checked in that order.  A 4-valent component has
        E = 2V, so it is planar iff F - V = 2."""
        verts, edges = self.vertices, self.edges
        all_darts = {(v, s) for v in verts for s in range(4)}
        darts, partners = edges.keys(), edges.values()
        if not (darts <= all_darts and all_darts.issuperset(partners)):
            unknown = next(d for pair in edges.items() for d in pair if d not in all_darts)
            raise MalformedPairing(f"edge endpoint {unknown} unknown")
        if not all(map(operator.ne, darts, partners)):
            a = next(a for a, b in edges.items() if a == b)
            raise MalformedPairing(f"self-paired dart {a}")
        if not all(map(operator.eq, map(edges.get, partners), darts)):
            raise MalformedPairing("pairing is not an involution")
        if len(edges) != len(all_darts):
            missing = [d for d in all_darts if d not in edges]
            raise MalformedPairing(f"unpaired darts {sorted(missing)[:4]}")
        if self.free_loops < 0:
            raise MalformedPairing("negative free loop count")

        faces, comps = self.faces(), self.components()
        # Each component has V - E + F = F - V = 2 - 2g <= 2, so the total
        # is 2 per component exactly when every component is planar.
        if len(faces) - len(verts) != 2 * len(comps):
            comp_of = {v: i for i, comp in enumerate(comps) for v in comp}
            excess = [-len(comp) for comp in comps]
            for face in faces:
                excess[comp_of[face[0][0]]] += 1
            i, x = next((i, x) for i, x in enumerate(excess) if x != 2)
            raise NonPlanar(f"component {sorted(comps[i])}: V-E+F = {x} != 2")

        if check_shading:
            # The region after dart s has parity shading0 + s + 1 (regions
            # alternate, the one before dart 0 carries shading0); a face
            # mixes parities iff its shading0 + s do.
            for face in faces:
                if len({(verts[v].shading0 + s) % 2 for v, s in face}) > 1:
                    raise ShadingInconsistent(f"face {face} mixes shading parities")

        for vert in verts.values():
            check_finite(*vert.coeffs)

    def infer_shading(self) -> "Diagram":
        """Reassign shading bits by propagation (root of each component keeps
        parity 0 at its $-region).  Always succeeds for valid closed maps."""
        d = self.copy()
        assigned: dict[int, int] = {}
        for comp in d.components():
            root = min(comp)
            assigned[root] = d.vertices[root].shading0
            stack = [root]
            seen = {root}
            while stack:
                v = stack.pop()
                for slot in range(4):
                    # Corner (v, slot) and corner alpha(v, slot+1) lie on the
                    # same face, hence share a shading parity.
                    w, wslot = d.edges[(v, (slot + 1) % 4)]
                    if w in seen:
                        continue
                    assigned[w] = (assigned[v] + slot - wslot) % 2
                    seen.add(w)
                    stack.append(w)
        d.vertices = {
            v: Vertex(vert.coeffs, assigned.get(v, vert.shading0))
            for v, vert in d.vertices.items()
        }
        return d

    # -- canonical form --------------------------------------------------

    def canonical_key(self):
        """Lexicographically minimal encoding over all BFS starting vertices;
        invariant under vertex renumbering.  An encoding opens with its
        start's label key, so only the starts whose label key is the least
        can give the minimum, and only those are searched."""
        if not self.vertices:
            return ("empty", self.free_loops)

        edges = self.edges
        labels = {v: vert.key for v, vert in self.vertices.items()}
        least = min(labels.values())
        best = None
        for start, label in labels.items():
            if label != least:
                continue
            order = {start: 0}
            queue = [start]
            for v in queue:  # the queue grows while it is walked; it ends as the BFS order
                for slot in range(4):
                    w = edges[(v, slot)][0]
                    if w not in order:
                        order[w] = len(order)
                        queue.append(w)
            if len(queue) < len(labels):
                # Disconnected: canonicalize per component and combine.
                return self._canonical_key_disconnected()
            enc = []
            for v in queue:
                enc.append(labels[v])
                for slot in range(4):
                    w, wslot = edges[(v, slot)]
                    enc.append((order[w], wslot))
            key = tuple(enc)
            if best is None or key < best:
                best = key
        return ("diagram", self.free_loops, best)

    def _canonical_key_disconnected(self):
        parts = []
        for comp in self.components():
            sub = Diagram(
                {v: self.vertices[v] for v in comp},
                {a: b for a, b in self.edges.items() if a[0] in comp},
                0,
            )
            parts.append(sub.canonical_key())
        return ("multi", self.free_loops, tuple(sorted(map(repr, parts))))


# -- rewiring surgery ----------------------------------------------------


def walk_connections(connections, is_connector):
    """Resolve chains through degree-2 connector nodes; returns the terminal
    pairings and the number of connector-only cycles."""
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


def _surgery(
    diagram: Diagram,
    removed: set[int],
    inner: list[tuple[Dart, Dart]],
    new_vertices: dict[int, Vertex] | None = None,
    new_edges: list[tuple[Dart, Dart]] | None = None,
) -> tuple[Diagram, int]:
    """Remove vertices, wiring their darts through `inner` arcs and the leg
    connections in `new_edges`; returns the new diagram and the number of
    closed loops formed.

    Removed-vertex darts without any inner/leg connection must be paired
    among themselves (they vanish with the vertices, e.g. the edges of a
    fused bigon)."""
    new_vertices = new_vertices or {}
    new_edges = new_edges or []

    def is_connector(d: Dart) -> bool:
        return d[0] in removed

    connections: list[tuple[Dart, Dart]] = list(itertools.chain(inner, new_edges))
    linked = {d for pair in connections for d in pair if is_connector(d)}

    # Only the darts of removed vertices change: each of their edges joins
    # the walk (or vanishes, dead at both ends) and leaves the edge map.
    edges = dict(diagram.edges)
    for u in removed:
        for slot in range(4):
            a = (u, slot)
            b = diagram.edges[a]
            edges.pop(a, None)
            edges.pop(b, None)
            b_rm = is_connector(b)
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

    result = Diagram(
        {v: vert for v, vert in diagram.vertices.items() if v not in removed},
        {},
        diagram.free_loops + loops,
    )
    result.vertices.update(new_vertices)
    result.edges = edges
    for a, b in paired:
        result.add_edge(a, b)
    return result, loops


# -- formal sums ---------------------------------------------------------


def _kept(coeff: Scalar, scale: float, tol: Tolerance) -> bool:
    """Whether a term survives normalization next to terms of size `scale`."""
    return abs(coeff) > tol.drop_tol * max(1.0, scale)


@dataclass
class FormalSum:
    """Scalar-weighted multiset of diagrams, deduplicated by canonical form."""

    terms: list[tuple[Scalar, Diagram]] = field(default_factory=list)

    def normalized(self, tol: Tolerance = DEFAULT_TOL) -> "FormalSum":
        buckets: dict[object, tuple[Scalar, Diagram]] = {}
        for coeff, diag in self.terms:
            key = diag.canonical_key()
            if key in buckets:
                prev, d0 = buckets[key]
                buckets[key] = (prev + coeff, d0)
            else:
                buckets[key] = (complex(coeff), diag)
        scale = max([abs(c) for c, _ in buckets.values()], default=1.0)
        return FormalSum([(c, d) for c, d in buckets.values() if _kept(c, scale, tol)])

    @property
    def is_scalar(self) -> bool:
        return all(d.n_vertices == 0 and d.free_loops == 0 for _, d in self.terms)

    def scalar_value(self) -> Scalar:
        if not self.is_scalar:
            raise InvariantViolation("formal sum not fully reduced")
        return sum((c for c, _ in self.terms), complex(0.0))


# -- label frame changes ------------------------------------------------


def _id_e_t_decomposition(model: TwoBoxModel, coeffs) -> tuple[Scalar, Scalar, Scalar]:
    m = np.array(
        [[1.0, 1.0, 0.0], [1.0, 0.0, model.b], [1.0, 0.0, -model.a]], dtype=complex
    )
    sol = np.linalg.solve(m, np.array([complex(c) for c in coeffs]))
    return tuple(sol)


# -- 1-gon and 2-gon rewrites, split into shape and numbers ---------------
#
# An op names what a rewrite does to the labels, in vertex ids of the
# diagram it was taken on:
#   ("cap", u, pair)                       vertex u capped on darts (pair, pair+1)
#   ("fuse", u, v, nid, ku, kv, su, sv)    u and v fused into nid, labelled by
#                                          the product of u re-rooted at parity
#                                          ku on side su and v at kv on sv


def _shape_step(diag: Diagram, face: list[Dart]):
    """Shape half of a 1-gon or 2-gon rewrite: the op and the rewired
    diagram, in which a fused vertex carries a zero placeholder label."""
    if len(face) == 2:
        (u, d), (v, dp) = face
        if u == v:
            # A self-bigon forces the self-loop (d+1, d+2), i.e. a coexisting
            # 1-gon; reduce that one instead.
            face = [(u, (d + 1) % 4)]
        else:
            su = PLUS if (diag.vertices[u].shading0 + d + 3) % 2 == 0 else MINUS
            sv = PLUS if (diag.vertices[v].shading0 + dp + 1) % 2 == 0 else MINUS
            nid = max(itertools.chain(diag.vertices, [0])) + 1
            legs = [
                ((u, (d + 3) % 4), (nid, 0)),
                ((v, (dp + 2) % 4), (nid, 1)),
                ((v, (dp + 3) % 4), (nid, 2)),
                ((u, (d + 2) % 4), (nid, 3)),
            ]
            placeholder = Vertex((0.0, 0.0, 0.0), 0 if su == PLUS else 1)
            out, _ = _surgery(diag, {u, v}, [], {nid: placeholder}, legs)
            return ("fuse", u, v, nid, (d + 3) % 2, (dp + 1) % 2, su, sv), out
    u, d = face[0]
    out, _ = _surgery(diag, {u}, [((u, (d + 2) % 4), (u, (d + 3) % 4))])
    return ("cap", u, d), out


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


def _apply_small(model: TwoBoxModel, coeff: Scalar, diag: Diagram, face: list[Dart]):
    """A 1-gon or 2-gon rewrite of one term: the shape half, then the numbers."""
    op, out = _shape_step(diag, face)
    labels = {v: vert.coeffs for v, vert in diag.vertices.items()}
    coeff, label = _number_step(model, coeff, op, labels)
    if label is not None:
        nid = op[3]
        out.vertices[nid] = Vertex(label, out.vertices[nid].shading0)
    return [(coeff, out)]


# -- 3-gon rewrites ------------------------------------------------------


ID_ARCS = ((0, 1), (2, 3))
E_ARCS = ((3, 0), (1, 2))


def _apply_3gon(
    model: TwoBoxModel,
    coeff: Scalar,
    diag: Diagram,
    face: list[Dart],
    triangle,
    tol: Tolerance,
):
    if triangle is None:
        raise TriangleTableRequired("met a 3-gon face with no triangle table")
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

    out_terms = []
    for choice in itertools.product(range(3), repeat=3):  # 0=id, 1=e, 2=T
        w = coeff
        for (alpha, beta, gamma), c in zip(decomp, choice):
            w *= (alpha, beta, gamma)[c]
        if abs(w) < tol.TERM_DROP * max(1.0, abs(coeff)):
            continue

        if all(c == 2 for c in choice):
            out_terms.extend(_substitute_triangle(tol, w, diag, corners, triangle))
            continue

        removed = set()
        inner = []
        relabel = {}
        for (u, d), c in zip(corners, choice):
            if c == 0:
                removed.add(u)
                inner.extend(
                    (((u, (a + d) % 4), (u, (b + d) % 4))) for a, b in ID_ARCS
                )
            elif c == 1:
                removed.add(u)
                w /= model.delta
                inner.extend(
                    (((u, (a + d) % 4), (u, (b + d) % 4))) for a, b in E_ARCS
                )
            else:
                t_coeffs = model.rotate_coeffs((0.0, model.b, -model.a), d)
                relabel[u] = Vertex(t_coeffs, diag.vertices[u].shading0)
        work = diag.copy()
        work.vertices.update(relabel)
        reduced, _ = _surgery(work, removed, inner)
        out_terms.append((w, reduced))
    return out_terms


def _substitute_triangle(tol, coeff, diag, corners, triangle):
    """Replace an all-generator 3-gon by the triangle table expansion."""
    # The face orbit lists corners clockwise around the 3-gon, so the
    # counterclockwise hole boundary visits them in reversed vertex order
    # (first corner, then the third, then the second).
    ext = []
    for u, d in (corners[0], corners[2], corners[1]):
        ext.append((u, (d + 2) % 4))
        ext.append((u, (d + 3) % 4))
    removed = {u for u, _ in corners}
    nid0 = max(itertools.chain(diag.vertices, [0])) + 1

    floor = tol.TABLE_DROP * max(1.0, float(np.max(np.abs(triangle.left_coeffs))))

    out = []
    for c_i, pattern in zip(triangle.left_coeffs, triangle.basis.diagrams):
        if abs(c_i) < floor:
            continue
        new_vertices, inner, legs = pattern.wiring(nid0, ext.__getitem__)
        reduced, _ = _surgery(diag, removed, [], new_vertices, inner + legs)
        # Pattern vertices arrive with placeholder shading bits.
        out.append((coeff * c_i, reduced.infer_shading()))
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


def reduce_once(
    s: FormalSum,
    model: TwoBoxModel,
    triangle=None,
    tol: Tolerance = DEFAULT_TOL,
    chooser=None,
) -> FormalSum:
    """One rewrite on every term that still has vertices or loops."""
    out = []
    for coeff, diag in s.terms:
        if diag.free_loops:
            coeff = coeff * model.delta ** diag.free_loops
            diag = Diagram(dict(diag.vertices), dict(diag.edges), 0)
        if diag.n_vertices == 0:
            out.append((coeff, diag))
            continue
        face = chooser(diag) if chooser is not None else find_small_face(diag)
        if len(face) in (1, 2):
            out.extend(_apply_small(model, coeff, diag, face))
        elif len(face) == 3:
            out.extend(_apply_3gon(model, coeff, diag, face, triangle, tol))
        else:
            raise InvariantViolation(f"face of size {len(face)} is not reducible")
    return FormalSum(out).normalized(tol)


# -- reduction plans -----------------------------------------------------


def _plan(diag: Diagram) -> tuple:
    """The reduction plan of a valid diagram: one (free loops, op) per
    rewrite step, taken with the engine's face order and shape half.  It
    depends on the diagram's shape only, not on its labels.  Like the
    engine without a triangle table, it raises TriangleTableRequired at a
    3-gon; a fusion whose sides differ raises SideMismatch when replayed,
    in the number half the engine shares."""
    plan = []
    while diag.n_vertices or diag.free_loops:
        loops, op = diag.free_loops, None
        if loops:
            diag = Diagram(diag.vertices, diag.edges, 0)
        if diag.n_vertices:
            face = find_small_face(diag)
            if len(face) > 2:
                raise TriangleTableRequired("met a 3-gon face with no triangle table")
            op, diag = _shape_step(diag, face)
        plan.append((loops, op))
    return tuple(plan)


def _replay(plan: tuple, labels: dict, model: TwoBoxModel, tol: Tolerance) -> tuple[Scalar, int]:
    """Run a plan on `labels`, a map of vertex ids to coefficient triples,
    with the engine's arithmetic, including its zero-drop of a single term.
    Fused labels are written into `labels`."""
    coeff = complex(1.0)
    for steps, (loops, op) in enumerate(plan, 1):
        if loops:
            coeff = coeff * model.delta ** loops
        if op is not None:
            coeff, label = _number_step(model, coeff, op, labels)
            if label is not None:
                labels[op[3]] = label
        if not _kept(coeff, abs(coeff), tol):
            return complex(0.0), steps
    # FormalSum.scalar_value sums onto 0j, which fixes the signs of zeros.
    return complex(0.0) + coeff, len(plan)


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
