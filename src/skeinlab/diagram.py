"""Closed planar diagrams with 2-box-labeled 4-valent vertices.

A diagram is a combinatorial map: every vertex carries four darts in
counterclockwise order with dart 0 at the $-position, and the edges are a
fixed-point-free involution on darts.  Faces are the orbits of the face
permutation phi(v, d) = partner(v, d+1); planarity is enforced through the
Euler characteristic of every connected component.  `Diagram.validate`
runs on every input to `skein.evaluate`: it checks the pairing, then
counts the faces of `faces()` (one pass over the darts in vertex order)
against the components of `components()`, looks for a face that mixes
shading parities, and checks that every label is finite.
`Diagram.canonical_key`, by which a formal sum merges terms, reads each
`Vertex.key` and the four partners of each vertex once and runs its BFS
only from the vertices with the least label key.  A label key is exact
(the coefficients as they are, signed zeros merged, then the shading bit),
so only equal labels merge.  A vertex computes its key on first read and
keeps it in a slot; the engine's terms share their parent's vertices, and
`infer_shading` keeps every vertex whose bit stays, so a carried vertex is
keyed once.
"""

from __future__ import annotations

import operator
from collections import defaultdict
from dataclasses import dataclass, field

from .errors import MalformedPairing, NonPlanar, ShadingInconsistent
from .scalar import Scalar, check_finite

Dart = tuple[int, int]


@dataclass(frozen=True, slots=True)
class Vertex:
    """A labeled 4-valent vertex; coeffs are over (e, P1, P2) in the frame
    rooted at dart 0, shading0 is the parity of the region before dart 0."""

    coeffs: tuple[Scalar, Scalar, Scalar]
    shading0: int = 0
    _key: tuple | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(map(complex, self.coeffs)))

    @property
    def key(self) -> tuple:
        """What canonical forms compare: the exact coefficients, signed
        zeros merged, then the shading bit.  Computed on first read and
        kept on the vertex, which the engine's terms share with their
        parents."""
        key = self._key
        if key is None:
            x, y, z = self.coeffs
            key = (
                (x.real + 0.0, x.imag + 0.0),
                (y.real + 0.0, y.imag + 0.0),
                (z.real + 0.0, z.imag + 0.0),
                self.shading0,
            )
            object.__setattr__(self, "_key", key)
        return key


class Diagram:
    """A closed diagram: labeled vertices, dart pairing, free loops."""

    _shape = None  # on the engine's terms: the link to their shape node

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

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges) // 2

    # -- faces and components -------------------------------------------

    def faces(self) -> list[list[Dart]]:
        """Orbits of the face permutation phi(v, d) = partner(v, d+1), from
        the darts in vertex order; each corner (v, d) stands for the region
        counterclockwise after dart d."""
        edges = self.edges
        seen: set[Dart] = set()
        out = []
        for v in self.vertices:
            for start in ((v, 0), (v, 1), (v, 2), (v, 3)):
                if start in seen:
                    continue
                orbit = [start]
                seen.add(start)
                u, slot = start
                while True:
                    d = edges[u, (slot + 1) & 3]
                    if d == start:
                        break
                    if d in seen:
                        raise MalformedPairing("face permutation is not a permutation")
                    orbit.append(d)
                    seen.add(d)
                    u, slot = d
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
        verts = d.vertices
        for v, bit in assigned.items():
            vert = verts[v]
            if bit != vert.shading0:  # a vertex whose bit stays is kept as it is
                verts[v] = Vertex(vert.coeffs, bit)
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
        starts = [v for v, label in labels.items() if label == least]
        # The four partners of each vertex, read once for every start.
        ports = {v: (edges[v, 0], edges[v, 1], edges[v, 2], edges[v, 3]) for v in labels}
        best = None
        for start in starts:
            order = {start: 0}
            queue = [start]
            for v in queue:  # the queue grows while it is walked; it ends as the BFS order
                for w, _ in ports[v]:
                    if w not in order:
                        order[w] = len(queue)
                        queue.append(w)
            if len(queue) < len(labels):
                # Disconnected: canonicalize per component and combine.
                return self._canonical_key_disconnected()
            enc = []
            for v in queue:
                (a, sa), (b, sb), (c, sc), (d, sd) = ports[v]
                enc += (labels[v], (order[a], sa), (order[b], sb), (order[c], sc), (order[d], sd))
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
