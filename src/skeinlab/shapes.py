"""The shape graph of the FormalSum engine: the shape half of each rewrite,
computed once per process.

A shape is a term's diagram without labels or free loops: its vertex ids
in order, their shading bits and the dart pairing.  The engine's face and
the shape half of every rewrite depend on the shape alone.  A node stands
for one shape and holds its engine face and, for each rewrite taken from
it, a record and the child's node:

  * `Small`, a 1-gon or 2-gon face: one record, headed by the op;
  * `Gon3`, a 3-gon on three vertices: its corners, one record per id/e/T
    choice but (T, T, T), and for that one, one record per basis pattern
    wired into the hole, headed by the inferred shading bits of the
    pattern's vertices (bit j for the j-th).  The basis shapes are the same
    for every triangle table, so these records serve every table.

A record is `pack([*head, *delta])`, where the delta `skein._delta`
computes is [loops, a0, b0, a1, b1, ...]: the free loops the rewrite
closes, and the dart pairs (codes 4 * vertex + slot) its connector walk
made, which are the pairs that differ from the parent's edge map.  The
darts of the removed vertices drop out, and which vertices go, come or
are relabelled follows from the op or the 3-gon choice, so
`skein._rebuild` makes the child from the parent term and the record
alone, whether the record was just computed or stored before.

A term's diagram links to the slot its node goes in, (holder, key): a
`Small` and None, a list of child nodes and an index, or the root table
and the shape.  The node is made on the term's first visit; a child that
is never visited, such as one with no vertices, gets none.  The engine
looks each input up by content among the roots.  The graph is dropped
whole when it reaches `SHAPE_CACHE_NODES` nodes.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import InvariantViolation
from .twobox import MINUS, PLUS

# Shape nodes made before the whole graph is dropped: about twice the ~4,600
# nodes that the 3-gon-rich medial diagrams of 6-12 vertices fill, at ~130
# bytes a node.
SHAPE_CACHE_NODES = 10_000

ALL_T = 26  # the index of the 3-gon choice (T, T, T) in itertools.product order

ShapeCacheInfo = namedtuple("ShapeCacheInfo", "nodes hits misses")


def pack(codes: list[int]):
    """Small non-negative ints as bytes; a tuple when one does not fit."""
    try:
        return bytes(codes)
    except ValueError:
        return tuple(codes)


def decode_op(step) -> tuple[tuple, int]:
    """The op at the head of a record, and where the rest starts."""
    if step[0] == 0:
        return ("cap", step[1], step[2]), 3
    _, u, v, nid, ku, kv, su, sv = step[:8]
    return ("fuse", u, v, nid, ku, kv, MINUS if su else PLUS, MINUS if sv else PLUS), 8


class Small:
    """A shape whose engine face is a 1-gon or 2-gon: the record of its one
    rewrite, and the child's node."""

    __slots__ = ("step", "next")
    SIDES = 2

    def __init__(self):
        self.step = self.next = None


class Gon3:
    """A shape whose engine face is a 3-gon on three vertices: its corners
    as dart codes, a record and a child node per id/e/T choice but (T, T, T),
    and for that one, (records, child nodes) per basis pattern."""

    __slots__ = ("corners", "codes", "nodes", "table")
    SIDES = 3

    def __init__(self, corners):
        self.corners = corners
        self.codes = [None] * ALL_T
        self.nodes = [None] * ALL_T
        self.table = None


def node_at(slot):
    """The node in a slot, or None."""
    holder, key = slot
    return holder.next if key is None else holder[key]


class ShapeGraph:
    """Root nodes by shape, with counters.  `cache_info()` gives (nodes,
    hits, misses): the nodes made since the graph was last dropped, and the
    records reused and newly stored; `cache_clear()` drops the graph and
    the counters."""

    def __init__(self):
        self.cache_clear()

    def cache_info(self) -> ShapeCacheInfo:
        return ShapeCacheInfo(self.nodes, self.hits, self.misses)

    def cache_clear(self) -> None:
        self.roots: dict[tuple, Small | Gon3 | None] = {}
        self.nodes = self.hits = self.misses = 0

    def root_slot(self, diag) -> tuple:
        """The slot of a diagram's shape among the roots."""
        verts, edges = diag.vertices, diag.edges
        shape = (
            tuple(verts),
            tuple(x.shading0 for x in verts.values()),
            tuple(edges[v, s] for v in verts for s in range(4)),
        )
        self.roots.setdefault(shape, None)
        return self.roots, shape

    def settle(self, slot, face):
        """Make the node of a shape with this engine face and put it in its
        slot.  The engine's face is never a 3-gon that revisits a vertex:
        such a 3-gon comes from a self-loop, whose 1-gon or 2-gon the face
        order prefers."""
        if len(face) <= 2:
            node = Small()
        elif len({u for u, _ in face}) == 3:
            node = Gon3(pack([4 * u + d for u, d in face]))
        else:
            raise InvariantViolation(f"engine face {face} is a 3-gon that revisits a vertex")
        if self.nodes >= SHAPE_CACHE_NODES:
            self.roots.clear()
            self.nodes = 0
        self.nodes += 1
        holder, key = slot
        if key is None:
            holder.next = node
        else:
            holder[key] = node
        return node


graph = ShapeGraph()
