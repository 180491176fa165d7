"""The shape graph of the FormalSum engine: the shape half of each rewrite,
computed once per process.

A shape is a term's diagram without labels or free loops: its vertex ids
in order, their shading bits and the dart pairing.  The engine's face and
the shape half of every rewrite depend on the shape alone.  A node stands
for one shape and holds its engine face and, for each rewrite taken from
it, a record and the child's node:

  * `Small`, a 1-gon or 2-gon face: its one record, made with the node,
    as two slots: the op that `skein._number_step` reads, and the delta;
  * `Gon3`, a 3-gon on three vertices: its corners, one record per id/e/T
    choice but (T, T, T), and for that one, one record per basis pattern
    wired into the hole, headed by the inferred shading bits of the
    pattern's vertices (bit j for the j-th).  The basis shapes are the same
    for every triangle table, so these records serve every table.

A delta is `pack(skein._delta(...))`, [loops, a0, b0, a1, b1, ...]: the
free loops the rewrite closes, and the dart pairs (codes 4 * vertex +
slot) its connector walk made, which are the pairs that differ from the
parent's edge map; a 3-gon record is a delta, or `pack([bits, *delta])`.
The darts of the removed vertices drop out, and which vertices go, come
or are relabelled follows from the op or the 3-gon choice, so
`skein._rebuild` makes the child from the parent term and the record
alone, whether the record was just computed or stored before.

A term's diagram links to the slot its node goes in, (holder, key): a
`Small` and None, a list of child nodes and an index, or the root table
and the shape.  `skein._node` makes the node on the term's first visit,
and `settle` puts it in its slot; a child that is never visited, such as
one with no vertices, gets none.  The engine looks each input up by
content among the roots.  The graph is dropped whole when it reaches
`SHAPE_CACHE_NODES` nodes.  A chooser run makes a fresh node for each
rewrite and counts into a graph of its own, so it neither reads nor
writes `graph`.
"""

from __future__ import annotations

from collections import namedtuple

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


class Small:
    """A shape whose engine face is a 1-gon or 2-gon: the record of its one
    rewrite, as its op and its delta, and the child's node."""

    __slots__ = ("op", "delta", "next")
    SIDES = 2

    def __init__(self, op: tuple, delta):
        self.op, self.delta, self.next = op, delta, None


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

    def settle(self, slot, node):
        """Put a made node in its empty slot; a `Small`'s record, made with
        it, counts as a miss."""
        if self.nodes >= SHAPE_CACHE_NODES:
            self.roots.clear()
            self.nodes = 0
        self.nodes += 1
        if node.SIDES == 2:
            self.misses += 1
        holder, key = slot
        if key is None:
            holder.next = node
        else:
            holder[key] = node
        return node


graph = ShapeGraph()
