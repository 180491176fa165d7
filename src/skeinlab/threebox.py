"""The 14-dimensional 3-box space: diagram basis, Gram matrix, triangle
reduction table, and the braid-relation residuals.

A 3-box is presented as a pattern in a disk with 6 boundary points, labeled
0..5 counterclockwise starting after the $-marker.  Points 0,1,2 are the
bottom of the box and 3,4,5 the top (right to left), so the adjoint is the
top-bottom reflection i -> 5-i and the trace closure of Y*X glues
X.i <-> mirror(Y).(5-i) for every i.

All inner products reduce to closed diagrams with at most 5 vertices, which
the skein engine evaluates without a triangle table (Euler counting leaves a
face with at most 2 sides at every step).  The closure's shape depends only
on the two patterns' shapes, so `inner` builds and validates it once per
pair of pattern shapes, compiles its reduction plan (`skein._plan`), keeps
both in a bounded LRU cache, and on each call replays the plan on the
patterns' labels (`skein._replay`).  A shape that fails to validate or to
compile is not cached and raises on every call.

A one-click turn of the disk permutes the basis and keeps every closure,
so `gram` reduces one closure per rotation orbit of index pairs (40 of
196); the basis is checked to be closed under the turn once per process.
The same turn does most of the other pairings with the basis: the 3-gon
is fixed by two turns, so it pairs alike with every basis pattern of an
orbit of two turns (6 closures of 14), and the second side of the
Yang-Baxter equation is the first turned three clicks, so its pairings
are the first side's in turned order (none of its own 14).  A
classification reduces 40 + 6 + 14 = 60 closures.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .diagram import Diagram, Vertex
from .errors import (
    GramRankDeficient,
    InternalEnumerationMismatch,
    InvariantViolation,
    NonFiniteScalar,
)
from .scalar import DEFAULT_TOL, Scalar, Tolerance
from .shapes import pattern_shape
from .skein import _plan, _replay, walk_connections
from .twobox import BoxVec, BraidPair, TwoBoxModel

Dart = tuple[int, int]
Attachment = tuple  # ("v", vid, slot) or ("b", j)


@dataclass(frozen=True)
class Pattern:
    """A 3-box diagram: labeled vertices in a disk with 6 boundary points."""

    vertices: tuple[tuple[int, Vertex], ...]
    internal_edges: tuple[tuple[Dart, Dart], ...]
    boundary: tuple[Attachment, ...]

    def __post_init__(self):
        if len(self.boundary) != 6:
            raise InvariantViolation("a 3-box pattern has 6 boundary points")

    @functools.cached_property
    def shape(self) -> tuple:
        """`pattern_shape(self)`, computed once."""
        return pattern_shape(self)

    def wiring(self, off: int, point) -> tuple[dict[int, Vertex], list, list]:
        """The pattern placed in a diagram: its vertices with ids shifted by
        `off`, its internal edges, and the legs that join boundary point i to
        `point(i)`, an arc i-j giving the leg point(i)-point(j) once."""
        vertices = {vid + off: v for vid, v in self.vertices}
        inner = [((a + off, sa), (b + off, sb)) for (a, sa), (b, sb) in self.internal_edges]
        legs = []
        arcs = set()
        for i, att in enumerate(self.boundary):
            if att[0] == "v":
                legs.append((point(i), (att[1] + off, att[2])))
            elif (arc := tuple(sorted((i, att[1])))) not in arcs:
                arcs.add(arc)
                legs.append((point(i), point(att[1])))
        return vertices, inner, legs

    def key(self):
        """Canonical form under vertex renumbering (boundary points are
        fixed, so a boundary-first scan pins the order)."""
        order: dict[int, int] = {}

        def see(vid: int) -> int:
            if vid not in order:
                order[vid] = len(order)
            return order[vid]

        vmap = dict(self.vertices)
        adjacency = {}
        for (a, sa), (b, sb) in self.internal_edges:
            adjacency[(a, sa)] = (b, sb)
            adjacency[(b, sb)] = (a, sa)

        enc = []
        for att in self.boundary:
            if att[0] == "v":
                enc.append(("v", see(att[1]), att[2]))
            else:
                enc.append(("b", att[1]))
        # encode each vertex in discovered order: label + internal edges
        listed = list(order)
        for vid in listed:  # the list grows while it is walked
            enc.append(vmap[vid].key)
            for slot in range(4):
                link = adjacency.get((vid, slot))
                if link is None:
                    enc.append(("open", slot))
                else:
                    w, ws = link
                    enc.append(("e", see(w), ws))
                    if w not in listed:
                        listed.append(w)
        return tuple(enc)

    def rotated(self) -> Pattern:
        """The pattern turned one click: boundary point i moves to i + 1,
        and the vertices and internal edges stay as they are."""
        bnd: list[Attachment] = [None] * 6
        for i, att in enumerate(self.boundary):
            bnd[(i + 1) % 6] = att if att[0] == "v" else ("b", (att[1] + 1) % 6)
        return Pattern(self.vertices, self.internal_edges, tuple(bnd))


def mirror(p: Pattern) -> Pattern:
    """Adjoint pattern: reflect top-bottom.  Boundary point i goes to 5-i,
    vertex darts reverse (slot -> 3-slot, keeping the $-region fixed), and
    labels conjugate coefficientwise."""
    verts = tuple(
        (vid, Vertex(tuple(c.conjugate() for c in v.coeffs), v.shading0))
        for vid, v in p.vertices
    )
    edges = tuple(
        ((a, 3 - sa), (b, 3 - sb)) for (a, sa), (b, sb) in p.internal_edges
    )
    bnd = []
    for i in range(6):
        att = p.boundary[5 - i]
        if att[0] == "v":
            bnd.append(("v", att[1], 3 - att[2]))
        else:
            bnd.append(("b", 5 - att[1]))
    return Pattern(verts, edges, tuple(bnd))


def closure(x: Pattern, y: Pattern) -> Diagram:
    """The closed diagram of tr_3(y* x): glue x with the mirror of y."""
    off = max((vid for vid, _ in x.vertices), default=-1) + 1
    x_verts, x_inner, x_legs = x.wiring(0, lambda i: ("g", i))
    # mirror(y)'s boundary point p sits on glue point 5 - p.
    y_verts, y_inner, y_legs = mirror(y).wiring(off, lambda p: ("g", 5 - p))
    pairs, loops = walk_connections(x_legs + y_legs, lambda n: n[0] == "g")

    d = Diagram({**x_verts, **y_verts}, {}, loops)
    for a, b in x_inner + y_inner + pairs:
        d.add_edge(a, b)
    # The inferred shading is consistent on every valid planar map, so the
    # pairing and planarity are what a malformed pattern can break.
    d.validate(check_shading=False)
    return d.infer_shading()


CLOSURE_CACHE_SIZE = 1024

ZERO = (0.0, 0.0, 0.0)


def _labelled(shape: tuple, coeffs) -> Pattern:
    """The pattern of a label-free shape (`pattern_shape`) with every
    vertex labelled by `coeffs`."""
    verts, edges, boundary = shape
    return Pattern(tuple((vid, Vertex(coeffs, s0)) for vid, s0 in verts), edges, boundary)


@functools.lru_cache(maxsize=CLOSURE_CACHE_SIZE)
def _closure_plan(x_shape: tuple, y_shape: tuple) -> tuple:
    """The vertex ids (x's, then mirror(y)'s) and the reduction plan of
    closure(x, y), which depend on the patterns' shapes only."""
    d = closure(_labelled(x_shape, ZERO), _labelled(y_shape, ZERO))
    return tuple(d.vertices), _plan(d)


def inner(model: TwoBoxModel, x: Pattern, y: Pattern, tol: Tolerance = DEFAULT_TOL) -> Scalar:
    """<x, y> = tr_3(y* x); linear in x, conjugate-linear in y."""
    ids, plan = _closure_plan(x.shape, y.shape)
    labels = [v.coeffs for _, v in x.vertices]
    labels += [tuple(c.conjugate() for c in v.coeffs) for _, v in y.vertices]
    return _replay(plan, dict(zip(ids, labels)), model, tol)[0]


# -- basis enumeration ---------------------------------------------------


def _noncrossing_matchings(points: list[int]) -> list[list[tuple[int, int]]]:
    if not points:
        return [[]]
    out = []
    first = points[0]
    for k in range(1, len(points), 2):
        inside = points[1:k]
        outside = points[k + 1 :]
        for m1 in _noncrossing_matchings(inside):
            for m2 in _noncrossing_matchings(outside):
                out.append([(first, points[k])] + m1 + m2)
    return out


def _tl_patterns() -> list[Pattern]:
    pats = []
    for matching in _noncrossing_matchings(list(range(6))):
        bnd: list[Attachment] = [None] * 6
        for i, j in matching:
            bnd[i] = ("b", j)
            bnd[j] = ("b", i)
        pats.append(Pattern((), (), tuple(bnd)))
    return pats


def _turns(seed: Pattern, n: int) -> list[Pattern]:
    """seed and its first n - 1 one-click turns."""
    pats = [seed]
    while len(pats) < n:
        pats.append(pats[-1].rotated())
    return pats


def _one_vertex_patterns() -> list[Pattern]:
    # Points 0 and 1 joined by an arc, 2..5 on the vertex's darts 0..3.
    bnd = (("b", 1), ("b", 0), *(("v", 0, slot) for slot in range(4)))
    return _turns(Pattern(((0, Vertex(ZERO)),), (), bnd), 6)


def _two_vertex_patterns() -> list[Pattern]:
    # Points 0..2 on vertex 0 and 3..5 on vertex 1: three turns give the
    # same pattern with the two vertices swapped.
    t = Vertex(ZERO)
    bnd = tuple(("v", vid, slot) for vid in (0, 1) for slot in range(3))
    return _turns(Pattern(((0, t), (1, t)), (((0, 3), (1, 3)),), bnd), 3)


@dataclass(frozen=True)
class Basis14:
    """The 14 face-free 3-box diagrams: 5 Temperley-Lieb, 6 one-vertex,
    3 two-vertex, in that order."""

    diagrams: tuple[Pattern, ...]

    @property
    def tl(self):
        return self.diagrams[:5]

    @property
    def one_vertex(self):
        return self.diagrams[5:11]

    @property
    def two_vertex(self):
        return self.diagrams[11:]


@functools.cache
def _basis_shapes() -> tuple:
    """The label-free shapes of the 14 basis patterns, in the Basis14 order,
    the rotation orbits of ordered index pairs as (rows, cols), first pair
    first, and the turn: the index of each basis pattern turned one click.
    Checked once per process: (5, 6, 3) patterns, pairwise distinct under
    vertex renumbering, each turned one click again in the basis.  Every
    vertex carries the same label, so the checks hold for the labelled
    basis of any model."""
    families = (_tl_patterns(), _one_vertex_patterns(), _two_vertex_patterns())
    if (counts := tuple(map(len, families))) != (5, 6, 3):
        raise InternalEnumerationMismatch(f"basis counts {counts} != (5, 6, 3)")
    pats = [p for family in families for p in family]
    index = {p.key(): i for i, p in enumerate(pats)}
    if len(index) != 14:
        raise InternalEnumerationMismatch("basis diagrams are not pairwise distinct")
    turn = [index.get(p.rotated().key()) for p in pats]
    if None in turn:
        raise InternalEnumerationMismatch("the basis is not closed under rotation")
    orbits = {}  # keyed by the set of pairs: the first pair seen stays first
    for pair in itertools.product(range(14), repeat=2):
        orbit = [pair]
        while (nxt := (turn[orbit[-1][0]], turn[orbit[-1][1]])) != pair:
            orbit.append(nxt)
        orbits.setdefault(frozenset(orbit), tuple(zip(*orbit)))
    return tuple(map(pattern_shape, pats)), tuple(orbits.values()), tuple(turn)


def enumerate_basis(model: TwoBoxModel) -> Basis14:
    """The basis shapes with every vertex labelled by the generator."""
    t = model.uncappable().coeffs
    return Basis14(tuple(_labelled(shape, t) for shape in _basis_shapes()[0]))


# -- Gram matrix ---------------------------------------------------------


@dataclass(frozen=True)
class GramMatrix:
    """G[i, j] = <D_i, D_j> over the Basis14 order."""

    entries: np.ndarray

    @functools.cached_property
    def singular_values(self) -> np.ndarray:
        """In descending order, computed once."""
        return np.linalg.svd(self.entries, compute_uv=False)

    @functools.cached_property
    def _eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(0.5 * (self.entries + self.entries.conj().T))

    def eigenvalues(self) -> np.ndarray:
        """Of the Hermitian part, in ascending order, computed once."""
        return self._eigenvalues

    def psd_defect(self) -> float:
        """Most negative eigenvalue relative to the largest; 0 when PSD."""
        evals = self.eigenvalues()
        lam_max = max(float(evals[-1]), Tolerance.EIG_FLOOR)
        return max(0.0, -float(evals[0]) / lam_max)

    def rank(self, tol: Tolerance = DEFAULT_TOL) -> int:
        s = self.singular_values
        if len(s) == 0 or s[0] == 0:
            return 0
        return int(np.sum(s >= tol.rank_tol * s[0]))

    def hermiticity_defect(self) -> float:
        g = self.entries
        scale = max(1.0, float(np.max(np.abs(g))))
        return float(np.max(np.abs(g - g.conj().T))) / scale


def gram(model: TwoBoxModel, basis: Basis14, tol: Tolerance = DEFAULT_TOL) -> GramMatrix:
    """One closure per rotation orbit of ordered pairs: but for the orbits
    of (0, 3) and (5, 8), (i, j) and (j, i) are reduced apart and
    `hermiticity_defect` compares two computations."""
    d = basis.diagrams
    g = np.zeros((len(d), len(d)), dtype=complex)
    for rows, cols in _basis_shapes()[1]:
        g[rows, cols] = inner(model, d[rows[0]], d[cols[0]], tol)
    return GramMatrix(g)


def expand(
    model: TwoBoxModel,
    pattern: Pattern,
    basis: Basis14,
    gm: GramMatrix,
    tol: Tolerance = DEFAULT_TOL,
) -> tuple[np.ndarray, float]:
    """Coefficients c with pattern = sum_j c_j D_j, solved from
    <pattern, D_i> = (G^T c)_i; returns (c, normal-equation residual)."""
    v = np.array(
        [inner(model, pattern, di, tol) for di in basis.diagrams], dtype=complex
    )
    return _expansion(gm, v, tol)


def _solve(gm: GramMatrix, v: np.ndarray, tol: Tolerance) -> np.ndarray:
    """c with G^T c = v, one column of c per column of v: solved at full
    rank, least squares below it."""
    gt = gm.entries.T
    if gm.rank(tol) < len(v):
        return np.linalg.lstsq(gt, v, rcond=tol.rank_tol)[0]
    return np.linalg.solve(gt, v)


def _expansion(gm: GramMatrix, v: np.ndarray, tol: Tolerance) -> tuple[np.ndarray, float]:
    """(c, normal-equation residual) for the pairings v of one pattern."""
    c = _solve(gm, v, tol)
    scale = max(1.0, float(np.linalg.norm(v)))
    return c, float(np.linalg.norm(gm.entries.T @ c - v)) / scale


# -- triangle patterns and the reduction table --------------------------


def triangle_pattern(model: TwoBoxModel, labels=None) -> Pattern:
    """Three labeled vertices around a 3-gon, in the frame the reducer
    produces: face corners at dart 0 with face-orbit order u, v, w and
    edges u.1-v.0, v.1-w.0, w.1-u.0.  The orbit runs clockwise around the
    face, so the counterclockwise disk boundary is (u.2, u.3, w.2, w.3,
    v.2, v.3).  Every vertex carries the generator unless `labels` are
    given."""
    if labels is None:
        labels = [model.uncappable().coeffs] * 3
    return _triangle(labels)


def _triangle(labels) -> Pattern:
    verts = tuple((i, Vertex(tuple(labels[i]))) for i in range(3))
    edges = (((0, 1), (1, 0)), ((1, 1), (2, 0)), ((2, 1), (0, 0)))
    bnd = []
    for i in (0, 2, 1):
        bnd.append(("v", i, 2))
        bnd.append(("v", i, 3))
    return Pattern(verts, edges, tuple(bnd))


@dataclass(frozen=True)
class TriangleTable:
    """The expansion of the 3-gon over Basis14, in the "left" frame that
    the skein reducer meets by construction."""

    left_coeffs: np.ndarray
    residual_left: float
    basis: Basis14
    gram: GramMatrix


def solve_triangle(
    model: TwoBoxModel,
    basis: Basis14 | None = None,
    gm: GramMatrix | None = None,
    tol: Tolerance = DEFAULT_TOL,
) -> TriangleTable:
    """The 3-gon's expansion, from one closure per orbit of two turns."""
    basis = basis or enumerate_basis(model)
    gm = gm or gram(model, basis, tol)
    rank = gm.rank(tol)
    if rank < 14:
        raise GramRankDeficient(f"Gram rank {rank} < 14; 3-box space degenerated")
    firsts, orbit_of, _ = _pairing_turns()
    tri = triangle_pattern(model)
    v = np.array([inner(model, tri, basis.diagrams[i], tol) for i in firsts], dtype=complex)
    cl, rl = _expansion(gm, v[list(orbit_of)], tol)
    return TriangleTable(cl, rl, basis, gm)


# -- braid relation residuals -------------------------------------------


def _braid_pattern(model: TwoBoxModel, braid: BraidPair, side: str, roots=(0, 0, 0)) -> Pattern:
    """One side of the Yang-Baxter equation as a 3-box pattern.

    Side "A" composes the crossings (1-2, 2-3, 1-2) bottom to top, side "B"
    composes (2-3, 1-2, 2-3).  Each crossing is a U-labeled vertex with legs
    (down-left, down-right, up-right, up-left) at darts (0, 1, 2, 3) shifted
    by the per-vertex root offset (mod 2; two clicks act trivially on U).
    """
    u = braid.U
    return _braid_wiring(side, roots, [(model.rotate(u) if k % 2 else u).coeffs for k in roots])


def _braid_wiring(side: str, roots, labels) -> Pattern:
    """`_braid_pattern` with vertex i labelled labels[i]."""
    verts = tuple((i, Vertex(labels[i])) for i in range(3))

    def leg(vid, which):
        # which in {dl, dr, ur, ul} -> dart slot with the root offset
        slot = {"dl": 0, "dr": 1, "ur": 2, "ul": 3}[which]
        return ("v", vid, (slot - roots[vid]) % 4)

    def dart(vid, which):
        att = leg(vid, which)
        return (att[1], att[2])

    bnd: list[Attachment] = [None] * 6
    if side == "A":
        # vertices: 0 = bottom 1-2 crossing, 1 = middle 2-3, 2 = top 1-2
        bnd[0] = leg(0, "dl")
        bnd[1] = leg(0, "dr")
        bnd[2] = leg(1, "dr")
        bnd[3] = leg(1, "ur")
        bnd[4] = leg(2, "ur")
        bnd[5] = leg(2, "ul")
        edges = (
            (dart(0, "ur"), dart(1, "dl")),
            (dart(1, "ul"), dart(2, "dr")),
            (dart(0, "ul"), dart(2, "dl")),
        )
    elif side == "B":
        # vertices: 0 = bottom 2-3 crossing, 1 = middle 1-2, 2 = top 2-3
        bnd[0] = leg(1, "dl")
        bnd[1] = leg(0, "dl")
        bnd[2] = leg(0, "dr")
        bnd[3] = leg(2, "ur")
        bnd[4] = leg(2, "ul")
        bnd[5] = leg(1, "ul")
        edges = (
            (dart(0, "ul"), dart(1, "dr")),
            (dart(1, "ur"), dart(2, "dl")),
            (dart(0, "ur"), dart(2, "dr")),
        )
    else:
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    return Pattern(verts, edges, tuple(bnd))


@functools.cache
def _pairing_turns() -> tuple:
    """How the turn gives the 3-gon's and side B's pairings with the basis
    from fewer closures, checked once per process with equal labels (a
    failed check raises InternalEnumerationMismatch):

    * two turns fix the 3-gon, so <T, D_j> = <T, D_turn²(j)>.  Returned
      as the first index of each orbit of two turns (6 of 14) and, for each
      j, the place of its orbit among them;
    * side B with every vertex re-rooted by two clicks, which leaves a
      braid label as it is (`TwoBoxModel.rotate_coeffs`), is side A turned
      three clicks, so <B, D_j> = <A, D_turn³(j)>.  Returned as turn³."""
    turn = _basis_shapes()[2]
    tri = _triangle([ZERO] * 3)
    if tri.rotated().rotated().key() != tri.key():
        raise InternalEnumerationMismatch("the 3-gon is not fixed by two turns")
    side_a = _braid_wiring("A", (0, 0, 0), [ZERO] * 3)
    side_b = _braid_wiring("B", (2, 2, 2), [ZERO] * 3)
    if side_a.rotated().rotated().rotated().key() != side_b.key():
        raise InternalEnumerationMismatch("side B is not side A turned three clicks")
    turn2 = [turn[turn[j]] for j in range(14)]
    first = [min(j, turn2[j], turn2[turn2[j]]) for j in range(14)]
    firsts = tuple(sorted(set(first)))
    return firsts, tuple(firsts.index(f) for f in first), tuple(turn[k] for k in turn2)


def ybe_residual(
    model: TwoBoxModel,
    braid: BraidPair,
    table: TriangleTable,
    tol: Tolerance = DEFAULT_TOL,
) -> float:
    """Gram-norm distance between the Basis14 expansions of the two sides
    of the Yang-Baxter equation, relative to side A's Gram norm.

    Side A alone is paired with the basis: side B's pairings are A's in
    turn³ order (`_pairing_turns`), and one solve expands both.  A
    quadratic form past the float range raises NonFiniteScalar."""
    pa = _braid_pattern(model, braid, "A")
    va = np.array([inner(model, pa, dj, tol) for dj in table.basis.diagrams], dtype=complex)
    turn3 = list(_pairing_turns()[2])
    ca, cb = _solve(table.gram, np.column_stack((va, va[turn3])), tol).T
    g = table.gram.entries
    with np.errstate(over="ignore", invalid="ignore"):
        d = ca - cb
        val = d.conj() @ g @ d
        norm_a = np.abs(ca.conj() @ g @ ca)
    if not (np.isfinite(val) and np.isfinite(norm_a)):
        raise NonFiniteScalar(
            f"the Yang-Baxter residual overflowed: <A - B, A - B> = {complex(val)!r}, "
            f"<A, A> = {float(norm_a)!r}"
        )
    scale = max(1.0, float(norm_a))
    return float(np.sqrt(max(val.real, 0.0)) / np.sqrt(scale))


def reidemeister_residuals(model: TwoBoxModel, braid: BraidPair) -> tuple[float, float, float]:
    """(r1, r2, quad): twist, planar Reidemeister II, and quadratic
    relation defects.

    r1 compares both cap-twists of U against (sigma*r, 1/r).  r2 is
    ||rotate(U) - sigma V|| / max(1, ||U||): turning the crossing one click
    gives sigma times its inverse (the rotation flips the shading, so the
    coefficients are compared).  It tests (q, r) against the model's
    rotation, which depends on (delta, a, b, sigma).  quad is
    ||U - V - (q - 1/q)(id - sigma*delta*e)||.
    """
    u, v = braid.U, braid.V
    q, r = braid.q, braid.r
    d = model.delta
    r1 = max(
        abs(model.cap(u, 0) - model.sigma * r),
        abs(model.cap(u, 1) - 1.0 / r),
    )
    turned = BoxVec(v.side, model.rotate(u).coeffs)
    r2 = (turned - model.sigma * v).norm() / max(1.0, u.norm())
    quad_rhs = (q - 1.0 / q) * (model.identity() - (model.sigma * d) * model.e())
    quad = ((u - v) - quad_rhs).norm()
    return float(r1), float(r2), float(quad)
