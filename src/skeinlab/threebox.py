"""The 14-dimensional 3-box space: diagram basis, Gram matrix, triangle
reduction table, and the braid-relation residuals.

A 3-box is presented as a pattern in a disk with 6 boundary points, labeled
0..5 counterclockwise starting after the $-marker.  Points 0,1,2 are the
bottom of the box and 3,4,5 the top (right to left), so the adjoint is the
top-bottom reflection i -> 5-i and the trace closure of Y*X glues
X.i <-> mirror(Y).(5-i) for every i.

The algebra is singly generated: the basis is the 14 face-free diagrams,
every vertex labelled by the model's uncappable generator, so one set of
label-free shapes (`_basis_shapes`) serves every model.  All inner
products reduce to closed diagrams with at most 5 vertices, which the
skein engine evaluates without a triangle table (Euler counting leaves a
face with at most 2 sides at every step); `inner` is `skein.evaluate` on
the closure.

A one-click turn of the disk keeps every closure and permutes the basis,
which is checked once per process.  `_pairing_program` pairs any x-side
shapes with the basis: it closes them under the turn, builds and plans one
closure per rotation orbit of pairs (x, D_j) from its first pair, compiles
them into one program (`skein._compile`), and indexes each pair by its
orbit; a shape that fails to validate or to compile raises on every
call.  A classification reduces 40 + 14 = 54 closures in two programs,
the Gram matrix's and the Yang-Baxter sides' (the 3-gon's 6 only for
`evaluate`).  Each program has two leaves, the generator (or U on the
braid sides) on x's vertices and its conjugate on mirror(D_j)'s, as
complex triples; `skein._run` also runs one on exact or array leaves.
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
from .skein import _compile, _plan, _run, evaluate, walk_connections
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
        """The label-free wiring, computed once: vertex ids with shading
        bits, internal edges, boundary."""
        return tuple((vid, v.shading0) for vid, v in self.vertices), self.internal_edges, self.boundary

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


def wiring(shape: tuple, off: int, point) -> tuple[list, list]:
    """A pattern placed in a diagram, from its shape (`Pattern.shape`): its
    internal edges with vertex ids shifted by `off`, and the legs that join
    boundary point i to `point(i)`, an arc i-j giving the leg
    point(i)-point(j) once.  Shared by the closure and the triangle
    substitution."""
    _, edges, boundary = shape
    inner = [((a + off, sa), (b + off, sb)) for (a, sa), (b, sb) in edges]
    legs = []
    arcs = set()
    for i, att in enumerate(boundary):
        if att[0] == "v":
            legs.append((point(i), (att[1] + off, att[2])))
        elif (arc := tuple(sorted((i, att[1])))) not in arcs:
            arcs.add(arc)
            legs.append((point(i), point(att[1])))
    return inner, legs


def closure(x: Pattern, y: Pattern) -> Diagram:
    """The closed diagram of tr_3(y* x): glue x with the mirror of y."""
    off = max((vid for vid, _ in x.vertices), default=-1) + 1
    y = mirror(y)
    x_inner, x_legs = wiring(x.shape, 0, lambda i: ("g", i))
    # mirror(y)'s boundary point p sits on glue point 5 - p.
    y_inner, y_legs = wiring(y.shape, off, lambda p: ("g", 5 - p))
    pairs, loops = walk_connections(x_legs + y_legs, lambda n: n[0] == "g")

    d = Diagram(dict(x.vertices) | {vid + off: v for vid, v in y.vertices}, {}, loops)
    for a, b in x_inner + y_inner + pairs:
        d.add_edge(a, b)
    # The inferred shading is consistent on every valid planar map, so the
    # pairing and planarity are what a malformed pattern can break.
    d.validate(check_shading=False)
    return d.infer_shading()


ZERO = (0.0, 0.0, 0.0)


def _labelled(shape: tuple, coeffs) -> Pattern:
    """The pattern of a label-free shape (`Pattern.shape`) with every
    vertex labelled by `coeffs`."""
    verts, edges, boundary = shape
    return Pattern(tuple((vid, Vertex(coeffs, s0)) for vid, s0 in verts), edges, boundary)


def inner(model: TwoBoxModel, x: Pattern, y: Pattern, tol: Tolerance = DEFAULT_TOL) -> Scalar:
    """<x, y> = tr_3(y* x); linear in x, conjugate-linear in y: the
    FormalSum engine on the closure."""
    return evaluate(closure(x, y), model, None, tol)


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


@functools.cache
def _basis_shapes() -> tuple:
    """The label-free shapes of the 14 face-free 3-box diagrams, 5
    Temperley-Lieb, 6 one-vertex and 3 two-vertex in that order, and the
    turn: the index of each basis pattern turned one click.  Checked once
    per process: (5, 6, 3) patterns, pairwise distinct under vertex
    renumbering, each turned one click again in the basis.  Every vertex
    carries the same label, so the checks hold for the labelled basis of
    any model and for the shapes that the 3-gon substitution wires."""
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
    return tuple(p.shape for p in pats), tuple(turn)


def enumerate_basis(model: TwoBoxModel) -> tuple[Pattern, ...]:
    """The 14 basis patterns, every vertex labelled by the model's
    generator.  No pipeline stage labels them: `expand` and tests do."""
    t = model.uncappable().coeffs
    return tuple(_labelled(shape, t) for shape in _basis_shapes()[0])


@functools.cache
def _pairing_program(xs: tuple) -> tuple:
    """The program of one closure per rotation orbit of the pairs (x, D_j)
    of x-side shapes `xs` and basis patterns, and the orbit of each pair in
    row-major order.  `xs` is closed under the turn, turned patterns matched
    by `Pattern.key`; an orbit's closure is built, planned and compiled
    from its first pair, x's vertices on leaf 0 and mirror(D_j)'s on leaf
    1.  This cache is the only one of compiled closures."""
    shapes, turn = _basis_shapes()
    pats, place = [], {}  # the closed patterns, and each one's place by key

    def row(p: Pattern) -> int:
        if (key := p.key()) not in place:
            place[key] = len(pats)
            pats.append(p)
        return place[key]

    first = [row(_labelled(x, ZERO)) for x in xs]
    turned = [row(p.rotated()) for p in pats]  # pats grows while it is walked
    orbit: dict[tuple, int] = {}  # (row, j) -> the place of its orbit's closure
    closures, index = [], []
    for x, j in itertools.product(range(len(xs)), range(len(shapes))):
        if (pair := (first[x], j)) not in orbit:
            d = closure(_labelled(xs[x], ZERO), _labelled(shapes[j], ZERO))
            leaf = {v: int(k >= len(xs[x][0])) for k, v in enumerate(d.vertices)}
            closures.append((_plan(d), leaf))
            at = pair
            while at not in orbit:
                orbit[at] = len(closures) - 1
                at = (turned[at[0]], turn[at[1]])
        index.append(orbit[pair])
    return _compile(closures, 2), np.array(index, dtype=np.intp)


def _pairings(xs: tuple, model: TwoBoxModel, x_label) -> np.ndarray:
    """<x, D_j> for the shapes x of `xs` labelled x_label and the model's
    basis, in row-major order, from `_pairing_program(xs)`: what `inner`
    gives on each orbit's first pair, up to roundoff, since the program
    drops nothing and the engine drops tiny terms.  Adding 0.0 turns a
    signed zero -0.0 into 0.0, so no report prints one."""
    program, index = _pairing_program(xs)
    y_bar = tuple(c.conjugate() for c in model.uncappable().coeffs)
    return np.array(_run(program, (x_label, y_bar), model), dtype=complex)[index] + 0.0


# -- Gram matrix ---------------------------------------------------------


@dataclass(frozen=True)
class GramMatrix:
    """G[i, j] = <D_i, D_j> over the basis order, one value per rotation
    orbit of (i, j) (`gram`).  Rank, PSD defect and every solve read
    D·G·D, D = |diag G|^-1/2 (Higham, Accuracy and Stability of Numerical
    Algorithms, 7.3): cond(G) is 3.1e4 at delta = 5 and 8.8e20 at 1e3,
    cond(D·G·D) 5.4 and 1.1."""

    entries: np.ndarray

    @functools.cached_property
    def scale(self) -> np.ndarray:
        """The diagonal of D: |G_ii|^-1/2, and 1 where G_ii is 0."""
        d = np.abs(np.diagonal(self.entries))
        return 1.0 / np.sqrt(np.where(d > 0, d, 1.0))

    @functools.cached_property
    def _scaled(self) -> np.ndarray:
        return self.scale[:, None] * self.entries * self.scale

    @functools.cached_property
    def _spectrum(self) -> np.ndarray:
        """Of the Hermitian part of D·G·D, in ascending order."""
        return np.linalg.eigvalsh(0.5 * (self._scaled + self._scaled.conj().T))

    def eigenvalues(self) -> np.ndarray:
        """Of the Hermitian part of the raw G, in ascending order."""
        return np.linalg.eigvalsh(0.5 * (self.entries + self.entries.conj().T))

    def psd_defect(self) -> float:
        """Most negative eigenvalue of D·G·D relative to the largest; 0 if PSD."""
        evals = self._spectrum
        lam_max = max(float(evals[-1]), Tolerance.EIG_FLOOR)
        return max(0.0, -float(evals[0]) / lam_max)

    def rank(self) -> int:
        """Eigenvalues of D·G·D at least RANK_TOL times the largest in modulus."""
        s = np.abs(self._spectrum)
        return int(np.sum(s >= Tolerance.RANK_TOL * s.max())) if s.any() else 0

    def hermiticity_defect(self) -> float:
        g = self.entries
        scale = max(1.0, float(np.max(np.abs(g))))
        return float(np.max(np.abs(g - g.conj().T))) / scale


def gram(model: TwoBoxModel) -> GramMatrix:
    """G from `_pairings` of the basis with itself, 40 closures for 196
    entries.  But for the orbits of (0, 3) and (5, 8), (i, j) and (j, i)
    are reduced apart, so `hermiticity_defect` compares two computations."""
    t = model.uncappable().coeffs
    return GramMatrix(_pairings(_basis_shapes()[0], model, t).reshape(14, 14))


def expand(
    model: TwoBoxModel,
    pattern: Pattern,
    gm: GramMatrix,
    tol: Tolerance = DEFAULT_TOL,
) -> tuple[np.ndarray, float]:
    """Coefficients c with pattern = sum_j c_j D_j, solved from
    <pattern, D_i> = (G^T c)_i; returns (c, normal-equation residual)."""
    v = np.array([inner(model, pattern, di, tol) for di in enumerate_basis(model)], dtype=complex)
    return _expansion(gm, v)


def _solve(gm: GramMatrix, v: np.ndarray) -> np.ndarray:
    """c with G^T c = v, one column of c per column of v: c = D y with
    (D G^T D) y = D v.  Below full rank raises GramRankDeficient."""
    if (rank := gm.rank()) < len(gm.entries):
        raise GramRankDeficient(f"Gram rank {rank} < {len(gm.entries)}; 3-box space degenerated")
    d = gm.scale.reshape((-1,) + (1,) * (v.ndim - 1))
    return d * np.linalg.solve(gm._scaled.T, d * v)


def _expansion(gm: GramMatrix, v: np.ndarray) -> tuple[np.ndarray, float]:
    """(c, normal-equation residual) for the pairings v of one pattern."""
    c = _solve(gm, v)
    scale = max(1.0, float(np.linalg.norm(v)))
    return c, float(np.linalg.norm(gm.entries.T @ c - v)) / scale


# -- triangle patterns and the reduction table --------------------------


def triangle_pattern(model: TwoBoxModel) -> Pattern:
    """`_triangle` with every vertex labelled by the generator."""
    return _triangle([model.uncappable().coeffs] * 3)


def _triangle(labels) -> Pattern:
    """Three labeled vertices around a 3-gon, in the frame the reducer
    produces: face corners at dart 0 with face-orbit order u, v, w and
    edges u.1-v.0, v.1-w.0, w.1-u.0.  The orbit runs clockwise around the
    face, so the counterclockwise disk boundary is (u.2, u.3, w.2, w.3,
    v.2, v.3); vertex i is labelled labels[i]."""
    verts = tuple((i, Vertex(tuple(labels[i]))) for i in range(3))
    edges = (((0, 1), (1, 0)), ((1, 1), (2, 0)), ((2, 1), (0, 0)))
    bnd = []
    for i in (0, 2, 1):
        bnd.append(("v", i, 2))
        bnd.append(("v", i, 3))
    return Pattern(verts, edges, tuple(bnd))


@dataclass(frozen=True)
class TriangleTable:
    """The expansion of the 3-gon over the basis, in the "left" frame that
    the skein reducer meets by construction, and the generator that labels
    the basis and the 3-gon.  Only the skein engine reads it, at a 3-gon."""

    left_coeffs: np.ndarray
    residual_left: float
    generator: tuple


def solve_triangle(model: TwoBoxModel, gm: GramMatrix | None = None) -> TriangleTable:
    """The 3-gon's expansion from its `_pairings` with the basis, those of
    `triangle_pattern(model)`: two turns fix the 3-gon, so it takes 6
    closures for the 14; only `evaluate` at a 3-gon needs it."""
    gm = gm or gram(model)
    t = model.uncappable().coeffs
    cl, rl = _expansion(gm, _pairings(_TRIANGLE_SHAPES, model, t))
    return TriangleTable(cl, rl, t)


# -- braid relation residuals -------------------------------------------


# Each side's legs on boundary points 0..5 and internal edges, as (vertex,
# leg); vertices 0, 1, 2 are the bottom, middle and top crossings.
DL, DR, UR, UL = range(4)
_BRAID_SIDES = {
    "A": (
        ((0, DL), (0, DR), (1, DR), (1, UR), (2, UR), (2, UL)),
        (((0, UR), (1, DL)), ((1, UL), (2, DR)), ((0, UL), (2, DL))),
    ),
    "B": (
        ((1, DL), (0, DL), (0, DR), (2, UR), (2, UL), (1, UL)),
        (((0, UL), (1, DR)), ((1, UR), (2, DL)), ((0, UR), (2, DR))),
    ),
}


def _braid_wiring(side: str, roots, labels) -> Pattern:
    """One side of the Yang-Baxter equation, vertex i labelled labels[i]:
    side "A" composes the crossings (1-2, 2-3, 1-2) bottom to top, side "B"
    (2-3, 1-2, 2-3).  Each crossing's legs (down-left, down-right, up-right,
    up-left) are at darts (0, 1, 2, 3) shifted by its root offset."""
    if side not in _BRAID_SIDES:
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    legs, edges = _BRAID_SIDES[side]

    def dart(vid: int, leg: int) -> Dart:
        return vid, (leg - roots[vid]) % 4

    return Pattern(
        tuple((i, Vertex(labels[i])) for i in range(3)),
        tuple((dart(*a), dart(*b)) for a, b in edges),
        tuple(("v", *dart(*leg)) for leg in legs),
    )


# The x-side shapes of the 3-gon and the Yang-Baxter sides.  Side B re-rooted
# by two clicks, which keeps a braid label, is side A turned three clicks.
_TRIANGLE_SHAPES = (_triangle([ZERO] * 3).shape,)
_BRAID_SHAPES = (
    _braid_wiring("A", (0, 0, 0), [ZERO] * 3).shape,
    _braid_wiring("B", (2, 2, 2), [ZERO] * 3).shape,
)


def ybe_residual(model: TwoBoxModel, braid: BraidPair, gm: GramMatrix) -> float:
    """Distance in the Gram norm of gm between the basis expansions of the
    two sides of the Yang-Baxter equation, relative to side A's norm.

    Both sides are paired with the basis by `_pairings`, with U as the
    x-side label; side B is side A turned three clicks, so its pairings
    are read from side A's 14 closures, and one solve expands both.  A
    quadratic form past the float range raises NonFiniteScalar."""
    v = _pairings(_BRAID_SHAPES, model, braid.U.coeffs)
    ca, cb = _solve(gm, v.reshape(2, -1).T).T
    g = gm.entries
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
