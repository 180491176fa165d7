import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    coproduct_product_trace_closure,
    coproduct_trace_closure,
    octahedron_diagram,
    product_trace_closure,
    random_diagram_corpus,
    reference_canonical_key,
    reference_faces,
    reference_id_e_t_decomposition,
    reference_normalized,
    reference_substitute_triangle,
    reference_surgery,
    reference_walk_connections,
    renumbered,
    rotated_trace_closure,
    same_wiring,
    trace_closure,
)
from skeinlab import (
    DEPTH3_DELTA,
    BoxVec,
    Diagram,
    FormalSum,
    Vertex,
    delta_for_l,
    evaluate,
    evaluate_detailed,
    find_small_face,
    from_classification_data,
    reduce_once,
    solve_triangle,
)
from skeinlab import shapes, skein, threebox
from skeinlab.errors import (
    InvariantViolation,
    MalformedPairing,
    NonFiniteScalar,
    NonPlanar,
    ShadingInconsistent,
    TriangleTableRequired,
)
from skeinlab.classify import Stages
from skeinlab.skein import small_faces
from skeinlab.twobox import PLUS


# -- validation ----------------------------------------------------------


def test_circle_is_valid():
    Diagram({}, {}, free_loops=1).validate()


def test_self_capped_vertex_is_valid():
    d = trace_closure((1.0, 2.0, 3.0))
    d.validate()
    assert sorted(len(f) for f in d.faces()) == [1, 1, 2]


def test_unpaired_dart_rejected():
    d = Diagram({0: Vertex((1.0, 0.0, 0.0))}, {})
    d.add_edge((0, 0), (0, 1))
    with pytest.raises(MalformedPairing):
        d.validate()


def test_self_paired_dart_rejected():
    d = Diagram({0: Vertex((1.0, 0.0, 0.0))}, {})
    with pytest.raises(MalformedPairing):
        d.add_edge((0, 0), (0, 0))
    # An edge map built directly, past add_edge's check.
    d.edges.update({(0, 0): (0, 0), (0, 1): (0, 2), (0, 2): (0, 1), (0, 3): (0, 3)})
    with pytest.raises(MalformedPairing, match="self-paired dart"):
        d.validate()


def test_nonplanar_pairing_rejected():
    # crossed caps (0,2) and (1,3) on a single vertex give a torus map
    d = Diagram({0: Vertex((1, 0, 0))}, {})
    d.add_edge((0, 0), (0, 2))
    d.add_edge((0, 1), (0, 3))
    with pytest.raises((NonPlanar, ShadingInconsistent)):
        d.validate()


def test_shading_inconsistency_detected():
    # flipping one vertex of a two-vertex closure breaks the checkerboard
    two = product_trace_closure((1, 0, 0), (0, 1, 0))
    v1 = two.vertices[1]
    mixed = Diagram(
        {0: two.vertices[0], 1: Vertex(v1.coeffs, (v1.shading0 + 1) % 2)},
        dict(two.edges),
    )
    with pytest.raises(ShadingInconsistent):
        mixed.validate()


# -- faces ---------------------------------------------------------------


def test_find_small_face_prefers_smallest():
    d = trace_closure((1.0, 1.0, 1.0))
    assert len(find_small_face(d)) == 1
    with pytest.raises(InvariantViolation, match="no vertices"):
        find_small_face(Diagram())


def test_theta_diagram_has_a_two_gon(model12):
    d = product_trace_closure((0, 1, 0), (0, 1, 0))
    assert any(len(f) == 2 for f in d.faces())


def test_octahedron_all_faces_are_triangles():
    rng = np.random.default_rng(2)
    d = octahedron_diagram([rng.normal(size=3) for _ in range(6)])
    d.validate()
    sizes = sorted(len(f) for f in d.faces())
    assert sizes == [3] * 8
    assert len(find_small_face(d)) == 3


# -- reduction oracles ---------------------------------------------------


def test_circle_evaluates_to_delta(model12):
    assert abs(evaluate(Diagram({}, {}, 1), model12) - model12.delta) < 1e-12


def test_two_circles_evaluate_to_delta_squared(model12):
    assert abs(evaluate(Diagram({}, {}, 2), model12) - model12.delta ** 2) < 1e-12


def test_trace_closures_match_twobox(model12, model_depth3):
    rng = np.random.default_rng(3)
    for m in (model12, model_depth3):
        for _ in range(10):
            c = tuple(rng.normal(size=3) + 1j * rng.normal(size=3))
            x = BoxVec(PLUS, c)
            assert abs(evaluate(trace_closure(c), m) - m.trace(x)) < 1e-10
            assert (
                abs(evaluate(rotated_trace_closure(c), m) - m.trace(m.rotate(x)))
                < 1e-10
            )


def test_structure_constant_agreement_all_basis_pairs(model12, model_depth3):
    basis = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]
    for m in (model12, model_depth3):
        for cx in basis:
            for cy in basis:
                x, y = BoxVec(PLUS, cx), BoxVec(PLUS, cy)
                got = evaluate(product_trace_closure(cx, cy), m)
                want = m.trace(m.product(x, y))
                assert abs(got - want) < 1e-10
                got = evaluate(coproduct_trace_closure(cx, cy), m)
                want = m.trace(x) * m.trace(y) / m.delta
                assert abs(got - want) < 1e-10


def test_null_three_vertex_diagram(model12):
    # tr((P1 * P1) P1) = 0
    p1 = (0.0, 1.0, 0.0)
    v = evaluate(coproduct_product_trace_closure(p1, p1, p1), model12)
    assert abs(v) < 1e-10


def test_three_vertex_closure_matches_twobox(model12):
    rng = np.random.default_rng(4)
    m = model12
    for _ in range(10):
        cs = [tuple(rng.normal(size=3)) for _ in range(3)]
        got = evaluate(coproduct_product_trace_closure(*cs), m)
        boxes = [BoxVec(PLUS, c) for c in cs]
        want = m.trace(m.product(m.coproduct(boxes[0], boxes[1]), boxes[2]))
        assert abs(got - want) < 1e-9 * max(1.0, abs(want))


def test_reduce_once_strictly_decreases_measure(model12):
    d = product_trace_closure((0.3, 1.1, -0.2), (0.5, -0.4, 0.9))
    s = FormalSum([(1.0 + 0j, d)])
    measure = (d.n_vertices, d.n_edges, d.free_loops)
    while not s.is_scalar:
        s = reduce_once(s, model12)
        worst = max(
            ((t.n_vertices, t.n_edges, t.free_loops) for _, t in s.terms),
            default=(0, 0, 0),
        )
        assert worst < measure
        measure = worst


def test_three_gon_requires_table(model12):
    rng = np.random.default_rng(5)
    d = octahedron_diagram([rng.normal(size=3) for _ in range(6)])
    with pytest.raises(TriangleTableRequired):
        evaluate(d, model12)


# -- the id/e/T split of a 3-gon corner ---------------------------------

_LOCI = st.one_of(
    st.just(DEPTH3_DELTA),
    st.integers(6, 100).map(lambda k: delta_for_l(2 * k)),
    st.floats(4.0, 1e6),
)
# Coefficients on a grid of 2^-53 scaled by 2^k, so that no label is so
# small that (c1 - c2)/(a + b) underflows.
_PART = st.integers(-(2**53), 2**53).map(lambda n: n / 2.0**53)
_LABEL = st.tuples(
    st.tuples(*[st.builds(complex, _PART, _PART)] * 3), st.integers(-100, 100)
).map(lambda t: tuple(c * 2.0**t[1] for c in t[0]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(delta=_LOCI, label=_LABEL)
def test_id_e_t_split_reproduces_the_label(delta, label):
    """The closed form alpha id + beta e + gamma T, T = bP1 - aP2, summed
    exactly, gives the label back within 8 ulp of its largest coefficient:
    rounding bounds the P1 coordinate by 3u|c1 - c2| from gamma, u a|gamma|
    from a gamma and u|alpha| from alpha (u = 2^-53, a <= b, |c1 - c2| <= 2
    scale).  It agrees with the 3x3 solve it replaced within 4e-15 of the
    scale."""
    model = Stages(delta).model
    alpha, beta, gamma = skein._id_e_t_decomposition(model, label)
    scale = max(map(abs, label))
    a, b = Fraction(model.a), Fraction(model.b)
    for part in (lambda z: z.real, lambda z: z.imag):
        x, y, z = (Fraction(part(w)) for w in (alpha, beta, gamma))
        c0, c1, c2 = (Fraction(part(w)) for w in label)
        worst = max(abs(x + y - c0), abs(x + b * z - c1), abs(x - a * z - c2))
        assert worst <= 8 * Fraction(math.ulp(scale))
    ra, rb, rg = reference_id_e_t_decomposition(model, label)
    diff = max(abs(alpha - ra), abs(beta - rb), (model.a + model.b) * abs(gamma - rg))
    assert diff <= 4e-15 * scale


# -- confluence and invariance ------------------------------------------


def test_confluence_fifty_diagrams_ten_orders(model12, table12):
    rng = np.random.default_rng(6)
    corpus = random_diagram_corpus(rng, 50, max_vertices=5)
    for d in corpus:
        base = evaluate(d, model12, table12)
        for trial in range(10):
            trial_rng = np.random.default_rng(1000 + trial)

            def chooser(diag, _r=trial_rng):
                fs = small_faces(diag)
                return fs[_r.integers(len(fs))]

            v = evaluate(d, model12, table12, chooser=chooser)
            assert abs(v - base) < 1e-9 * max(1.0, abs(base))


def test_octahedron_confluent(model12, table12):
    rng = np.random.default_rng(7)
    d = octahedron_diagram([rng.normal(size=3) for _ in range(6)])
    base, steps = evaluate_detailed(d, model12, table12)
    assert steps > 0
    for trial in range(10):
        trial_rng = np.random.default_rng(2000 + trial)

        def chooser(diag, _r=trial_rng):
            fs = small_faces(diag)
            return fs[_r.integers(len(fs))]

        v = evaluate(d, model12, table12, chooser=chooser)
        assert abs(v - base) < 1e-9 * max(1.0, abs(base))


def test_relabeling_invariance(model12, table12):
    rng = np.random.default_rng(8)
    corpus = random_diagram_corpus(rng, 10, max_vertices=4)
    for d in corpus:
        perm = {v: w for v, w in zip(d.vertices, rng.permutation(list(d.vertices)))}
        relabeled = Diagram(
            {perm[v]: vert for v, vert in d.vertices.items()},
            {
                (perm[a], sa): (perm[b], sb)
                for (a, sa), (b, sb) in d.edges.items()
            },
            d.free_loops,
        )
        assert relabeled.canonical_key() == d.canonical_key()
        v1 = evaluate(d, model12, table12)
        v2 = evaluate(relabeled, model12, table12)
        assert abs(v1 - v2) < 1e-10 * max(1.0, abs(v1))


def test_formal_sum_dedup(model12):
    d1 = trace_closure((0.0, 1.0, 0.0))
    d2 = trace_closure((0.0, 1.0, 0.0))
    s = FormalSum([(1.0 + 0j, d1), (2.0 + 0j, d2)]).normalized()
    assert len(s.terms) == 1
    assert abs(s.terms[0][0] - 3.0) < 1e-12


@pytest.mark.parametrize("bad", [math.inf, complex(math.nan, 0.0)])
def test_formal_sum_refuses_a_non_finite_coefficient(bad):
    # Not first in the sum, where max() over the sizes would not see a nan.
    terms = [(1.0 + 0j, trace_closure((0.0, 1.0, 0.0))), (bad, trace_closure((1.0, 0.0, 0.0)))]
    with pytest.raises(NonFiniteScalar):
        FormalSum(terms).normalized()


def test_an_overflow_is_not_evaluated_as_zero(model12, table12):
    # Every label near 1e100: the 3-gon expansion overflows, and the terms
    # that came out inf or nan were dropped as zeros, giving 0j.
    d = octahedron_diagram([(1e100, -3e100, 2e100)] * 6)
    with pytest.raises(NonFiniteScalar):
        evaluate(d, model12, table12)


def test_evaluation_multiplicative_over_components(model12):
    c1 = (0.4, 1.2, -0.7)
    c2 = (1.5, -0.3, 0.8)
    d1 = trace_closure(c1)
    d2 = trace_closure(c2)
    both = Diagram(dict(d1.vertices), dict(d1.edges))
    both.vertices[1] = d2.vertices[0]
    for (a, sa), (b, sb) in d2.edges.items():
        both.edges[(1, sa)] = (1, sb)
    both = both.infer_shading()
    both.validate()
    v = evaluate(both, model12)
    want = evaluate(d1, model12) * evaluate(d2, model12)
    assert abs(v - want) < 1e-9 * max(1.0, abs(want))


# -- canonical keys and surgery against their full-search references ---------


def _relabeled(d, rng):
    """d with its labels permuted among its vertices by a seeded draw."""
    verts = list(d.vertices.values())
    perm = rng.permutation(len(verts))
    return Diagram(
        {v: Vertex(verts[k].coeffs, d.vertices[v].shading0) for v, k in zip(d.vertices, perm)},
        dict(d.edges),
        d.free_loops,
    )


def test_canonical_key_matches_the_all_starts_reference(triangle_rich):
    rng = np.random.default_rng(12)
    corpus = list(triangle_rich.values()) + random_diagram_corpus(rng, 20, max_vertices=5)
    for d in corpus:
        want = reference_canonical_key(d)
        assert d.canonical_key() == want
        for _ in range(4):
            assert renumbered(d, rng).canonical_key() == want
            moved = _relabeled(d, rng)
            assert moved.canonical_key() == reference_canonical_key(moved)


def test_canonical_key_matches_the_reference_on_reduction_terms(model12, table12, triangle_rich):
    """Every term met while reducing the corpus: self-loops, disconnected
    terms and tied generator labels after each 3-gon expansion."""
    seen = 0
    for name in ("octahedron-tied", "octahedron-mixed", "square_pyramid-mixed", "disconnected"):
        s = FormalSum([(complex(1.0), triangle_rich[name])])
        while not s.is_scalar:
            s = reduce_once(s, model12, table12)
            for _, diag in s.terms:
                assert diag.canonical_key() == reference_canonical_key(diag)
                seen += 1
    assert seen > 100


def test_delta_matches_the_full_scan_reference(model12, table12, triangle_rich, monkeypatch):
    """Every edge delta the engine computes on the corpus, applied by
    `_rebuild`, against the full-scan surgery: the same kept vertices in
    order, edge map and loops."""
    local = skein._delta
    calls = []

    def checked(diagram, removed, inner, new_edges=()):
        delta = local(diagram, removed, inner, new_edges)
        got = skein._rebuild(diagram, removed, {}, delta)
        want, loops = reference_surgery(diagram, removed, inner, None, new_edges)
        assert list(got.vertices.items()) == list(want.vertices.items())
        assert got.edges == want.edges
        assert (diagram.free_loops, got.free_loops) == (0, want.free_loops) == (0, loops)
        calls.append(len(removed))
        return delta

    monkeypatch.setattr(skein, "_delta", checked)
    for d in triangle_rich.values():
        evaluate(d, model12, table12)
    assert len(calls) > 100 and {1, 2, 3} <= set(calls)


def test_delta_on_removed_self_loops(model12):
    # Capping a self-looped vertex: one edge dead at both ends, one closed
    # by the inner arc into a free loop.
    d = trace_closure(model12.uncappable().coeffs)
    inner = [((0, 2), (0, 3))]
    delta = skein._delta(d, {0}, inner)
    got = skein._rebuild(d, {0}, {}, delta)
    want, _ = reference_surgery(d, {0}, inner)
    assert delta == [1]
    assert (got.vertices, got.edges, got.free_loops) == ({}, {}, 1)
    assert (want.vertices, want.edges, want.free_loops) == ({}, {}, 1)
    # A removed dart with no connection whose partner survives.
    two = product_trace_closure((1, 0, 0), (0, 1, 0))
    for surgery in (skein._delta, reference_surgery):
        with pytest.raises(InvariantViolation, match="half-dead"):
            surgery(two, {0}, [((0, 0), (0, 1))])


def test_delta_refuses_a_kept_dart_that_is_still_paired():
    """Vertex 0 of tr((x * y) z) replaced by a new vertex 9, with one leg
    wired to dart (2, 2) of a kept vertex, whose partner (1, 3) is kept."""
    d = coproduct_product_trace_closure((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert d.edges[2, 2] == (1, 3)
    legs = [((0, 0), (9, 0)), ((0, 1), (9, 1)), ((0, 2), (9, 2)), ((0, 3), (2, 2))]
    with pytest.raises(MalformedPairing, match=r"dart \(2, 2\) paired twice"):
        skein._delta(d, {0}, [], legs)
    with pytest.raises(MalformedPairing, match="paired twice"):
        reference_surgery(d, {0}, [], None, legs)
    # The same legs onto the fourth dart of the new vertex are a delta.
    legs[3] = ((0, 3), (9, 3))
    assert skein._delta(d, {0}, [], legs)[0] == 0


# evaluate() on the diagrams above at l = 12, (re, im) as hex floats, as the
# all-starts canonical key and the full-scan surgery computed them with
# exact label keys and the closed-form id/e/T split of each 3-gon corner,
# with the triangle table solved on the equilibrated Gram matrix from
# pairings that drop nothing.
PINNED = {
    "octahedron-tied": ("-0x1.6e34391a336e4p+13", "0x0.0p+0"),
    "square_pyramid-tied": ("-0x1.136ab2b276bc8p+14", "0x0.0p+0"),
    "octahedron-mixed": ("-0x1.f5aa3528510a0p+1", "0x0.0p+0"),
    "square_pyramid-mixed": ("-0x1.8b593d637a0e0p+6", "0x0.0p+0"),
    "octahedron-generic": ("0x1.1d411d65197dcp-1", "0x0.0p+0"),
    "square_pyramid-generic": ("0x1.fc220d6199792p-1", "0x0.0p+0"),
    "triangular_prism-tied": ("-0x1.66e77396b4c31p+15", "0x0.0p+0"),
    "triangular_prism-mixed": ("-0x1.747cafa8737e4p+8", "0x0.0p+0"),
    "tetrahedron-mixed": ("-0x1.80e35e76dc5b2p+6", "0x0.0p+0"),
    "self-loops": ("-0x1.68bbb44a4ce5fp+7", "0x0.0p+0"),
    "disconnected": ("-0x1.88125951e3364p+20", "0x0.0p+0"),
}


def test_evaluate_values_are_pinned(model12, table12, triangle_rich):
    assert set(PINNED) == set(triangle_rich)
    for name, d in triangle_rich.items():
        re, im = PINNED[name]
        assert evaluate(d, model12, table12) == complex(float.fromhex(re), float.fromhex(im)), name


def test_triangle_substitution_matches_the_reference_wiring(model12, table12, triangle_rich, monkeypatch):
    wired = skein._substitute_triangle
    calls = []

    def checked(coeff, diag, corners, triangle, node, graph):
        got = wired(coeff, diag, corners, triangle, node, graph)
        want = reference_substitute_triangle(coeff, diag, corners, triangle)
        assert [c for c, _ in got] == [c for c, _ in want]
        assert all(same_wiring(g, w) for (_, g), (_, w) in zip(got, want))
        calls.append(len(got))
        return got

    monkeypatch.setattr(skein, "_substitute_triangle", checked)
    for name in PINNED:
        evaluate(triangle_rich[name], model12, table12)
    assert len(calls) > 10 and min(calls) > 0


def test_triangle_substitution_refuses_an_inconsistently_shaded_parent(model12, table12):
    """A kept vertex whose shading bit is flipped: the shading inference of
    each child would move it back, so no record can hold the child."""
    d = octahedron_diagram([model12.uncappable().coeffs] * 6)
    corners = next(f for f in small_faces(d) if len(f) == 3 and 5 not in {u for u, _ in f})

    def substitute(diag):
        node, graph = skein._node(diag, corners), shapes.ShapeGraph()
        return skein._substitute_triangle(1.0, diag, corners, table12, node, graph)

    assert substitute(d)
    bad = d.copy()
    bad.vertices[5] = Vertex(d.vertices[5].coeffs, 1 - d.vertices[5].shading0)
    with pytest.raises(ShadingInconsistent):
        bad.validate()
    with pytest.raises(InvariantViolation, match="kept shading bit"):
        substitute(bad)


# -- the shape graph -----------------------------------------------------


def _shifted(d, by):
    """d with every vertex id moved by `by`: ids of 64 and over, or below
    zero, do not fit a byte as dart codes."""
    return Diagram(
        {v + by: x for v, x in d.vertices.items()},
        {(a + by, sa): (b + by, sb) for (a, sa), (b, sb) in d.edges.items()},
        d.free_loops,
    )


def test_replayed_children_match_the_fresh_rewrites(model12, table12, triangle_rich, monkeypatch):
    """Every child of every step on the corpus, rebuilt from its stored
    record, against the same step with its record computed afresh by
    `_delta` and shading inference (a chooser run, which takes the engine's
    faces and stores no records): the same coefficients, vertex order,
    labels, edge map and free loops."""
    corpus = list(triangle_rich.values())
    for name in ("octahedron-mixed", "self-loops", "disconnected"):
        corpus += [_shifted(triangle_rich[name], 100), _shifted(triangle_rich[name], -50)]
    for d in corpus:
        evaluate(d, model12, table12)
    before = shapes.graph.cache_info()

    raw = []
    normalized = FormalSum.normalized

    def recording(self, *args, **kwargs):
        raw.append(self.terms)
        return normalized(self, *args, **kwargs)

    monkeypatch.setattr(FormalSum, "normalized", recording)
    children = 0
    for d in corpus:
        s = FormalSum([(complex(1.0), d.copy())])
        while not s.is_scalar:
            reduce_once(s, model12, table12, chooser=find_small_face)
            s = reduce_once(s, model12, table12)
            want, got = raw[-2:]
            assert [c for c, _ in got] == [c for c, _ in want]
            assert all(same_wiring(g, w) for (_, g), (_, w) in zip(got, want))
            children += len(got)
    after = shapes.graph.cache_info()
    assert after.misses == before.misses
    assert after.hits - before.hits > 0.9 * children > 3000


def test_a_chooser_run_leaves_the_shape_graph_alone(model12, table12, triangle_rich):
    graph = shapes.graph
    evaluate(triangle_rich["octahedron-mixed"], model12, table12)
    before = graph.cache_info(), dict(graph.roots)
    for d in triangle_rich.values():
        evaluate(d, model12, table12, chooser=find_small_face)
    assert (graph.cache_info(), dict(graph.roots)) == before


def test_a_changed_diagram_is_evaluated_afresh(model12, table12):
    x, y, z = (1.0, 0.5, -0.25), (0.3, -1.0, 2.0), (0.0, 1.0, 1.5)
    d = product_trace_closure(x, y)
    first = evaluate(d, model12, table12)
    other = coproduct_trace_closure(z, y)
    d.vertices.update(other.vertices)
    d.edges.clear()
    d.edges.update(other.edges)
    assert "_shape" not in vars(d)
    value = evaluate(d, model12, table12)
    assert value == evaluate(d, model12, table12, chooser=find_small_face) != first
    d.vertices[0] = Vertex(x, d.vertices[0].shading0)
    assert evaluate(d, model12, table12) == evaluate(d, model12, table12, chooser=find_small_face) != value


# The first diagram of the seeded corpus of
# `test_confluence_fifty_diagrams_ten_orders`: vertices 0 and 1 each carry a
# self-loop, and are joined twice.  The chooser of its trial 2 picks the
# 3-gon REVISITING, which meets vertex 0 twice, on the input itself.
REVISITING = [(0, 0), (0, 2), (1, 0)]


def _two_self_loops(x, y):
    d = Diagram({0: Vertex(x), 1: Vertex(y)}, {})
    for a, b in [((0, 1), (0, 2)), ((1, 2), (1, 3)), ((0, 3), (1, 0)), ((0, 0), (1, 1))]:
        d.add_edge(a, b)
    return d.infer_shading()


def test_the_node_of_a_3gon_that_revisits_a_vertex_rewrites_the_engine_face():
    d = _two_self_loops((1.0, 0.5, -0.25), (0.3, -1.0, 2.0))
    assert REVISITING in small_faces(d) and find_small_face(d) == [(0, 1)]
    node, engine = skein._node(d, REVISITING), skein._node(d, [(0, 1)])
    assert isinstance(node, shapes.Small)
    assert (node.op, node.delta) == (engine.op, engine.delta) == (("cap", 0, 1), bytes([0, 5, 4]))
    assert shapes.graph.cache_info().nodes == 0


def test_a_chooser_pick_of_a_3gon_that_revisits_a_vertex_gets_the_engine_value(model12, table12):
    """The pick is rewritten as the engine's face, the 1-gon at (0, 1), so
    the run takes the engine's faces and needs no triangle table."""
    d = _two_self_loops((1.0, 0.5, -0.25), (0.3, -1.0, 2.0))

    def chooser(diag):
        return REVISITING if REVISITING in diag.faces() else find_small_face(diag)

    value = evaluate(d, model12, table12)
    assert value != 0
    assert evaluate(d, model12, table12, chooser=chooser) == value
    assert evaluate(d, model12, chooser=chooser) == evaluate(d, model12) == value


def test_a_chooser_pick_of_four_or_more_sides_is_refused(model12, table12, triangle_rich):
    def chooser(diag):
        return max(diag.faces(), key=len)

    with pytest.raises(InvariantViolation, match="face of size 4 is not reducible"):
        evaluate(triangle_rich["square_pyramid-mixed"], model12, table12, chooser=chooser)


def test_a_rewrite_that_raises_settles_no_node(model12, table12, triangle_rich, monkeypatch):
    """A node is settled with its record, so a 1-gon whose edge delta raises
    leaves the graph as it was, and the next call makes the node afresh."""
    d = triangle_rich["self-loops"]
    delta = skein._delta

    def raising(*args):
        monkeypatch.setattr(skein, "_delta", delta)
        raise InvariantViolation("delta raised")

    monkeypatch.setattr(skein, "_delta", raising)
    before = shapes.graph.cache_info()
    with pytest.raises(InvariantViolation, match="delta raised"):
        evaluate(d, model12, table12)
    assert shapes.graph.cache_info() == before
    re, im = PINNED["self-loops"]
    assert evaluate(d, model12, table12) == complex(float.fromhex(re), float.fromhex(im))


def test_a_small_node_bound_keeps_the_values_and_holds(model12, table12, triangle_rich, monkeypatch):
    monkeypatch.setattr(shapes, "SHAPE_CACHE_NODES", 5)
    settle = shapes.ShapeGraph.settle
    nodes = []

    def counted(self, slot, node):
        settle(self, slot, node)
        nodes.append(self.nodes)
        return node

    monkeypatch.setattr(shapes.ShapeGraph, "settle", counted)
    for _ in range(2):
        for name, d in triangle_rich.items():
            re, im = PINNED[name]
            assert evaluate(d, model12, table12) == complex(float.fromhex(re), float.fromhex(im)), name
    assert max(nodes) == 5 and nodes.count(1) > 10


# -- connector walks and faces against their references -------------------


def _outcome(fn, *args):
    """What a call gives: ("ok", its result), or the type and message of
    what it raises."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the two sides must raise alike, whatever it is
        return type(exc), str(exc)


def _random_connections(rng):
    """Seeded chains of 0-4 connectors between two terminals and rings of
    1-4 connectors (a ring of one is a connection from a connector to
    itself), as connections in seeded order and orientation."""
    ids = itertools.count()
    conns = []
    for _ in range(rng.randint(0, 5)):
        chain = [("t", next(ids))] + [("c", next(ids)) for _ in range(rng.randint(0, 4))]
        chain.append(("t", next(ids)))
        conns += zip(chain, chain[1:])
    for _ in range(rng.randint(0, 3)):
        ring = [("c", next(ids)) for _ in range(rng.randint(1, 4))]
        conns += zip(ring, ring[1:] + ring[:1])
    rng.shuffle(conns)
    return [(b, a) if rng.random() < 0.5 else (a, b) for a, b in conns]


def test_walk_connections_matches_the_reference_on_every_delta(model12, table12, triangle_rich, monkeypatch):
    """Every connector walk of the edge deltas on the corpus, fresh in the
    engine and in a chooser run: the same pairs in the same order, and the
    same loops."""
    walk = skein.walk_connections
    sizes = []

    def checked(connections, is_connector):
        got = walk(connections, is_connector)
        assert got == reference_walk_connections(connections, is_connector)
        sizes.append(len(connections))
        return got

    monkeypatch.setattr(skein, "walk_connections", checked)
    for d in triangle_rich.values():
        evaluate(d, model12, table12)
        evaluate(d, model12, table12, chooser=find_small_face)
    assert len(sizes) > 1000 and max(sizes) > 10


def test_walk_connections_matches_the_reference_on_the_pattern_closures(model12, monkeypatch):
    walk = threebox.walk_connections
    loops = []

    def checked(connections, is_connector):
        got = walk(connections, is_connector)
        assert got == reference_walk_connections(connections, is_connector)
        loops.append(got[1])
        return got

    monkeypatch.setattr(threebox, "walk_connections", checked)
    patterns = threebox.enumerate_basis(model12)
    triangle = threebox.triangle_pattern(model12)
    for x in patterns + (triangle, threebox.mirror(triangle)):
        for y in patterns:
            threebox.closure(x, y)
    assert len(loops) == 16 * 14 and max(loops) == 3


def test_walk_connections_matches_the_reference_on_random_chains():
    """Seeded chains and rings, and the same with one connection dropped or
    doubled: the same result or the same error."""
    rng = random.Random(53)

    def is_connector(node):
        return node[0] == "c"

    outcomes = set()
    for _ in range(400):
        conns = _random_connections(rng)
        variants = [conns]
        if conns:
            k = rng.randrange(len(conns))
            variants += [conns[:k] + conns[k + 1 :], conns[:k] + [conns[k]] + conns[k:]]
        for v in variants:
            got = _outcome(skein.walk_connections, v, is_connector)
            assert got == _outcome(reference_walk_connections, v, is_connector)
            outcomes.add(got[0] if got[0] != "ok" else ("ok", got[1][1] > 0))
    assert outcomes == {("ok", False), ("ok", True), InvariantViolation}


def test_faces_match_the_reference(model12, table12, triangle_rich, monkeypatch):
    """The faces of the corpus, of random diagrams and of every term that a
    chooser run meets: the same orbits in the same order."""
    corpus = list(triangle_rich.values()) + random_diagram_corpus(np.random.default_rng(31), 30, 6)
    faces = Diagram.faces
    calls = []

    def checked(self):
        got = faces(self)
        assert got == reference_faces(self)
        calls.append(len(got))
        return got

    monkeypatch.setattr(Diagram, "faces", checked)
    for d in corpus:
        checked(d)
        evaluate(d, model12, table12, chooser=find_small_face)
    assert len(calls) > 500


def test_faces_raise_like_the_reference_on_broken_pairings():
    """Seeded dart maps that are not involutions, some with darts missing:
    the same orbits or the same error."""
    rng = random.Random(59)
    outcomes = set()
    for _ in range(300):
        n = rng.randint(1, 3)
        darts = [(v, s) for v in range(n) for s in range(4)]
        edges = {d: rng.choice(darts) for d in darts if rng.random() < 0.95}
        d = Diagram({v: Vertex((1.0, 0.0, 0.0)) for v in range(n)}, edges)
        got = _outcome(Diagram.faces, d)
        assert got == _outcome(reference_faces, d)
        outcomes.add(got[0])
    assert outcomes == {"ok", KeyError, MalformedPairing}


# -- formal sum dedup against the all-terms reference ----------------------


def _nudged(d, rng):
    """d with one coefficient of one label moved up by one ulp."""
    v = list(d.vertices)[rng.randrange(len(d.vertices))]
    x = d.vertices[v]
    k = rng.randrange(3)
    c = x.coeffs[k]
    coeffs = x.coeffs[:k] + (complex(math.nextafter(c.real, math.inf), c.imag),) + x.coeffs[k + 1 :]
    return Diagram({**d.vertices, v: Vertex(coeffs, x.shading0)}, d.edges, d.free_loops)


def test_normalized_matches_the_all_terms_reference(model12, table12, triangle_rich, monkeypatch):
    """Every sum the engine normalizes on the corpus, and each again with
    renumbered copies (which merge, one of them cancelling its term), labels
    permuted among the vertices (same invariant, mostly another key) and
    one label moved by one ulp (which merges with nothing): the same
    diagrams in the same order, with coefficients that are ==."""
    sums = []
    normalized = FormalSum.normalized

    def recording(self, *args, **kwargs):
        sums.append(list(self.terms))
        return normalized(self, *args, **kwargs)

    monkeypatch.setattr(FormalSum, "normalized", recording)
    for d in triangle_rich.values():
        evaluate(d, model12, table12)
    monkeypatch.undo()

    def check(terms):
        s = FormalSum(terms)
        got = [(c, id(d)) for c, d in s.normalized().terms]
        assert got == [(c, id(d)) for c, d in reference_normalized(s)]

    rng = random.Random(61)
    nprng = np.random.default_rng(61)
    copied = 0
    for terms in sums:
        check(terms)
        more = list(terms)
        for c, d in terms:
            if not d.vertices or rng.random() < 0.7:
                continue
            copy = renumbered(d, nprng)
            assert reference_canonical_key(copy) == reference_canonical_key(d)
            more.insert(rng.randrange(len(more) + 1), (-c if rng.random() < 0.2 else c / 3, copy))
            more.insert(rng.randrange(len(more) + 1), (c, _relabeled(d, nprng)))
            nudged = _nudged(d, rng)
            assert reference_canonical_key(nudged) != reference_canonical_key(d)
            more.insert(rng.randrange(len(more) + 1), (c, nudged))
            copied += 1
        check(more)
    assert len(sums) > 50 and copied > 500


# -- label keys ----------------------------------------------------------


def test_vertex_key_is_exact_merges_signed_zeros_and_ends_with_the_shading_bit():
    v = Vertex((1.0 + 4e-10j, -0.0, complex(-1e-12, -0.0)), 1)
    assert v.key == ((1.0, 4e-10), (0.0, 0.0), (-1e-12, 0.0), 1)
    assert all(str(x) != "-0.0" for pair in v.key[:3] for x in pair)
    assert Vertex((0.0, complex(-0.0, 0.0), complex(0.0, -0.0))).key == Vertex((0, 0, 0)).key
    assert Vertex(v.coeffs, 0).key[:3] == v.key[:3]
    assert Vertex(v.coeffs, 0).key != v.key


def test_labels_one_ulp_apart_have_different_canonical_keys(triangle_rich):
    rng = np.random.default_rng(29)
    d = triangle_rich["square_pyramid-generic"]
    v0, x = next(iter(d.vertices.items()))
    for k, c in enumerate(x.coeffs):
        up = math.nextafter(c.real, math.inf), math.nextafter(c.imag, math.inf)
        for nudge in (complex(up[0], c.imag), complex(c.real, up[1])):
            coeffs = x.coeffs[:k] + (nudge,) + x.coeffs[k + 1 :]
            nudged = Diagram({**d.vertices, v0: Vertex(coeffs, x.shading0)}, d.edges, d.free_loops)
            assert Vertex(coeffs, x.shading0).key != x.key
            assert nudged.canonical_key() != d.canonical_key()
            for _ in range(3):
                assert renumbered(nudged, rng).canonical_key() == nudged.canonical_key()
                assert renumbered(d, rng).canonical_key() == d.canonical_key()


def test_evaluate_keeps_no_key_on_the_callers_vertices(model12, table12, triangle_rich):
    assert not hasattr(Vertex((1.0, 0.0, 0.0)), "__dict__")
    for d in triangle_rich.values():
        fresh = Diagram(
            {v: Vertex(x.coeffs, x.shading0) for v, x in d.vertices.items()}, d.edges, d.free_loops
        )
        evaluate(fresh, model12, table12)
        evaluate(fresh, model12, table12, chooser=find_small_face)
        assert all(x._key is None for x in fresh.vertices.values())
    # A key is computed once and takes no part in equality or hashing.
    x = Vertex((1.0, 0.5, -0.25), 1)
    assert x.key is x.key and x == Vertex(x.coeffs, 1) and hash(x) == hash(Vertex(x.coeffs, 1))


# The square pyramid's medial map with generic labels that one benchmark
# input drew: 8 vertices, every label real.  When canonical keys rounded
# labels to 9 decimals, a formal sum merged terms whose labels agreed that
# far, and the value moved with the face order: -0.08426466884548306 in
# the engine's order, -0.08426466995693563 in the seeded one below (1.3e-8
# relative).  With exact keys the seeded order gives -0.08426466884548295.
ROUNDING_LABELS = [
    ("-0x1.296557444cbf0p-2", "0x1.2c80d83ddc131p-1", "0x1.0b9fb7c52e794p+0"),
    ("0x1.6e5be3fa3e728p-1", "-0x1.c3f9471da1ebep+0", "-0x1.754b268b91a40p+0"),
    ("-0x1.062b469435483p+0", "-0x1.543af7e1a0371p-1", "-0x1.3f8a7b037aa0cp+0"),
    ("0x1.20903f69a92fep-4", "-0x1.ced32842c6945p-4", "-0x1.cd955b7163392p-4"),
    ("-0x1.2a7c20ecff827p+0", "0x1.3a59367bb6300p-1", "-0x1.6300d7642536ap-3"),
    ("0x1.771974a0bb35bp+1", "0x1.296c84afc8cc4p+0", "-0x1.bf16c775aef4bp-2"),
    ("0x1.3f7114e60343dp-1", "-0x1.0d137517c5ad3p+0", "0x1.42c333e56c4cep+0"),
    ("0x1.87886c2b8906cp-3", "-0x1.bf4c0d39fcba6p-1", "-0x1.ebc6a04f2beb6p-1"),
]
ROUNDING_EDGES = [
    ((0, 0), (5, 1)), ((0, 1), (4, 2)), ((0, 2), (3, 3)), ((0, 3), (1, 2)),
    ((1, 0), (6, 1)), ((1, 1), (5, 2)), ((1, 3), (2, 2)), ((2, 0), (7, 1)),
    ((2, 1), (6, 2)), ((2, 3), (3, 2)), ((3, 0), (4, 1)), ((3, 1), (7, 2)),
    ((4, 0), (7, 3)), ((4, 3), (5, 0)), ((5, 3), (6, 0)), ((6, 3), (7, 0)),
]


def test_value_does_not_depend_on_the_face_order():
    model = from_classification_data(delta_for_l(12), -1)
    table = solve_triangle(model)
    labels = [tuple(float.fromhex(c) for c in lab) for lab in ROUNDING_LABELS]
    d = Diagram({v: Vertex(lab) for v, lab in enumerate(labels)}, {})
    for a, b in ROUNDING_EDGES:
        d.add_edge(a, b)
    d = d.infer_shading()
    rng = random.Random(317110031)

    def seeded(diag):
        """A seeded one among the smallest faces."""
        faces = [f for f in diag.faces() if len(f) <= 3]
        smallest = min(len(f) for f in faces)
        faces = [f for f in faces if len(f) == smallest]
        return faces[rng.randrange(len(faces))]

    first = evaluate(d, model, table)
    other = evaluate(d, model, table, chooser=seeded)
    assert abs(first - other) <= 1e-9 * max(1.0, abs(other))
