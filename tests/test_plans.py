"""Reduction plans taken from a diagram, compiled into a one-closure
program with a leaf per vertex and run on its labels, against the
FormalSum engine.

Passing chooser=find_small_face makes evaluate_detailed pick faces in the
same order as the plan.  A run drops nothing, and the engine drops a term
at its `drop_tol` floor, so where the engine drops nothing, as on random
labels, a run agrees with it in the value's bits; on closures of the
uncappable generator, where chains that are exactly zero over the rationals
leave roundoff, they agree to ROUNDOFF of the Cauchy-Schwarz bound."""

import math

import numpy as np
import pytest

from helpers import (
    ROUNDOFF,
    braid_pattern,
    cauchy_schwarz,
    coproduct_trace_closure,
    octahedron_diagram,
    product_trace_closure,
    random_diagram_corpus,
    trace_closure,
)
from skeinlab import (
    DEPTH3_DELTA,
    BoxVec,
    Diagram,
    Pattern,
    TwoBoxModel,
    Vertex,
    braid_pair,
    classify,
    delta_for_l,
    enumerate_basis,
    evaluate,
    evaluate_detailed,
    find_small_face,
    from_classification_data,
    gram,
    inner,
    mirror,
    triangle_pattern,
)
from skeinlab import threebox
from skeinlab.errors import (
    MalformedPairing,
    NonFiniteScalar,
    ShadingInconsistent,
    TriangleTableRequired,
)
from skeinlab.skein import _compile, _plan, _run
from skeinlab.threebox import _basis_shapes, _pairing_program, closure
from skeinlab.twobox import PLUS


def exact(value):
    return np.complex128(value).tobytes()


def engine(d, m):
    return evaluate_detailed(d, m, chooser=find_small_face)[0]


def program(d, plan=None):
    """The one-closure program of a plan, by default d's, with leaf k on
    the k-th vertex of d."""
    plan = plan if plan is not None else _plan(d)
    return _compile([(plan, {v: k for k, v in enumerate(d.vertices)})], len(d.vertices))


def run(d, m, plan=None):
    """d's labels run through the program of a plan, by default d's."""
    labels = [vert.coeffs for vert in d.vertices.values()]
    return _run(program(d, plan), labels, m)[0]


def test_plan_matches_engine_on_random_corpus(model12):
    rng = np.random.default_rng(11)
    for d in random_diagram_corpus(rng, 60, max_vertices=5):
        # Five vertices or fewer always leave a face with at most 2 sides.
        assert exact(run(d, model12)) == exact(engine(d, model12))


def test_three_gon_diagrams_have_no_plan(model12, table12):
    rng = np.random.default_rng(12)
    d = octahedron_diagram([rng.normal(size=3) for _ in range(6)])
    with pytest.raises(TriangleTableRequired):
        _plan(d)
    with pytest.raises(TriangleTableRequired):
        evaluate(d, model12)
    value, steps = evaluate_detailed(d, model12, table12)
    want, want_steps = evaluate_detailed(d, model12, table12, chooser=find_small_face)
    assert (exact(value), steps) == (exact(want), want_steps)


def test_plan_keeps_the_engines_signed_zeros(model12):
    """The engine's sum starts at complex(0.0), which turns a -0.0
    imaginary part into 0.0; the run's product keeps -0.0, an equal value.
    `_pairings` adds 0.0, so no pairing the pipeline reads carries -0.0."""
    d = coproduct_trace_closure((1j, -1j, 0.0), (1j, -1j, 0.0))
    value = engine(d, model12)
    assert math.copysign(1.0, value.imag) == 1.0
    got = run(d, model12)
    assert math.copysign(1.0, got.imag) == -1.0
    assert abs(got - value) <= ROUNDOFF * abs(value)
    t = model12.uncappable().coeffs
    for shapes in (_basis_shapes()[0], threebox._TRIANGLE_SHAPES):
        v = threebox._pairings(shapes, model12, t)
        assert not np.signbit(np.concatenate([v.real[v.real == 0], v.imag[v.imag == 0]])).any()


def test_an_overflow_is_not_a_dropped_zero(model12):
    # The 2-gon fusion of two labels near 1e200 overflows to inf, which
    # the zero-drop refuses like a zero; both paths returned 0j.
    d = coproduct_trace_closure((1e200, -3e200, 2e200), (1e200, 2e200, -1e200))
    with pytest.raises(NonFiniteScalar):
        run(d, model12)
    with pytest.raises(NonFiniteScalar):
        evaluate(d, model12)


def test_a_modulus_past_the_float_range_is_a_non_finite_scalar(model12):
    # The cap and the loop leave (1.5e308 + 1.5e308j): both parts finite,
    # but abs() of it raised an untyped OverflowError on both paths.
    x = (1.5e308 + 1.5e308j, 0.0, 0.0)
    d = trace_closure(x)
    with pytest.raises(NonFiniteScalar):
        run(d, model12)
    with pytest.raises(NonFiniteScalar):
        evaluate(d, model12)


@pytest.mark.parametrize("delta", [DEPTH3_DELTA, delta_for_l(12), 5.0])
def test_plan_matches_engine_on_classify_closures(delta):
    """Each closure <x, D_j> that `classify` reduces, run and reduced by the
    engine and by inner, the three within ROUNDOFF of sqrt(<x, x> G_jj)."""
    res = classify(delta)
    m = TwoBoxModel(res.delta, res.a, res.b, res.sigma)
    basis = enumerate_basis(m)
    g = np.array([[inner(m, x, y) for y in basis] for x in basis])
    braid = braid_pair(m, res.q, res.r)
    left = triangle_pattern(m)
    expanded = [left, mirror(left), braid_pattern(m, braid, "A"), braid_pattern(m, braid, "B")]
    for x in list(basis) + expanded:
        want = np.array([engine(closure(x, y), m) for y in basis])
        bound = ROUNDOFF * cauchy_schwarz(g, want)
        assert np.all(np.abs([run(closure(x, y), m) for y in basis] - want) <= bound)
        assert np.all(np.abs([inner(m, x, y) for y in basis] - want) <= bound)


def test_one_topology_different_labels(model12):
    pairs = [((0.3, 1.1, -0.2), (0.5, -0.4, 0.9)), ((1.0, 0.0, 2.0), (-0.7, 0.2, 0.1))]
    diagrams = [product_trace_closure(cx, cy) for cx, cy in pairs]
    plan = _plan(diagrams[0])
    assert _plan(diagrams[1]) == plan
    values = [evaluate(d, model12) for d in diagrams]
    assert values[0] != values[1]
    for (cx, cy), d, v in zip(pairs, diagrams, values):
        want = model12.trace(model12.product(BoxVec(PLUS, cx), BoxVec(PLUS, cy)))
        assert abs(v - want) < 1e-10 * max(1.0, abs(want))
        assert exact(run(d, model12, plan)) == exact(engine(d, model12))


def test_gram_across_loop_values_matches_engine():
    """The first pair of each rotation orbit holds the engine's value on its
    own closure, to ROUNDOFF of sqrt(G_ii G_jj), and every other pair of the
    orbit a copy."""
    for delta in (5.0, delta_for_l(12), 5.0):
        m = from_classification_data(delta, -1)
        basis = enumerate_basis(m)
        g = gram(m).entries
        bound = ROUNDOFF * cauchy_schwarz(g).ravel()
        g = g.ravel()
        index = _pairing_program(_basis_shapes()[0])[1]
        for k in range(max(index) + 1):
            (orbit,) = np.nonzero(index == k)
            x, y = basis[orbit[0] // 14], basis[orbit[0] % 14]
            assert abs(g[orbit[0]] - engine(closure(x, y), m)) <= bound[orbit[0]]
            assert g[orbit].tobytes() == np.full(len(orbit), g[orbit[0]]).tobytes()


def test_validation_is_not_memoised(model12):
    two = product_trace_closure((1, 0, 0), (0, 1, 0))
    evaluate(two, model12)
    v1 = two.vertices[1]
    mixed = Diagram(
        {0: two.vertices[0], 1: Vertex(v1.coeffs, (v1.shading0 + 1) % 2)},
        dict(two.edges),
    )
    with pytest.raises(ShadingInconsistent):
        evaluate(mixed, model12)


def test_a_malformed_closure_shape_raises_on_every_inner_call(model12, monkeypatch):
    """Each call builds the closure again, and each raises: nothing of a
    shape that fails to validate is kept."""
    t = Vertex(model12.uncappable().coeffs)
    # Boundary point 3 names vertex 7, which the pattern does not have.
    broken = Pattern(
        ((0, t),), (), (("v", 0, 0), ("v", 0, 1), ("v", 0, 2), ("v", 7, 3), ("b", 5), ("b", 4))
    )
    built = []
    monkeypatch.setattr(threebox, "closure", lambda x, y: built.append(x) or closure(x, y))
    for _ in range(2):
        with pytest.raises(MalformedPairing):
            inner(model12, broken, broken)
    assert built == [broken, broken]
