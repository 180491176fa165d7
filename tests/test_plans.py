"""Reduction plans taken from a diagram, compiled into a one-closure
program with a leaf per vertex and run on its labels, against the
FormalSum engine.

Passing chooser=find_small_face makes evaluate_detailed pick faces in the
same order as the plan, so a run must agree with the engine exactly, in
the value's bits, signed zeros included."""

import numpy as np
import pytest

from helpers import (
    braid_pattern,
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
from skeinlab import skein, threebox
from skeinlab.errors import (
    MalformedPairing,
    NonFiniteScalar,
    ShadingInconsistent,
    TriangleTableRequired,
)
from skeinlab.scalar import DEFAULT_TOL
from skeinlab.skein import _compile, _plan, _run
from skeinlab.threebox import _basis_shapes, _pairing_program, closure
from skeinlab.twobox import PLUS


def exact(value):
    return np.complex128(value).tobytes()


def engine(d, m, table=None):
    return exact(evaluate_detailed(d, m, table, chooser=find_small_face)[0])


def program(d, plan=None):
    """The one-closure program of a plan, by default d's, with leaf k on
    the k-th vertex of d."""
    plan = plan if plan is not None else _plan(d)
    return _compile([(plan, {v: k for k, v in enumerate(d.vertices)})], len(d.vertices))


def run(d, m, plan=None):
    """d's labels run through the program of a plan, by default d's."""
    labels = [vert.coeffs for vert in d.vertices.values()]
    return exact(_run(program(d, plan), labels, m, DEFAULT_TOL)[0])


def test_plan_matches_engine_on_random_corpus(model12):
    rng = np.random.default_rng(11)
    for d in random_diagram_corpus(rng, 60, max_vertices=5):
        # Five vertices or fewer always leave a face with at most 2 sides.
        assert run(d, model12) == engine(d, model12)


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
    d = coproduct_trace_closure((1j, -1j, 0.0), (1j, -1j, 0.0))
    value, _ = evaluate_detailed(d, model12)
    assert value.imag == 0
    assert run(d, model12) == engine(d, model12)


def test_plan_drops_a_zero_coefficient_mid_reduction(model12, monkeypatch):
    generator = model12.uncappable().coeffs
    capped = coproduct_trace_closure(generator, (0.3, -1.2, 0.7))
    generic = coproduct_trace_closure((0.5, 0.4, -0.9), (0.3, -1.2, 0.7))
    assert _plan(capped) == _plan(generic)
    value, steps = evaluate_detailed(capped, model12)
    assert value == 0
    assert steps < evaluate_detailed(generic, model12)[1]

    # Like the engine, the run stops early: at the step that leaves the
    # zero coefficient, before the end of its chain.
    checked = []
    survives = skein._survives
    monkeypatch.setattr(skein, "_survives", lambda c, tol: checked.append(c) or survives(c, tol))
    assert run(capped, model12) == engine(capped, model12)
    assert not survives(checked[-1], DEFAULT_TOL)
    assert len(checked) < len(program(capped).chains[0])
    checked.clear()
    run(generic, model12)
    assert len(checked) == len(program(generic).chains[0])


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
    res = classify(delta)
    m = TwoBoxModel(res.delta, res.a, res.b, res.sigma)
    basis = enumerate_basis(m)
    braid = braid_pair(m, res.q, res.r)
    left = triangle_pattern(m)
    expanded = [left, mirror(left), braid_pattern(m, braid, "A"), braid_pattern(m, braid, "B")]
    for x in list(basis) + expanded:
        for y in basis:
            d = closure(x, y)
            want = engine(d, m)
            assert run(d, m) == want
            assert exact(inner(m, x, y)) == want


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
        assert run(d, model12, plan) == engine(d, model12)


def test_gram_across_loop_values_matches_engine():
    """The first pair of each rotation orbit holds the engine's value on its
    own closure, bit for bit, and every other pair of the orbit a copy."""
    for delta in (5.0, delta_for_l(12), 5.0):
        m = from_classification_data(delta, -1)
        basis = enumerate_basis(m)
        g = gram(m).entries.ravel()
        index = _pairing_program(_basis_shapes()[0])[1]
        for k in range(max(index) + 1):
            (orbit,) = np.nonzero(index == k)
            x, y = basis[orbit[0] // 14], basis[orbit[0] % 14]
            want = complex(evaluate(closure(x, y), m, chooser=find_small_face))
            assert g[orbit].tobytes() == np.full(len(orbit), want).tobytes()


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
