"""Reduction plans compiled from a diagram and replayed on its labels,
against the FormalSum engine.

Passing chooser=find_small_face makes evaluate_detailed pick faces in the
same order as the plan, so a replay must agree with the engine exactly,
in the value's bits (signed zeros included) and in step count."""

import numpy as np
import pytest

from helpers import (
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
from skeinlab.errors import (
    MalformedPairing,
    NonFiniteScalar,
    ShadingInconsistent,
    TriangleTableRequired,
)
from skeinlab.scalar import DEFAULT_TOL
from skeinlab.skein import _plan, _replay
from skeinlab.threebox import _basis_shapes, _braid_pattern, _closure_plan, closure
from skeinlab.twobox import PLUS


def exact(result):
    value, steps = result
    return np.complex128(value).tobytes(), steps


def engine(d, m, table=None):
    return exact(evaluate_detailed(d, m, table, chooser=find_small_face))


def labels(d):
    return {v: vert.coeffs for v, vert in d.vertices.items()}


def replayed(d, m, plan=None):
    """d's labels run through a plan, by default the one compiled from d."""
    return exact(_replay(plan if plan is not None else _plan(d), labels(d), m, DEFAULT_TOL))


def test_plan_matches_engine_on_random_corpus(model12):
    rng = np.random.default_rng(11)
    for d in random_diagram_corpus(rng, 60, max_vertices=5):
        # Five vertices or fewer always leave a face with at most 2 sides.
        assert replayed(d, model12) == engine(d, model12)


def test_three_gon_diagrams_have_no_plan(model12, table12):
    rng = np.random.default_rng(12)
    d = octahedron_diagram([rng.normal(size=3) for _ in range(6)])
    with pytest.raises(TriangleTableRequired):
        _plan(d)
    with pytest.raises(TriangleTableRequired):
        evaluate(d, model12)
    assert exact(evaluate_detailed(d, model12, table12)) == engine(d, model12, table12)


def test_plan_keeps_the_engines_signed_zeros(model12):
    d = coproduct_trace_closure((1j, -1j, 0.0), (1j, -1j, 0.0))
    value, _ = evaluate_detailed(d, model12)
    assert value.imag == 0
    assert replayed(d, model12) == engine(d, model12)


def test_plan_drops_a_zero_coefficient_mid_reduction(model12):
    generator = model12.uncappable().coeffs
    capped = coproduct_trace_closure(generator, (0.3, -1.2, 0.7))
    generic = coproduct_trace_closure((0.5, 0.4, -0.9), (0.3, -1.2, 0.7))
    assert _plan(capped) == _plan(generic)
    value, steps = evaluate_detailed(capped, model12)
    assert replayed(capped, model12) == engine(capped, model12)
    assert value == 0
    assert steps < evaluate_detailed(generic, model12)[1]


def test_an_overflow_is_not_a_dropped_zero(model12):
    # The 2-gon fusion of two labels near 1e200 overflows to inf, which
    # the zero-drop refuses like a zero; both paths returned 0j.
    d = coproduct_trace_closure((1e200, -3e200, 2e200), (1e200, 2e200, -1e200))
    with pytest.raises(NonFiniteScalar):
        _replay(_plan(d), labels(d), model12, DEFAULT_TOL)
    with pytest.raises(NonFiniteScalar):
        evaluate(d, model12)


def test_a_modulus_past_the_float_range_is_a_non_finite_scalar(model12):
    # The cap and the loop leave (1.5e308 + 1.5e308j): both parts finite,
    # but abs() of it raised an untyped OverflowError on both paths.
    x = (1.5e308 + 1.5e308j, 0.0, 0.0)
    d = trace_closure(x)
    with pytest.raises(NonFiniteScalar):
        _replay(_plan(d), {0: x}, model12, DEFAULT_TOL)
    with pytest.raises(NonFiniteScalar):
        evaluate(d, model12)


@pytest.mark.parametrize("delta", [DEPTH3_DELTA, delta_for_l(12), 5.0])
def test_plan_matches_engine_on_classify_closures(delta):
    res = classify(delta)
    m = TwoBoxModel(res.delta, res.a, res.b, res.sigma)
    basis = enumerate_basis(m)
    braid = braid_pair(m, res.q, res.r)
    left = triangle_pattern(m)
    expanded = [left, mirror(left), _braid_pattern(m, braid, "A"), _braid_pattern(m, braid, "B")]
    for x in list(basis.diagrams) + expanded:
        for y in basis.diagrams:
            d = closure(x, y)
            want = engine(d, m)
            assert replayed(d, m) == want
            assert exact((inner(m, x, y), want[1])) == want


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
        assert replayed(d, model12, plan) == engine(d, model12)


def test_gram_across_loop_values_matches_engine():
    """The first pair of each rotation orbit holds the engine's value on its
    own closure, bit for bit, and every other pair of the orbit a copy."""
    for delta in (5.0, delta_for_l(12), 5.0):
        m = from_classification_data(delta, -1)
        basis = enumerate_basis(m)
        g = gram(m, basis).entries
        for rows, cols in _basis_shapes()[1]:
            x, y = basis.diagrams[rows[0]], basis.diagrams[cols[0]]
            want = complex(evaluate(closure(x, y), m, chooser=find_small_face))
            assert g[rows[0], cols[0]].tobytes() == np.complex128(want).tobytes()
            assert g[rows, cols].tobytes() == np.full(len(rows), want).tobytes()


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


def test_a_malformed_closure_shape_raises_on_every_inner_call(model12):
    t = Vertex(model12.uncappable().coeffs)
    # Boundary point 3 names vertex 7, which the pattern does not have.
    broken = Pattern(
        ((0, t),), (), (("v", 0, 0), ("v", 0, 1), ("v", 0, 2), ("v", 7, 3), ("b", 5), ("b", 4))
    )
    cached = _closure_plan.cache_info().currsize
    for _ in range(2):
        with pytest.raises(MalformedPairing):
            inner(model12, broken, broken)
    assert _closure_plan.cache_info().currsize == cached
