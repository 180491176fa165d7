"""The program runner `skein._run` over exact rationals and over NumPy
arrays of loop values, with the programs that the pipeline runs over
complex floats.

On the Sp(4) family at a rational q, t = q^2 + q^-2 gives
delta = t^2 + t - 2 and sqrt(4 delta + 9) = 2t + 1, so y, a, b and every
2-box structure constant are rational, and so is the braid parameter
r = q^-5.  There the Gram, 3-gon and Yang-Baxter side-A programs run over
`Fraction`: the Gram matrix has rank 14 exactly, the two sides of the
Yang-Baxter equation expand to the same vector exactly, and a q off by a
relative 1e-6 leaves a nonzero difference.  sympy does the exact linear
algebra.  Over an array of loop values the Gram program gives the scalar
`gram` at every one of them."""

import functools
import numbers
from fractions import Fraction

import numpy as np
import pytest
import sympy

from skeinlab import TwoBoxModel, gram, trace_split
from skeinlab.errors import NonFiniteScalar
from skeinlab.skein import _run
from skeinlab.threebox import (
    _BRAID_SHAPES,
    _TRIANGLE_SHAPES,
    _basis_shapes,
    _pairing_program,
    _pairings,
)

QS = [Fraction(3, 2), Fraction(2), Fraction(10)]
BASIS = _basis_shapes()[0]


def sp4_split(q):
    """(delta, a, b) on the Sp(4) family at q, in q's number type: the
    sigma = -1 trace split of `trace_split` with sqrt(4 delta + 9) = 2t + 1."""
    t = q * q + 1 / (q * q)
    delta = t * t + t - 2
    y = (delta - 3 + (delta - 1) * (2 * t + 1)) / (2 * delta)
    a = (delta * delta - 1) / (y + 1)
    return delta, a, y * a


def braid_label(q):
    """U = r^-1 e + q P1 - q^-1 P2 at r = q^-5."""
    return (q**5, q, -1 / q)


def pairings(shapes, model, x_label):
    """<x, D_j> in row-major order from the program of `shapes`, run on
    x_label and the generator (0, b, -a) in the model's number type."""
    program, index = _pairing_program(shapes)
    generator = (0 * model.a, model.b, -model.a)
    values = _run(program, (x_label, generator), model)
    return [values[i] for i in index]


@functools.cache
def exact(q):
    """The model, the Gram matrix and the pairings of the 3-gon and of
    both Yang-Baxter sides, over the rationals at q."""
    model = TwoBoxModel(*sp4_split(q), -1)
    generator = (0, model.b, -model.a)
    g = pairings(BASIS, model, generator)
    return {
        "model": model,
        "gram": sympy.Matrix(14, 14, g),
        "values": g,
        "triangle": pairings(_TRIANGLE_SHAPES, model, generator),
        "braid": pairings(_BRAID_SHAPES, model, braid_label(q)),
    }


def expansion(gm, v):
    """c with G^T c = v, exactly."""
    return gm.T.LUsolve(sympy.Matrix(v))


def test_the_model_keeps_exact_structure_constants_exact():
    # Its literals are ints, so no float enters a table at a rational delta.
    model = exact(QS[0])["model"]
    tables = (model.coproduct_table, model.rotation_rows, model.cap_rows)
    flat = [x for table in tables for x in np.ravel(np.array(table, dtype=object))]
    assert len(flat) == 27 + 9 + 6
    assert all(isinstance(x, numbers.Rational) for x in flat)


@pytest.mark.parametrize("q", QS, ids=str)
def test_the_gram_matrix_over_the_rationals_has_rank_14(q):
    ex = exact(q)
    assert all(type(x) is Fraction for x in ex["values"] + ex["triangle"] + ex["braid"])
    assert ex["gram"].rank() == 14


@pytest.mark.parametrize("q", QS, ids=str)
def test_the_yang_baxter_sides_expand_to_the_same_vector_exactly(q):
    ex = exact(q)
    gm, v = ex["gram"], ex["braid"]
    assert expansion(gm, v[:14]) - expansion(gm, v[14:]) == sympy.zeros(14, 1)

    # A q off by a relative 1e-6, r kept, breaks the equation.
    off = pairings(_BRAID_SHAPES, ex["model"], braid_label(q * Fraction(1_000_001, 1_000_000)))
    assert expansion(gm, off[:14]) != expansion(gm, off[14:])


@pytest.mark.parametrize("q", QS, ids=str)
def test_exact_runs_match_the_float_runs_on_the_same_inputs(q):
    """Each exact entry matches the complex-float pipeline at the rounded
    (delta, a, b), to 1e-15 of the Cauchy-Schwarz bound of its pairing:
    sqrt(G_ii G_jj) in the Gram matrix, sqrt(<x, x> G_jj) for a pattern x."""
    ex = exact(q)
    gm = ex["gram"]
    model = TwoBoxModel(*(float(x) for x in sp4_split(q)), -1)
    diag = np.array([float(gm[j, j]) for j in range(14)])

    got = gram(model).entries
    want = np.array([float(x) for x in ex["values"]]).reshape(14, 14)
    assert np.all(np.abs(got - want) <= 1e-15 * np.sqrt(np.outer(diag, diag)))

    generator = model.uncappable().coeffs
    braid = tuple(complex(x) for x in braid_label(q))
    for shapes, x_label, v in (
        (_TRIANGLE_SHAPES, generator, ex["triangle"]),
        (_BRAID_SHAPES, braid, ex["braid"]),
    ):
        c = expansion(gm, v[:14])
        norm = float((c.T * gm * c)[0])  # <x, x>; side B has side A's
        got = _pairings(shapes, model, x_label)
        want = np.array([float(x) for x in v])
        bound = np.sqrt(norm * np.tile(diag, len(v) // 14))
        assert np.all(np.abs(got - want) <= 1e-15 * bound)


def test_an_exact_run_past_the_float_range_keeps_its_values():
    """At q = 10^12, delta is about 1e96 and the largest Gram entries are
    past the float range; an exact run is finite at any size."""
    model = TwoBoxModel(*sp4_split(Fraction(10**12)), -1)
    values = pairings(BASIS, model, (0, model.b, -model.a))
    assert all(type(x) is Fraction for x in values)
    assert max(map(abs, values)) > 10**308


def array_model(deltas):
    """The sigma = -1 model at every loop value of an array at once: the
    trace split of `trace_split`, elementwise."""
    y = (deltas - 3.0 + (deltas - 1.0) * np.sqrt(4.0 * deltas + 9.0)) / (2.0 * deltas)
    a = (deltas * deltas - 1.0) / (y + 1.0)
    return TwoBoxModel(deltas, a, y * a, -1)


def test_an_array_of_loop_values_matches_the_scalar_gram():
    deltas = np.geomspace(4.001, 1e6, 12)
    model = array_model(deltas)
    entries = np.array(pairings(BASIS, model, (0 * model.a, model.b, -model.a)))
    assert entries.shape == (196, 12)
    for k, delta in enumerate(deltas):
        _, a, b = trace_split(float(delta), -1)
        assert (a, b) == (model.a[k], model.b[k])
        want = gram(TwoBoxModel(float(delta), a, b, -1)).entries
        got = entries[:, k].reshape(14, 14)
        scale = np.sqrt(np.outer(np.diag(got), np.diag(got)))
        assert np.all(np.abs(got - want) <= 1e-15 * scale)


def test_an_array_run_past_the_float_range_raises_a_non_finite_scalar():
    # At delta = 1e40 the node pass overflows; numpy's warning stays
    # inside the run (a RuntimeWarning is an error under pytest here).
    model = array_model(np.array([5.0, 1e40]))
    with pytest.raises(NonFiniteScalar, match="over 2 loop values"):
        pairings(BASIS, model, (0 * model.a, model.b, -model.a))
