import cmath
import math

import numpy as np
import pytest

from skeinlab import (
    DEPTH3_DELTA,
    BoxVec,
    Stages,
    TwoBoxModel,
    bmw_two_box_traces,
    braid_pair,
    from_classification_data,
    trace_split,
)
from skeinlab.errors import (
    BrauerDegenerate,
    ChiralityInfeasible,
    ChiralityMismatch,
    DegenerateParameters,
    InadmissibleDelta,
    ParameterMismatch,
    SideMismatch,
)
from helpers import FIXTURE_LOCI, coproduct_tensor, first_over, rotation_matrix, trace_vector
from skeinlab.twobox import MINUS, PLUS, product_coeffs

LOCI = [
    (DEPTH3_DELTA, +1),
    (1.0 + math.sqrt(3.0), -1),
    (4.0, -1),
    (4.5, -1),
]


def models():
    return [from_classification_data(d, s) for d, s in LOCI]


def random_box(model, rng, side=PLUS):
    return BoxVec(side, tuple(rng.normal(size=3) + 1j * rng.normal(size=3)))


# -- trace split ---------------------------------------------------------


def test_trace_split_depth3():
    y, a, b = trace_split(DEPTH3_DELTA, +1)
    d = DEPTH3_DELTA
    assert abs(y - (d - 1.0)) < 1e-9
    assert abs(a - d / (d - 1.0)) < 1e-9
    assert abs(b - d) < 1e-9


def test_trace_split_sp4_examples():
    y, a, b = trace_split(4.0, -1)
    assert abs(y - 2.0) < 1e-12
    assert abs(a - 5.0) < 1e-12
    assert abs(b - 10.0) < 1e-12
    y, a, b = trace_split(1.0 + math.sqrt(3.0), -1)
    assert abs(y - (1.0 + math.sqrt(3.0)) / 2.0) < 1e-12
    assert abs(a - (1.0 + math.sqrt(3.0))) < 1e-12
    assert abs(b - (2.0 + math.sqrt(3.0))) < 1e-12


def test_trace_split_sums_to_dim():
    for delta, sigma in LOCI:
        y, a, b = trace_split(delta, sigma)
        assert abs(a + b - (delta * delta - 1.0)) < 1e-9 * delta * delta
        assert abs(b / a - y) < 1e-9


def test_sigma_plus_infeasible_above_nine_quarters():
    for delta in (2.3, 3.0, 4.0, 7.5):
        with pytest.raises(ChiralityInfeasible):
            trace_split(delta, +1)


def test_from_classification_data_guards():
    with pytest.raises(InadmissibleDelta):
        from_classification_data(0.5, -1)
    with pytest.raises(ChiralityMismatch):
        from_classification_data(2.0, +1)


# -- structure constants -------------------------------------------------


def test_product_is_orthogonal_idempotents():
    for m in models():
        basis = [m.e(), m.p1(), m.p2()]
        for i, x in enumerate(basis):
            for j, y in enumerate(basis):
                z = m.product(x, y)
                want = np.array(x.coeffs) if i == j else np.zeros(3)
                assert np.allclose(np.array(z.coeffs), want)


def test_coproduct_commutative_and_e_unit():
    rng = np.random.default_rng(5)
    for m in models():
        for _ in range(20):
            x, y = random_box(m, rng), random_box(m, rng)
            assert np.allclose(m.coproduct(x, y).coeffs, m.coproduct(y, x).coeffs)
            assert np.allclose(
                m.coproduct((m.delta) * m.e(), x).coeffs, x.coeffs
            ), "delta*e is the coproduct unit"


def test_coproduct_associative():
    rng = np.random.default_rng(6)
    for m in models():
        for _ in range(20):
            x, y, z = (random_box(m, rng) for _ in range(3))
            lhs = m.coproduct(m.coproduct(x, y), z)
            rhs = m.coproduct(x, m.coproduct(y, z))
            assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-10 * max(1, lhs.norm()))


def test_trace_of_coproduct_factorizes():
    rng = np.random.default_rng(7)
    for m in models():
        for _ in range(20):
            x, y = random_box(m, rng), random_box(m, rng)
            lhs = m.trace(m.coproduct(x, y))
            rhs = m.trace(x) * m.trace(y) / m.delta
            assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))


def test_rotation_squares_to_identity():
    for m in models():
        rot = np.array(m.rotation_rows)
        assert np.allclose(rot @ rot, np.eye(3), atol=1e-12)


def test_rotation_flips_side():
    m = models()[0]
    x = m.p1(PLUS)
    assert m.rotate(x).side == MINUS
    assert m.rotate(m.rotate(x)).side == PLUS


def test_rotation_exchanges_product_and_coproduct():
    rng = np.random.default_rng(8)
    for m in models():
        for _ in range(20):
            x, y = random_box(m, rng), random_box(m, rng)
            lhs = m.rotate(m.product(x, y))
            rhs = m.coproduct(m.rotate(x), m.rotate(y))
            assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-9 * max(1, lhs.norm()))


def test_rotation_fixes_uncappable_up_to_sigma():
    for m in models():
        t = m.uncappable()
        ft = m.rotate(t)
        assert np.allclose(ft.coeffs, m.sigma * np.array(t.coeffs), atol=1e-9)


def test_uncappable_killed_by_all_caps():
    for m in models():
        t = m.uncappable()
        for pair in range(4):
            assert abs(m.cap(t, pair)) < 1e-9 * max(1.0, t.norm())


def test_cap_values_on_basis():
    for m in models():
        assert abs(m.cap(m.e(), 0) - 1.0 / m.delta) < 1e-12
        assert abs(m.cap(m.p1(), 2) - m.a / m.delta) < 1e-9
        # odd caps pick up one rotation
        assert abs(m.cap(m.p1(), 1) - m.trace(m.rotate(m.p1())) / m.delta) < 1e-12


def test_coefficient_rows_match_the_matrix_forms():
    # The model's tuple arithmetic against the numpy forms of the paper's
    # formulas: rotation matrix, trace vector, product and coproduct tensors.
    rng = np.random.default_rng(7)
    product_tensor = np.zeros((3, 3, 3))
    for i in range(3):
        product_tensor[i, i, i] = 1.0
    for m in models():
        rotation, trace_vec, cop = rotation_matrix(m), trace_vector(m), coproduct_tensor(m)
        for _ in range(20):
            x, y = (tuple(rng.normal(size=3) + 1j * rng.normal(size=3)) for _ in range(2))
            scale = max(1.0, float(np.max(np.abs(rotation))) * float(np.max(np.abs(x))))
            assert m.rotate_coeffs(x, 2) == x
            rotated = rotation @ np.array(x)
            assert np.allclose(m.rotate_coeffs(x, 3), rotated, rtol=0, atol=1e-14 * scale)
            assert m.rotate(BoxVec(PLUS, x)).coeffs == m.rotate_coeffs(x, 1)
            for pair in range(4):
                rotated = rotation @ np.array(x) if pair % 2 else np.array(x)
                want = (trace_vec @ rotated) / m.delta
                assert abs(m.cap_coeffs(x, pair) - want) <= 1e-14 * scale * max(1.0, m.a + m.b)
            assert abs(m.trace(BoxVec(PLUS, x)) - trace_vec @ np.array(x)) <= 1e-14 * scale * max(1.0, m.a + m.b)
            want = np.einsum("i,j,ijk->k", np.array(x), np.array(y), product_tensor)
            assert m.product(BoxVec(PLUS, x), BoxVec(PLUS, y)).coeffs == tuple(want)
            want = np.einsum("i,j,ijk->k", np.array(x), np.array(y), cop)
            assert m.coproduct(BoxVec(PLUS, x), BoxVec(PLUS, y)).coeffs == tuple(want)
            with pytest.raises(SideMismatch):
                product_coeffs(PLUS, x, MINUS, y)


def test_chirality_residual_on_and_off_locus():
    for m in models():
        assert m.chirality_residual() < 1e-9
    # perturbing (a, b) breaks the identity
    m = models()[1]
    off = TwoBoxModel(m.delta, m.a + 1e-2, m.b - 1e-2, m.sigma)
    assert off.chirality_residual() > 1e-3


@pytest.mark.parametrize("locus", list(FIXTURE_LOCI))
def test_chirality_catches_a_perturbed_b(locus):
    """Under its limit on the locus, over it once b is off by a relative
    1e-6 or less."""
    st = Stages(FIXTURE_LOCI[locus])
    m = st.model

    def chirality(eps):
        return TwoBoxModel(m.delta, m.a, m.b * (1.0 + eps), m.sigma).chirality_residual()

    assert chirality(0.0) < st.tol.limits["chirality"]
    assert first_over(st.tol.limits["chirality"], chirality) is not None


def test_side_mismatch_raises():
    m = models()[0]
    with pytest.raises(SideMismatch):
        m.product(m.p1(PLUS), m.p1(MINUS))
    with pytest.raises(SideMismatch):
        m.p1(PLUS) + m.p1(MINUS)


# -- BMW braid elements --------------------------------------------------


def test_bmw_traces_at_l12():
    q = cmath.exp(1j * math.pi / 12.0)
    dp, t1, t2 = bmw_two_box_traces(q, q ** -5)
    assert abs(dp + (1.0 + math.sqrt(3.0))) < 1e-12  # delta' = -delta
    assert abs(t1 - (1.0 + math.sqrt(3.0))) < 1e-9
    assert abs(t2 - (2.0 + math.sqrt(3.0))) < 1e-9


def test_bmw_traces_degenerate_parameters():
    with pytest.raises(DegenerateParameters):
        bmw_two_box_traces(1.0, 2.0)
    with pytest.raises(DegenerateParameters):
        bmw_two_box_traces(1.0j, 2.0)
    with pytest.raises(DegenerateParameters):
        bmw_two_box_traces(2.0, 0.0)


def test_braid_pair_relations():
    rng = np.random.default_rng(9)
    cases = [
        (from_classification_data(1.0 + math.sqrt(3.0), -1), cmath.exp(1j * math.pi / 12.0)),
        (from_classification_data(DEPTH3_DELTA, +1), cmath.exp(2j * math.pi / 7.0)),
    ]
    for m, q in cases:
        r = q ** -5 if m.sigma == -1 else q ** 2
        bp = braid_pair(m, q, r)
        # R2: U V = id
        assert (m.product(bp.U, bp.V) - m.identity()).norm() < 1e-12
        # bi-invertibility: U * V = delta e under the coproduct
        assert (m.coproduct(bp.U, bp.V) - m.delta * m.e()).norm() < 1e-12
        # quadratic relation
        rhs = (bp.q - 1.0 / bp.q) * (m.identity() - (m.sigma * m.delta) * m.e())
        assert ((bp.U - bp.V) - rhs).norm() < 1e-12
        # R1 twists
        assert abs(m.cap(bp.U, 0) - m.sigma * bp.r) < 1e-12
        assert abs(m.cap(bp.U, 1) - 1.0 / bp.r) < 1e-12


def test_braid_pair_sp4_coefficient_identities():
    # z1 + z2 = (delta+1)(q - 1/q) holds on the sigma = -1 branch.
    m = from_classification_data(1.0 + math.sqrt(3.0), -1)
    q = cmath.exp(1j * math.pi / 12.0)
    bp = braid_pair(m, q, q ** -5)
    assert abs((bp.z1 + bp.z2) - (m.delta + 1.0) * (q - 1.0 / q)) < 1e-9


def test_braid_pair_brauer_limit():
    m = from_classification_data(4.0, -1)
    bp = braid_pair(m, 1.0, 1.0)
    u2 = m.product(bp.U, bp.U)
    assert (u2 - m.identity()).norm() < 1e-12, "U^2 = id at the Brauer point"
    with pytest.raises(BrauerDegenerate):
        braid_pair(m, 1.0, 2.0)


def test_braid_pair_rejects_mismatched_parameters():
    m = from_classification_data(1.0 + math.sqrt(3.0), -1)
    with pytest.raises(ParameterMismatch):
        braid_pair(m, cmath.exp(1j * math.pi / 14.0), cmath.exp(-5j * math.pi / 14.0))
