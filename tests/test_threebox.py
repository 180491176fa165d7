import cmath
import math

import numpy as np
import pytest

from skeinlab import (
    DEPTH3_DELTA,
    BraidPair,
    TwoBoxModel,
    braid_pair,
    delta_for_l,
    enumerate_basis,
    evaluate,
    from_classification_data,
    gram,
    inner,
    mirror,
    reidemeister_residuals,
    solve_triangle,
    triangle_pattern,
    ybe_residual,
)
from skeinlab import threebox
from skeinlab.errors import (
    GramRankDeficient,
    InternalEnumerationMismatch,
    InvariantViolation,
    MalformedPairing,
    NonFiniteScalar,
    SideMismatch,
    SkeinlabError,
)
from skeinlab.classify import Stages
from skeinlab.threebox import (
    GramMatrix,
    Pattern,
    _basis_shapes,
    _pairing_program,
    _two_vertex_patterns,
    closure,
    expand,
)
from skeinlab.scalar import DEFAULT_TOL
from skeinlab.twobox import other_side
from skeinlab.skein import FormalSum, Vertex, reduce_once

from helpers import (
    FIXTURE_LOCI,
    PERTURBATIONS,
    braid_pattern,
    first_over,
    reference_closure,
    reference_ybe_residual,
    same_wiring,
)


# -- basis enumeration ---------------------------------------------------


def test_basis_counts(model12):
    basis = enumerate_basis(model12)
    assert len(basis) == 14


def test_basis_keys_distinct(model12):
    basis = enumerate_basis(model12)
    keys = {p.key() for p in basis}
    assert len(keys) == 14


def test_tl_patterns_have_no_vertices(model12):
    basis = enumerate_basis(model12)
    tl, one, two = basis[:5], basis[5:11], basis[11:]
    assert {len(p.vertices) for p in tl} == {0}
    assert {len(p.vertices) for p in one} == {1}
    assert {len(p.vertices) for p in two} == {2}


def test_mirror_is_involution(model12):
    basis = enumerate_basis(model12)
    for p in basis:
        assert mirror(mirror(p)).key() == p.key()


# -- the rotation map ----------------------------------------------------

# The index of each basis pattern turned one, two and three clicks.
TURN = [3, 2, 4, 0, 1, 6, 7, 8, 9, 10, 5, 12, 13, 11]
TURN2 = [TURN[TURN[j]] for j in range(14)]
TURN3 = [TURN[j] for j in TURN2]


def sweep_models():
    """(name, model) at the depth-3 point, at even l from 12 to 200 and on a
    log grid of 13 loop values in [4, 1e6]."""
    yield "depth3", from_classification_data(DEPTH3_DELTA, +1)
    for l in (12, 14, 20, 50, 100, 200):
        yield f"l={l}", from_classification_data(delta_for_l(l), -1)
    for delta in np.geomspace(4.0, 1e6, 13):
        yield f"delta={delta:.6g}", from_classification_data(float(delta), -1)


def test_rotation_permutes_the_basis(model12, model_depth3):
    for m in (model12, model_depth3):
        pats = enumerate_basis(m)
        index = {p.key(): i for i, p in enumerate(pats)}
        assert [index[p.rotated().key()] for p in pats] == TURN


def test_six_turns_are_the_identity(model12, braid12):
    tri = triangle_pattern(model12)
    extra = [tri, mirror(tri), braid_pattern(model12, braid12, "A")]
    for p in list(enumerate_basis(model12)) + extra:
        turned = p
        for _ in range(6):
            assert turned.vertices == p.vertices and turned.internal_edges == p.internal_edges
            turned = turned.rotated()
        assert turned == p


def orbit_firsts(index):
    """The first place of each orbit of a program's index, in orbit order."""
    index = list(index)
    return [index.index(k) for k in range(max(index) + 1)]


def test_the_orbits_partition_the_index_pairs():
    assert list(_basis_shapes()[1]) == TURN
    program, index = _pairing_program(_basis_shapes()[0])
    orbit = index.reshape(14, 14)
    # Orbits are numbered by their first pair in row-major order, and each
    # is closed under the turn: 40 orbits, as many as the turn has on the
    # 196 pairs.
    assert orbit_firsts(index) == sorted(orbit_firsts(index))
    assert all(orbit[TURN[i], TURN[j]] == orbit[i, j] for i in range(14) for j in range(14))
    seen, orbits = set(), 0
    for pair in np.ndindex(14, 14):
        orbits += pair not in seen
        for _ in range(6):
            seen.add(pair)
            pair = (TURN[pair[0]], TURN[pair[1]])
    assert len(program.chains) == max(index) + 1 == orbits == 40


@pytest.fixture
def fresh_basis_check():
    """The basis check is cached per process; run it again here and leave
    no result of a patched family behind."""
    _basis_shapes.cache_clear()
    yield
    _basis_shapes.cache_clear()


def test_a_basis_not_closed_under_rotation_is_refused(monkeypatch, fresh_basis_check):
    # The last one-vertex pattern with its shading bit flipped: still 14
    # distinct patterns, but the fifth turned one click is not among them.
    one = threebox._one_vertex_patterns()
    (vid, v), = one[-1].vertices
    odd = Pattern(((vid, Vertex(v.coeffs, 1)),), (), one[-1].boundary)
    monkeypatch.setattr(threebox, "_one_vertex_patterns", lambda: one[:-1] + [odd])
    with pytest.raises(InternalEnumerationMismatch, match="not closed under rotation"):
        _basis_shapes()


def test_gram_from_orbits_matches_the_full_build():
    """Every one of the 196 closures reduced on its own, against gram's one
    closure per orbit."""
    for name, m in sweep_models():
        basis = enumerate_basis(m)
        gm = gram(m)
        full = GramMatrix(
            np.array([[inner(m, x, y) for y in basis] for x in basis])
        )
        size = np.sqrt(np.abs(np.outer(np.diag(full.entries), np.diag(full.entries))))
        assert np.all(np.abs(gm.entries - full.entries) <= 1e-15 * size), name
        assert gm.rank() == full.rank(), name
        assert gm.hermiticity_defect() == full.hermiticity_defect(), name


# -- the Gram and 3-gon programs against inner ----------------------------


def orbit_built(m, xs, patterns, basis):
    """The pairings of `patterns`, whose shapes are `xs`, with the basis,
    from one inner call per orbit of `_pairing_program(xs)`, at its first
    pair, in row-major order: the programs' reference, as `inner` is the
    FormalSum engine, an evaluator independent of `skein._run`."""
    index = _pairing_program(xs)[1]
    v = [inner(m, patterns[p // 14], basis[p % 14]) for p in orbit_firsts(index)]
    return np.array(v, dtype=complex)[index]


def inner_built(m, basis):
    """G and the 3-gon's pairings from one inner call per orbit."""
    g = orbit_built(m, _basis_shapes()[0], basis, basis).reshape(14, 14)
    return g, orbit_built(m, threebox._TRIANGLE_SHAPES, [triangle_pattern(m)], basis)


PARITY_DELTAS = [DEPTH3_DELTA, *map(delta_for_l, range(12, 201, 2)), *np.geomspace(4.0, 1e6, 40)]


def test_the_programs_match_inner_byte_for_byte():
    for delta in PARITY_DELTAS:
        m = from_classification_data(delta, +1 if delta == DEPTH3_DELTA else -1)
        basis = enumerate_basis(m)
        g, v = inner_built(m, basis)
        gm = gram(m)
        assert gm.entries.tobytes() == g.tobytes(), delta
        t = m.uncappable().coeffs
        vt = threebox._pairings(threebox._TRIANGLE_SHAPES, m, t, DEFAULT_TOL)
        assert vt.tobytes() == v.tobytes(), delta
        table = solve_triangle(m, gm)
        coeffs, residual = threebox._expansion(GramMatrix(g), v)
        assert table.left_coeffs.tobytes() == coeffs.tobytes(), delta
        assert np.float64(table.residual_left).tobytes() == np.float64(residual).tobytes(), delta
    # The braid sides' program against one inner call per basis pattern
    # with side A, with U as it is and with q perturbed; the second half
    # reads side B's pairings.
    for name, delta in FIXTURE_LOCI.items():
        st = Stages(delta)
        q, r = st.braid.q, st.braid.r
        for eps in [0.0, *PERTURBATIONS]:
            braid = BraidPair.from_qr(q * (1.0 + eps), r)
            va = pairings(st.model, braid_pattern(st.model, braid, "A"))
            got = threebox._pairings(
                threebox._BRAID_SHAPES, st.model, braid.U.coeffs, DEFAULT_TOL
            )
            assert got.tobytes() == np.concatenate((va, va[TURN3])).tobytes(), (name, eps)


@pytest.mark.parametrize("delta, value", [(1e40, "(inf+0j)"), (1e77, "(nan+nanj)")])
def test_an_overflowing_gram_raises_as_inner_does(delta, value):
    m = from_classification_data(delta, -1)
    basis = enumerate_basis(m)
    with pytest.raises(NonFiniteScalar) as want:
        inner_built(m, basis)
    with pytest.raises(NonFiniteScalar) as got:
        gram(m)
    assert str(got.value) == str(want.value) == f"non-finite scalar {value}"


@pytest.fixture
def crossed_fusions(monkeypatch):
    """Every closure plan taken with its first fusion given sides that
    differ, on a cold program cache; a plan without a fusion is kept."""
    plan_of = threebox._plan

    def crossed(d):
        plan = plan_of(d)
        for k, (loops, op) in enumerate(plan):
            if op is not None and op[0] == "fuse":
                return plan[:k] + ((loops, (*op[:7], other_side(op[7]))),) + plan[k + 1 :]
        return plan

    monkeypatch.setattr(threebox, "_plan", crossed)
    _pairing_program.cache_clear()


def test_a_fusion_across_shadings_raises_on_every_call(crossed_fusions, model12):
    """Every gram call raises SideMismatch, with no program cached."""
    for _ in range(2):
        with pytest.raises(SideMismatch):
            gram(model12)
        assert _pairing_program.cache_info().currsize == 0


# -- inner products and the Gram matrix ---------------------------------


def test_identity_pairing_is_delta_cubed(model12):
    basis = enumerate_basis(model12)
    # the through-strand TL pattern pairs with itself to a 3-circle closure
    id3 = next(
        p
        for p in basis[:5]
        if p.boundary == (("b", 5), ("b", 4), ("b", 3), ("b", 2), ("b", 1), ("b", 0))
    )
    v = inner(model12, id3, id3)
    assert abs(v - model12.delta ** 3) < 1e-10


def test_gram_hermitian_psd_rank_14(model12, model_depth3, model_brauer):
    for m in (model12, model_depth3, model_brauer):
        gm = gram(m)
        assert gm.hermiticity_defect() < 1e-10
        assert gm.psd_defect() < 1e-8
        assert gm.rank() == 14


@pytest.mark.parametrize("delta", [16.0, 1e3, 1e4, 1e6])
def test_gram_has_full_rank_and_is_psd_far_up_the_continuum(delta):
    """Raw cond(G) is 1.3e8 at delta = 16 and 1.0e42 at 1e6, so the raw
    singular values give ranks 10 down to 3 here; D·G·D has cond <= 2.2."""
    m = from_classification_data(delta, -1)
    gm = gram(m)
    assert gm.rank() == 14
    assert gm.psd_defect() == 0.0
    assert np.linalg.cond(gm.scale[:, None] * gm.entries * gm.scale) < 2.5


def test_a_rank_deficient_gram_raises_in_every_solve(model12):
    """Every solve checks the rank, and below 14 raises GramRankDeficient:
    never LinAlgError, nor a least-squares answer."""
    basis = enumerate_basis(model12)
    g = gram(model12).entries.copy()
    g[13], g[:, 13] = g[12], g[:, 12]  # D_13 paired as D_12: exactly singular
    tri = triangle_pattern(model12)
    for gm in (GramMatrix(g), GramMatrix(np.zeros((14, 14), dtype=complex))):
        assert gm.rank() < 14
        with pytest.raises(GramRankDeficient, match=r"Gram rank \d+ < 14"):
            expand(model12, tri, gm)
        with pytest.raises(GramRankDeficient):
            threebox._solve(gm, np.ones((14, 2), dtype=complex))
        with pytest.raises(GramRankDeficient):
            solve_triangle(model12, gm)


def test_the_psd_key_can_fail():
    """With b tripled the 2-box constants no longer come from a planar
    algebra, and the Gram matrix of the 3-box basis is not PSD."""
    models = {
        "depth3": from_classification_data(DEPTH3_DELTA, +1),
        "l12": from_classification_data(delta_for_l(12), -1),
        "delta5": from_classification_data(5.0, -1),
    }
    want = {"depth3": 7.9e-2, "l12": 2.6e-1, "delta5": 1.1e-1}
    for name, m in models.items():
        bad = TwoBoxModel(m.delta, m.a, 3.0 * m.b, m.sigma)
        defect = gram(bad).psd_defect()
        assert defect == pytest.approx(want[name], rel=0.05), name
        assert DEFAULT_TOL.over_limits({"gram_psd_min_eigenvalue": defect})


def test_gram_real_at_real_locus(model12):
    gm = gram(model12)
    assert np.max(np.abs(gm.entries.imag)) < 1e-10


# -- triangle table ------------------------------------------------------


def test_triangle_residuals_small(table12):
    assert table12.residual_left < 1e-10


def test_triangle_expansion_consistency(model12, table12):
    # <T-triangle, D_i> must match sum_j c_j <D_j, D_i> for every basis element
    left = triangle_pattern(model12)
    v = np.array(
        [inner(model12, left, di) for di in enumerate_basis(model12)], dtype=complex
    )
    w = table12.gram.entries.T @ table12.left_coeffs
    assert np.max(np.abs(v - w)) < 1e-9 * max(1.0, float(np.max(np.abs(v))))


def test_triangle_substitution_matches_direct_evaluation(model12, table12):
    # closing the triangle pattern against each basis element directly must
    # agree with evaluating the same closure through the 3-gon rewrite
    left = triangle_pattern(model12)
    for i, di in enumerate(enumerate_basis(model12)):
        direct = inner(model12, left, di)
        via_table = complex(
            (table12.gram.entries.T @ table12.left_coeffs)[i]
        )
        assert abs(direct - via_table) < 1e-9 * max(1.0, abs(direct))


def test_triangle_closure_reduces_via_table(model12, table12):
    # a full skein evaluation of the triangle glued to a basis diagram must
    # go through the table substitution and agree with the inner product
    left = triangle_pattern(model12)
    for di in enumerate_basis(model12):
        d = closure(left, di)
        got = evaluate(d, model12, table12)
        want = inner(model12, left, di)
        assert abs(got - want) < 1e-9 * max(1.0, abs(want))


def test_first_idempotent_triangle_null_when_rooted_at_legs(model12, table12):
    # with each corner label rotated one click (distinguished region on the
    # external leg) the triangle of first idempotents is the zero 3-box
    fp1 = model12.rotate(model12.p1())
    p = threebox._triangle([fp1.coeffs] * 3)
    v = np.array(
        [inner(model12, p, di) for di in enumerate_basis(model12)], dtype=complex
    )
    assert float(np.linalg.norm(v)) < 1e-8


def test_triangle_table_right_is_mirror(model12, table12):
    # The table's one expansion reproduces the pairings of the right
    # (mirror) triangle with the basis.
    right = mirror(triangle_pattern(model12))
    v = np.array(
        [inner(model12, right, di) for di in enumerate_basis(model12)], dtype=complex
    )
    w = table12.gram.entries.T @ table12.left_coeffs
    assert np.max(np.abs(v - w)) < 1e-9 * max(1.0, float(np.max(np.abs(v))))


def test_the_mirror_triangle_has_the_left_expansion():
    """The right 3-gon (the mirror of the left) expands like the left one,
    so the table keeps the left expansion only: at delta = 5 and 11 and at
    every sweep point (the other fixture loci among them) where the Gram
    rank is 14."""
    loci = [from_classification_data(d, -1) for d in (5.0, 11.0)]
    checked = 0
    for m in loci + [m for _, m in sweep_models()]:
        basis = enumerate_basis(m)
        gm = gram(m)
        if gm.rank() < 14:
            continue
        checked += 1
        table = solve_triangle(m, gm)
        right, residual = expand(m, mirror(triangle_pattern(m)), gm)
        assert residual < 1e-10
        scale = float(np.max(np.abs(table.left_coeffs)))
        assert np.max(np.abs(right - table.left_coeffs)) <= 1e-13 * scale, m.delta
    assert checked >= 11  # depth 3, six l, delta = 4, 5, 11 and 11.3


# -- Yang-Baxter and Reidemeister ---------------------------------------


def test_ybe_residual_small_at_loci(model12, table12, braid12, model_depth3, braid_depth3):
    assert ybe_residual(model12, braid12, table12) < 1e-8
    table3 = solve_triangle(model_depth3)
    assert ybe_residual(model_depth3, braid_depth3, table3) < 1e-8


def test_ybe_residual_small_at_real_locus():
    m = from_classification_data(4.5, -1)
    # real q solving q^2 + 1/q^2 from the trace data
    from skeinlab import recover_qr

    q, r = recover_qr(4.5, m.a, m.b, sigma=-1)
    bp = braid_pair(m, q, r)
    table = solve_triangle(m)
    assert ybe_residual(m, bp, table) < 1e-8


def pairings(model, pattern):
    """<pattern, D_j> for the 14 basis patterns, each closure reduced."""
    return np.array([inner(model, pattern, dj) for dj in enumerate_basis(model)], dtype=complex)


def test_ybe_rerooting_invariance(model12, table12, braid12):
    """Re-rooting the crossings of either side leaves its pairings with the
    basis as they are, and side B's pairings are side A's turned by
    turn³, so the residual needs side A alone."""
    va = pairings(model12, braid_pattern(model12, braid12, "A"))
    vb = pairings(model12, braid_pattern(model12, braid12, "B"))
    scale = float(np.max(np.abs(va)))
    assert np.max(np.abs(vb - va[TURN3])) <= 1e-14 * scale
    rng = np.random.default_rng(13)
    for _ in range(5):
        ra = tuple(int(k) for k in rng.integers(0, 4, size=3))
        rb = tuple(int(k) for k in rng.integers(0, 4, size=3))
        rerooted_a = pairings(model12, braid_pattern(model12, braid12, "A", ra))
        rerooted_b = pairings(model12, braid_pattern(model12, braid12, "B", rb))
        assert np.max(np.abs(rerooted_a - va)) <= 1e-14 * scale, ra
        assert np.max(np.abs(rerooted_b - vb)) <= 1e-14 * scale, rb
        assert np.max(np.abs(rerooted_b - rerooted_a[TURN3])) <= 1e-14 * scale, (ra, rb)


def turn_cases():
    """(name, model, table, braid) at the depth-3 point, at l = 12, 14,
    100 and 200, and at delta = 4.5, 5, 11 and 15, each with its braid
    generator and with q scaled by 1.01 and r by 1 + 1e-6."""
    loci = [("depth3", DEPTH3_DELTA)]
    loci += [(f"l={l}", delta_for_l(l)) for l in (12, 14, 100, 200)]
    loci += [(f"delta={d}", d) for d in (4.5, 5.0, 11.0, 15.0)]
    for name, delta in loci:
        st = Stages(delta)
        q, r = st.braid.q, st.braid.r
        yield name, st.model, st.table, st.braid
        yield f"{name}, q*1.01", st.model, st.table, BraidPair.from_qr(q * 1.01, r)
        yield f"{name}, r*(1+1e-6)", st.model, st.table, BraidPair.from_qr(q, r * (1 + 1e-6))


def test_the_turned_pairings_match_the_direct_ones():
    """The 3-gon's 14 pairings against its 6 orbit pairings, and side B's
    14 against side A's turned by turn³, each closure reduced on its own."""
    assert list(_pairing_program(threebox._BRAID_SHAPES)[1]) == list(range(14)) + TURN3
    orbit_of = _pairing_program(threebox._TRIANGLE_SHAPES)[1]
    firsts = orbit_firsts(orbit_of)
    assert [firsts[k] for k in orbit_of] == [min(j, TURN2[j], TURN2[TURN2[j]]) for j in range(14)]
    for name, m, table, braid in turn_cases():
        vt = pairings(m, triangle_pattern(m))
        orbit = vt[firsts][orbit_of]
        assert np.max(np.abs(vt - orbit)) <= 1e-14 * np.max(np.abs(vt)), name
        va = pairings(m, braid_pattern(m, braid, "A"))
        vb = pairings(m, braid_pattern(m, braid, "B"))
        assert np.max(np.abs(vb - va[TURN3])) <= 1e-14 * np.max(np.abs(vb)), name
        direct, residual = expand(m, triangle_pattern(m), table.gram)
        assert residual < 1e-10 and table.residual_left < 1e-10, name
        scale = float(np.max(np.abs(direct)))
        assert np.max(np.abs(table.left_coeffs - direct)) <= 1e-13 * scale, name


def test_ybe_residual_matches_the_two_sided_reference():
    """Against both sides expanded apart: the pairings differ by rounding
    (<= 1e-15 relative, above), which shows in the residual as absolute
    noise below 1e-15 (2.9e-16 at most on these cases)."""
    for name, m, table, braid in turn_cases():
        got, want = ybe_residual(m, braid, table), reference_ybe_residual(m, braid, table)
        assert abs(got - want) <= 1e-15, name


def test_an_x_side_shape_that_is_no_turn_of_another_gets_its_own_closures():
    """Side B with its crossings as rooted is not side A turned, so the
    program of the two compiles 28 closures; B's row is inner's, bit for
    bit, and side A's turned three clicks up to rounding."""
    side_b = threebox._braid_wiring("B", (0, 0, 0), [threebox.ZERO] * 3).shape
    xs = (threebox._BRAID_SHAPES[0], side_b)
    program, index = _pairing_program(xs)
    assert len(program.chains) == 28 and list(index) == list(range(28))
    for name, delta in [*FIXTURE_LOCI.items(), ("delta=1e3", 1e3)]:
        st = Stages(delta)
        u = st.braid.U.coeffs
        va, vb = threebox._pairings(xs, st.model, u, DEFAULT_TOL).reshape(2, 14)
        want = pairings(st.model, threebox._braid_wiring("B", (0, 0, 0), [u] * 3))
        assert vb.tobytes() == want.tobytes(), name
        assert np.max(np.abs(vb - va[TURN3])) <= 1e-12 * np.max(np.abs(vb)), name


def test_ybe_perturbed_q_fails(model12, table12, braid12):
    q = braid12.q * 1.01
    perturbed = BraidPair(
        q=q,
        r=braid12.r,
        z1=braid12.z1,
        z2=braid12.z2,
        U=braid12.U,
        V=braid12.V,
    )
    # rebuild U, V from the perturbed q directly
    m = model12
    from skeinlab.twobox import BoxVec, PLUS

    r = braid12.r
    u = BoxVec(PLUS, (1.0 / r, q, -1.0 / q))
    v = BoxVec(PLUS, (r, 1.0 / q, -q))
    perturbed = BraidPair(q=q, r=r, z1=1.0 / r, z2=-r, U=u, V=v)
    assert ybe_residual(m, perturbed, table12) > 1e-3


def test_reidemeister_residuals_at_loci(model12, braid12, model_depth3, braid_depth3):
    for m, bp in ((model12, braid12), (model_depth3, braid_depth3)):
        r1, r2, quad = reidemeister_residuals(m, bp)
        assert r1 < 1e-8
        assert r2 < 1e-8
        assert quad < 1e-8


def test_reidemeister_negative_control(model12, braid12):
    from skeinlab.twobox import BoxVec, PLUS

    q, r = braid12.q, -braid12.r
    u = BoxVec(PLUS, (1.0 / r, q, -1.0 / q))
    v = BoxVec(PLUS, (r, 1.0 / q, -q))
    bad = BraidPair(q=q, r=r, z1=1.0 / r, z2=-r, U=u, V=v)
    r1, _, _ = reidemeister_residuals(model12, bad)
    assert r1 > 1e-3


@pytest.mark.parametrize("locus", list(FIXTURE_LOCI))
def test_r2_catches_a_perturbed_q_or_r(locus):
    """r2 is the planar Reidemeister II residual, rotate(U) = sigma V: at
    float noise on the locus, and over its limit once q or r is off by a
    relative 1e-7."""
    st = Stages(FIXTURE_LOCI[locus])
    limit = st.tol.limits["r2"]
    q, r = st.braid.q, st.braid.r
    assert reidemeister_residuals(st.model, st.braid)[1] < 4e-15
    for bad in (BraidPair.from_qr(q * (1.0 + 1e-7), r), BraidPair.from_qr(q, r * (1.0 + 1e-7))):
        assert reidemeister_residuals(st.model, bad)[1] > limit


@pytest.mark.parametrize("locus", list(FIXTURE_LOCI))
def test_r1_catches_a_perturbed_r(locus):
    """r1 compares both cap-twists of U with (sigma r, 1/r): under its
    limit on the locus, over it once r is off by a relative 1e-6 or less."""
    st = Stages(FIXTURE_LOCI[locus])
    q, r = st.braid.q, st.braid.r

    def r1(eps):
        return reidemeister_residuals(st.model, BraidPair.from_qr(q, r * (1.0 + eps)))[0]

    assert r1(0.0) < st.tol.limits["r1"]
    assert first_over(st.tol.limits["r1"], r1) is not None


@pytest.mark.parametrize("locus", list(FIXTURE_LOCI))
def test_quad_catches_a_perturbed_q(locus):
    """quad is the quadratic relation's defect: under its limit on the
    locus, over it once q is off by a relative 1e-6 or less."""
    st = Stages(FIXTURE_LOCI[locus])
    q, r = st.braid.q, st.braid.r

    def quad(eps):
        return reidemeister_residuals(st.model, BraidPair.from_qr(q * (1.0 + eps), r))[2]

    assert quad(0.0) < st.tol.limits["quad"]
    assert first_over(st.tol.limits["quad"], quad) is not None


def test_braid_pattern_sides_differ_as_patterns(model12, braid12):
    pa = braid_pattern(model12, braid12, "A")
    pb = braid_pattern(model12, braid12, "B")
    assert pa.key() != pb.key()


def test_braid_pattern_rejects_bad_side(model12, braid12):
    with pytest.raises(ValueError):
        braid_pattern(model12, braid12, "C")


# -- closure wiring ------------------------------------------------------


def test_two_vertex_patterns_are_the_distinct_rotations():
    # j and j + 3 swap the two vertices, so the three patterns built are
    # the distinct ones among all six rotations.
    pats = _two_vertex_patterns()
    assert len({p.key() for p in pats}) == 3
    for j, p in enumerate(pats):
        assert p.boundary[j] == ("v", 0, 0)
        bnd = [None] * 6
        for slot in range(3):
            bnd[(j + 3 + slot) % 6] = ("v", 0, slot)
            bnd[(j + slot) % 6] = ("v", 1, slot)
        assert Pattern(p.vertices, p.internal_edges, tuple(bnd)).key() == p.key()


def test_pattern_key_carries_the_shading_bit(model12):
    p = enumerate_basis(model12)[5]
    (vid, v), = p.vertices
    flipped = Pattern(((vid, Vertex(v.coeffs, 1)),), p.internal_edges, p.boundary)
    assert flipped.key() != p.key()


def test_closure_matches_the_reference_wiring(model12, braid12):
    basis = enumerate_basis(model12)
    tri = triangle_pattern(model12)
    extra = [
        tri,
        mirror(tri),
        braid_pattern(model12, braid12, "A"),
        braid_pattern(model12, braid12, "B"),
    ]
    pats = list(basis) + extra
    pairs = [(x, y) for x in pats for y in basis]
    pairs += [(x, y) for x in extra for y in extra]
    for x, y in pairs:
        assert same_wiring(closure(x, y), reference_closure(x, y))


def _malformed_patterns(model):
    basis = enumerate_basis(model)
    one, two = basis[5], basis[11]
    return {
        # A leg on a vertex the pattern does not have.
        "unknown vertex": Pattern(
            one.vertices,
            (),
            tuple(("v", 7, 0) if a == ("v", 0, 0) else a for a in one.boundary),
        ),
        # Dart (0, 3) on the internal edge and on the boundary.
        "dart twice": Pattern(
            two.vertices,
            two.internal_edges,
            tuple(("v", 0, 3) if a == ("v", 0, 0) else a for a in two.boundary),
        ),
        # Closed with itself, the self-arcs on both sides meet at glue
        # points 0 and 1; an arc dedup that kept only i < j dropped them all
        # and closed the pair without error.
        "self-arc": Pattern((), (), (("b", 0), ("b", 1), ("b", 3), ("b", 2), ("b", 5), ("b", 4))),
        # Points 3 and 5 name 0, which names 1; an i < j dedup dropped both
        # arcs, and the closure with the first TL pattern passed the walk.
        "non-involutive arcs": Pattern(
            (), (), (("b", 1), ("b", 0), ("b", 3), ("b", 0), ("b", 5), ("b", 0))
        ),
    }


@pytest.mark.parametrize(
    "name, want",
    [
        ("unknown vertex", MalformedPairing),
        ("dart twice", MalformedPairing),
        ("self-arc", InvariantViolation),
        ("non-involutive arcs", InvariantViolation),
    ],
)
def test_closure_rejects_malformed_patterns(model12, name, want):
    bad = _malformed_patterns(model12)[name]
    basis = enumerate_basis(model12)
    for y in (basis[0], basis[5], basis[11], bad):
        for args in ((bad, y), (y, bad)):
            for build in (closure, reference_closure):
                with pytest.raises(SkeinlabError) as info:
                    build(*args)
                assert type(info.value) is want
