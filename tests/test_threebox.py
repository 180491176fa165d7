import cmath
import math

import numpy as np
import pytest

from skeinlab import (
    DEPTH3_DELTA,
    BraidPair,
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
    InternalEnumerationMismatch,
    InvariantViolation,
    MalformedPairing,
    SkeinlabError,
)
from skeinlab.classify import Stages
from skeinlab.threebox import (
    GramMatrix,
    Pattern,
    _basis_shapes,
    _braid_pattern,
    _pairing_turns,
    _two_vertex_patterns,
    closure,
    expand,
)
from skeinlab.skein import FormalSum, Vertex, reduce_once

from helpers import reference_closure, reference_ybe_residual, same_wiring


# -- basis enumeration ---------------------------------------------------


def test_basis_counts(model12):
    basis = enumerate_basis(model12)
    assert len(basis.tl) == 5
    assert len(basis.one_vertex) == 6
    assert len(basis.two_vertex) == 3
    assert len(basis.diagrams) == 14


def test_basis_keys_distinct(model12):
    basis = enumerate_basis(model12)
    keys = {p.key() for p in basis.diagrams}
    assert len(keys) == 14


def test_tl_patterns_have_no_vertices(model12):
    basis = enumerate_basis(model12)
    for p in basis.tl:
        assert len(p.vertices) == 0
    for p in basis.one_vertex:
        assert len(p.vertices) == 1
    for p in basis.two_vertex:
        assert len(p.vertices) == 2


def test_mirror_is_involution(model12):
    basis = enumerate_basis(model12)
    for p in basis.diagrams:
        assert mirror(mirror(p)).key() == p.key()


# -- the rotation map ----------------------------------------------------

# Basis14 index of each basis pattern turned one, two and three clicks.
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
        pats = enumerate_basis(m).diagrams
        index = {p.key(): i for i, p in enumerate(pats)}
        assert [index[p.rotated().key()] for p in pats] == TURN


def test_six_turns_are_the_identity(model12, braid12):
    tri = triangle_pattern(model12)
    extra = [tri, mirror(tri), _braid_pattern(model12, braid12, "A")]
    for p in list(enumerate_basis(model12).diagrams) + extra:
        turned = p
        for _ in range(6):
            assert turned.vertices == p.vertices and turned.internal_edges == p.internal_edges
            turned = turned.rotated()
        assert turned == p


def test_the_orbits_partition_the_index_pairs():
    _, orbits, turn = _basis_shapes()
    assert list(turn) == TURN
    assert len(orbits) == 40
    pairs = [pair for rows, cols in orbits for pair in zip(rows, cols)]
    assert sorted(pairs) == [(i, j) for i in range(14) for j in range(14)]
    for rows, cols in orbits:
        orbit = list(zip(rows, cols))
        assert orbit[0] == min(orbit)  # the first pair in row-major order
        assert {(TURN[i], TURN[j]) for i, j in orbit} == set(orbit)


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
        gm = gram(m, basis)
        full = GramMatrix(
            np.array([[inner(m, x, y) for y in basis.diagrams] for x in basis.diagrams])
        )
        size = np.sqrt(np.abs(np.outer(np.diag(full.entries), np.diag(full.entries))))
        assert np.all(np.abs(gm.entries - full.entries) <= 1e-15 * size), name
        assert gm.rank() == full.rank(), name
        assert gm.hermiticity_defect() == full.hermiticity_defect(), name


# -- inner products and the Gram matrix ---------------------------------


def test_identity_pairing_is_delta_cubed(model12):
    basis = enumerate_basis(model12)
    # the through-strand TL pattern pairs with itself to a 3-circle closure
    id3 = next(
        p
        for p in basis.tl
        if p.boundary == (("b", 5), ("b", 4), ("b", 3), ("b", 2), ("b", 1), ("b", 0))
    )
    v = inner(model12, id3, id3)
    assert abs(v - model12.delta ** 3) < 1e-10


def test_gram_hermitian_psd_rank_14(model12, model_depth3, model_brauer):
    for m in (model12, model_depth3, model_brauer):
        gm = gram(m, enumerate_basis(m))
        assert gm.hermiticity_defect() < 1e-10
        assert gm.psd_defect() < 1e-8
        assert gm.rank() == 14


def test_gram_real_at_real_locus(model12):
    gm = gram(model12, enumerate_basis(model12))
    assert np.max(np.abs(gm.entries.imag)) < 1e-10


# -- triangle table ------------------------------------------------------


def test_triangle_residuals_small(table12):
    assert table12.residual_left < 1e-10


def test_triangle_expansion_consistency(model12, table12):
    # <T-triangle, D_i> must match sum_j c_j <D_j, D_i> for every basis element
    left = triangle_pattern(model12)
    v = np.array(
        [inner(model12, left, di) for di in table12.basis.diagrams], dtype=complex
    )
    w = table12.gram.entries.T @ table12.left_coeffs
    assert np.max(np.abs(v - w)) < 1e-9 * max(1.0, float(np.max(np.abs(v))))


def test_triangle_substitution_matches_direct_evaluation(model12, table12):
    # closing the triangle pattern against each basis element directly must
    # agree with evaluating the same closure through the 3-gon rewrite
    left = triangle_pattern(model12)
    for i, di in enumerate(table12.basis.diagrams):
        direct = inner(model12, left, di)
        via_table = complex(
            (table12.gram.entries.T @ table12.left_coeffs)[i]
        )
        assert abs(direct - via_table) < 1e-9 * max(1.0, abs(direct))


def test_triangle_closure_reduces_via_table(model12, table12):
    # a full skein evaluation of the triangle glued to a basis diagram must
    # go through the table substitution and agree with the inner product
    left = triangle_pattern(model12)
    for di in table12.basis.diagrams:
        d = closure(left, di)
        got = evaluate(d, model12, table12)
        want = inner(model12, left, di)
        assert abs(got - want) < 1e-9 * max(1.0, abs(want))


def test_first_idempotent_triangle_null_when_rooted_at_legs(model12, table12):
    # with each corner label rotated one click (distinguished region on the
    # external leg) the triangle of first idempotents is the zero 3-box
    fp1 = model12.rotate(model12.p1())
    p = triangle_pattern(model12, labels=[fp1.coeffs] * 3)
    v = np.array(
        [inner(model12, p, di) for di in table12.basis.diagrams], dtype=complex
    )
    assert float(np.linalg.norm(v)) < 1e-8


def test_triangle_table_right_is_mirror(model12, table12):
    # The table's one expansion reproduces the pairings of the right
    # (mirror) triangle with the basis.
    right = mirror(triangle_pattern(model12))
    v = np.array(
        [inner(model12, right, di) for di in table12.basis.diagrams], dtype=complex
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
        gm = gram(m, basis)
        if gm.rank() < 14:
            continue
        checked += 1
        table = solve_triangle(m, basis, gm)
        right, residual = expand(m, mirror(triangle_pattern(m)), basis, gm)
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


def pairings(model, pattern, basis):
    """<pattern, D_j> for the 14 basis patterns, each closure reduced."""
    return np.array([inner(model, pattern, dj) for dj in basis.diagrams], dtype=complex)


def test_ybe_rerooting_invariance(model12, table12, braid12):
    """Re-rooting the crossings of either side leaves its pairings with the
    basis as they are, and side B's pairings are side A's turned by
    turn³, so the residual needs side A alone."""
    basis = table12.basis
    va = pairings(model12, _braid_pattern(model12, braid12, "A"), basis)
    vb = pairings(model12, _braid_pattern(model12, braid12, "B"), basis)
    scale = float(np.max(np.abs(va)))
    assert np.max(np.abs(vb - va[TURN3])) <= 1e-14 * scale
    rng = np.random.default_rng(13)
    for _ in range(5):
        ra = tuple(int(k) for k in rng.integers(0, 4, size=3))
        rb = tuple(int(k) for k in rng.integers(0, 4, size=3))
        rerooted_a = pairings(model12, _braid_pattern(model12, braid12, "A", ra), basis)
        rerooted_b = pairings(model12, _braid_pattern(model12, braid12, "B", rb), basis)
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
    firsts, orbit_of, turn3 = _pairing_turns()
    assert list(turn3) == TURN3
    assert [firsts[k] for k in orbit_of] == [min(j, TURN2[j], TURN2[TURN2[j]]) for j in range(14)]
    for name, m, table, braid in turn_cases():
        basis = table.basis
        vt = pairings(m, triangle_pattern(m), basis)
        orbit = vt[list(firsts)][list(orbit_of)]
        assert np.max(np.abs(vt - orbit)) <= 1e-14 * np.max(np.abs(vt)), name
        va = pairings(m, _braid_pattern(m, braid, "A"), basis)
        vb = pairings(m, _braid_pattern(m, braid, "B"), basis)
        assert np.max(np.abs(vb - va[TURN3])) <= 1e-14 * np.max(np.abs(vb)), name
        direct, residual = expand(m, triangle_pattern(m), basis, table.gram)
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


@pytest.fixture
def fresh_pairing_turns():
    _pairing_turns.cache_clear()
    yield
    _pairing_turns.cache_clear()


def test_pairing_turns_refuse_a_triangle_not_fixed_by_two_turns(monkeypatch, fresh_pairing_turns):
    # Two legs of one corner swapped: two turns no longer fix the pattern.
    tri = threebox._triangle([threebox.ZERO] * 3)
    bnd = (tri.boundary[1], tri.boundary[0], *tri.boundary[2:])
    monkeypatch.setattr(threebox, "_triangle", lambda labels: Pattern(tri.vertices, tri.internal_edges, bnd))
    with pytest.raises(InternalEnumerationMismatch, match="not fixed by two turns"):
        _pairing_turns()


def test_pairing_turns_refuse_a_side_b_that_is_not_side_a_turned(monkeypatch, fresh_pairing_turns):
    wiring = threebox._braid_wiring
    # Roots taken mod 2: side B is built without its two-click re-rooting.
    monkeypatch.setattr(
        threebox, "_braid_wiring", lambda side, roots, labels: wiring(side, [k % 2 for k in roots], labels)
    )
    with pytest.raises(InternalEnumerationMismatch, match="not side A turned three clicks"):
        _pairing_turns()


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


# The loci of the golden reports.
R2_LOCI = {
    "depth3": DEPTH3_DELTA,
    "l12": delta_for_l(12),
    "l100": delta_for_l(100),
    "delta5": 5.0,
    "delta11": 11.0,
}


@pytest.mark.parametrize("locus", list(R2_LOCI))
def test_r2_catches_a_perturbed_q_or_r(locus):
    """r2 is the planar Reidemeister II residual, rotate(U) = sigma V: at
    float noise on the locus, and over its limit once q or r is off by a
    relative 1e-7."""
    st = Stages(R2_LOCI[locus])
    limit = st.tol.limits["r2"]
    q, r = st.braid.q, st.braid.r
    assert reidemeister_residuals(st.model, st.braid)[1] < 4e-15
    for bad in (BraidPair.from_qr(q * (1.0 + 1e-7), r), BraidPair.from_qr(q, r * (1.0 + 1e-7))):
        assert reidemeister_residuals(st.model, bad)[1] > limit


def test_braid_pattern_sides_differ_as_patterns(model12, braid12):
    pa = _braid_pattern(model12, braid12, "A")
    pb = _braid_pattern(model12, braid12, "B")
    assert pa.key() != pb.key()


def test_braid_pattern_rejects_bad_side(model12, braid12):
    with pytest.raises(ValueError):
        _braid_pattern(model12, braid12, "C")


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
    p = enumerate_basis(model12).one_vertex[0]
    (vid, v), = p.vertices
    flipped = Pattern(((vid, Vertex(v.coeffs, 1)),), p.internal_edges, p.boundary)
    assert flipped.key() != p.key()


def test_closure_matches_the_reference_wiring(model12, braid12):
    basis = enumerate_basis(model12)
    tri = triangle_pattern(model12)
    extra = [
        tri,
        mirror(tri),
        _braid_pattern(model12, braid12, "A"),
        _braid_pattern(model12, braid12, "B"),
    ]
    pats = list(basis.diagrams) + extra
    pairs = [(x, y) for x in pats for y in basis.diagrams]
    pairs += [(x, y) for x in extra for y in extra]
    for x, y in pairs:
        assert same_wiring(closure(x, y), reference_closure(x, y))


def _malformed_patterns(model):
    basis = enumerate_basis(model)
    one, two = basis.one_vertex[0], basis.two_vertex[0]
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
    for y in (basis.tl[0], basis.one_vertex[0], basis.two_vertex[0], bad):
        for args in ((bad, y), (y, bad)):
            for build in (closure, reference_closure):
                with pytest.raises(SkeinlabError) as info:
                    build(*args)
                assert type(info.value) is want
