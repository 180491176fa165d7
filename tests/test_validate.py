"""`Diagram.validate`, which counts the faces of `faces()` against the
components of `components()`, against the multi-scan reference in
`helpers.reference_validate`: on every input both pass, or both raise the
same exception class, with the same message on multi-component pairings."""

import math

import numpy as np
import pytest

from skeinlab import Diagram, Vertex
from skeinlab.errors import (
    MalformedPairing,
    NonFiniteScalar,
    NonPlanar,
    ShadingInconsistent,
    SkeinlabError,
)

from helpers import octahedron_diagram, random_diagram_corpus, reference_validate


def outcome(check, d, check_shading=True):
    """None when the check passes, else the class of what it raised."""
    try:
        check(d, check_shading=check_shading)
    except SkeinlabError as exc:
        return type(exc)
    return None


def assert_agrees(d):
    """Both shading modes; returns the (shared) outcome with shading on."""
    for check_shading in (True, False):
        want = outcome(reference_validate, d, check_shading)
        assert outcome(Diagram.validate, d, check_shading) is want
    return outcome(reference_validate, d)


def pairs(d):
    return [(a, b) for a, b in d.edges.items() if a < b]


def rewired(d, edge_pairs):
    out = Diagram(dict(d.vertices), {}, d.free_loops)
    for a, b in edge_pairs:
        out.add_edge(a, b)
    return out


def raw_random_diagram(rng, max_vertices=5, infer=True):
    """A random pairing, planar or not; shading inferred or random."""
    nv = int(rng.integers(1, max_vertices + 1))
    darts = [(v, s) for v in range(nv) for s in range(4)]
    perm = rng.permutation(len(darts))
    verts = {v: Vertex(tuple(rng.normal(size=3)), int(rng.integers(2))) for v in range(nv)}
    d = Diagram(verts, {})
    for i in range(0, len(darts), 2):
        d.add_edge(darts[perm[i]], darts[perm[i + 1]])
    return d.infer_shading() if infer else d


@pytest.fixture(scope="module")
def corpus():
    return random_diagram_corpus(np.random.default_rng(41), 60, max_vertices=6)


def test_corpus_passes_both(corpus):
    for d in corpus:
        assert assert_agrees(d) is None


def test_raw_random_pairings_agree():
    rng = np.random.default_rng(42)
    seen = set()
    for _ in range(300):
        d = raw_random_diagram(rng, 6, infer=bool(rng.integers(2)))
        seen.add(assert_agrees(d))
    assert {None, NonPlanar, ShadingInconsistent} <= seen


def test_unpaired_dart(corpus):
    for d in corpus:
        bad = d.copy()
        a = next(iter(bad.edges))
        del bad.edges[bad.edges.pop(a)]
        assert assert_agrees(bad) is MalformedPairing


def test_non_involution(corpus):
    for d in corpus:
        if d.n_edges < 2:
            continue
        bad = d.copy()
        (a, _), (c, _) = pairs(d)[:2]
        bad.edges[a] = c
        assert assert_agrees(bad) is MalformedPairing


@pytest.mark.parametrize("slot", [4, -1])
def test_slot_outside_range(corpus, slot):
    for d in corpus:
        a, b = pairs(d)[0]
        bad = d.copy()
        del bad.edges[a]
        bad.edges[(a[0], slot)] = b
        bad.edges[b] = (a[0], slot)
        assert assert_agrees(bad) is MalformedPairing


def test_pairing_swaps(corpus):
    """Exchange the ends of two edges, both ways: often non-planar."""
    seen = []
    for d in corpus:
        es = pairs(d)
        for i in range(len(es)):
            for j in range(i + 1, len(es)):
                (a, b), (c, e) = es[i], es[j]
                rest = es[:i] + es[i + 1 : j] + es[j + 1 :]
                for swap in ([(a, e), (c, b)], [(a, c), (b, e)]):
                    seen.append(assert_agrees(rewired(d, rest + swap)))
    assert NonPlanar in seen and None in seen


def test_flipped_shading_bit(corpus):
    seen = []
    for d in corpus:
        for v, vert in d.vertices.items():
            bad = d.copy()
            bad.vertices[v] = Vertex(vert.coeffs, 1 - vert.shading0)
            seen.append(assert_agrees(bad))
    assert ShadingInconsistent in seen


def test_negative_loop_count(corpus):
    for d in corpus[:10]:
        bad = d.copy()
        bad.free_loops = -1
        assert assert_agrees(bad) is MalformedPairing


def has_mixed_face(d):
    return any(len({(d.vertices[v].shading0 + s) % 2 for v, s in f}) > 1 for f in d.faces())


def test_non_planar_beats_mis_shaded():
    # The octahedron with the ends of two edges exchanged is non-planar, and
    # no shading of it is consistent; with each shading bit flipped in turn,
    # NonPlanar is raised before the mixed face.
    octa = octahedron_diagram([(1.0, 0.0, 0.0)] * 6)
    es = pairs(octa)
    (a, b), (c, e) = es[0], es[1]
    bad = rewired(octa, es[2:] + [(a, e), (c, b)]).infer_shading()
    assert has_mixed_face(bad)
    assert assert_agrees(bad) is NonPlanar
    for v, vert in bad.vertices.items():
        flipped = bad.copy()
        flipped.vertices[v] = Vertex(vert.coeffs, 1 - vert.shading0)
        assert has_mixed_face(flipped)
        assert outcome(Diagram.validate, flipped) is NonPlanar
        assert assert_agrees(flipped) is NonPlanar


def test_disconnected_components_each_checked():
    # A planar component next to a non-planar one: the total F - V would be
    # wrong only through the non-planar one.
    rng = np.random.default_rng(43)
    planar = random_diagram_corpus(rng, 1, max_vertices=3)[0]
    while True:
        d = raw_random_diagram(rng, 4)
        if outcome(reference_validate, d) is NonPlanar:
            break
    off = max(planar.vertices) + 1
    both = Diagram(dict(planar.vertices), dict(planar.edges))
    for v, vert in d.vertices.items():
        both.vertices[v + off] = vert
    for (v, s), (w, t) in d.edges.items():
        both.edges[(v + off, s)] = (w + off, t)
    assert assert_agrees(both) is NonPlanar
    assert assert_agrees(Diagram(dict(planar.vertices), dict(planar.edges), 3)) is None


def raised(check, d):
    """(class, message) of what the check raised, or None."""
    try:
        check(d)
    except SkeinlabError as exc:
        return type(exc), str(exc)
    return None


def test_messages_agree_on_multi_component_pairings():
    # Random pairings on 2-4 groups of interleaved vertex ids, listed in a
    # seeded order, so that components and their first vertices interleave.
    rng = np.random.default_rng(44)
    seen = set()
    for _ in range(400):
        sizes = rng.integers(1, 5, size=int(rng.integers(2, 5)))
        ids = [int(v) for v in rng.permutation(int(sizes.sum()))]
        d = Diagram({}, {})
        for group in np.split(np.array(ids), np.cumsum(sizes)[:-1]):
            darts = [(int(v), s) for v in group for s in range(4)]
            perm = rng.permutation(len(darts))
            for i in range(0, len(darts), 2):
                d.add_edge(darts[perm[i]], darts[perm[i + 1]])
        order = [int(v) for v in rng.permutation(len(ids))]
        d.vertices = {v: Vertex(tuple(rng.normal(size=3)), int(rng.integers(2))) for v in order}
        if rng.integers(2):
            d = d.infer_shading()
        got = raised(Diagram.validate, d)
        assert got == raised(reference_validate, d)
        seen.add(got and got[0])
    assert {None, NonPlanar, ShadingInconsistent} <= seen


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
def test_non_finite_label(corpus, bad):
    for d in corpus[:10]:
        v = next(iter(d.vertices))
        d = d.copy()
        d.vertices[v] = Vertex((1.0, bad, 0.0), d.vertices[v].shading0)
        for check_shading in (True, False):
            with pytest.raises(NonFiniteScalar):
                d.validate(check_shading)


def test_structural_faults_come_before_non_finite_labels(corpus):
    d = corpus[0].copy()
    v = next(iter(d.vertices))
    d.vertices[v] = Vertex((math.nan, 0.0, 0.0), d.vertices[v].shading0)
    flipped = d.copy()
    flipped.vertices[v] = Vertex(d.vertices[v].coeffs, 1 - d.vertices[v].shading0)
    assert outcome(Diagram.validate, flipped) is ShadingInconsistent
    d.free_loops = -1
    assert outcome(Diagram.validate, d) is MalformedPairing
    rng = np.random.default_rng(45)
    bad = raw_random_diagram(rng, 4)
    while outcome(reference_validate, bad) is not NonPlanar:
        bad = raw_random_diagram(rng, 4)
    bad.vertices = {v: Vertex((math.nan, 0.0, 0.0), x.shading0) for v, x in bad.vertices.items()}
    assert outcome(Diagram.validate, bad) is NonPlanar
