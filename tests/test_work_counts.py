"""Pins on the work one classification does.  Every inner product replays
the plan of its closure shape, and each shape is validated once, when its
plan is compiled, and the Gram matrix reduces one closure per rotation
orbit of index pairs.  A PASS classification makes one SVD, of the
Gram matrix, and a Gram report one eigendecomposition.  The FormalSum
engine evaluates a diagram again without redoing the shape half of any
rewrite, keys only the terms that can merge, and its connector walk asks
once per node whether the node is a connector."""

import contextlib
import io
from collections import Counter

import numpy as np
import pytest

from helpers import octahedron_diagram
from skeinlab import classify, delta_for_l, shapes, skein, threebox
from skeinlab.classify import Stages
from skeinlab.cli import main
from skeinlab.threebox import expand, mirror, triangle_pattern

# 40 rotation orbits of Gram entries, 14 for the left triangle table,
# 2 x 14 for the two sides of the Yang-Baxter equation; each pairs a
# different closure shape.
CLOSURES_PER_PASS = 40 + 14 + 2 * 14


@pytest.fixture
def counted(monkeypatch):
    """Records the diagrams handed to evaluate_detailed and validate, and
    counts inner calls and the pattern-shape pairs they ask for."""
    seen = {"evaluated": [], "validated": [], "inner": 0, "shapes": set()}
    evaluate_detailed = skein.evaluate_detailed
    validate = skein.Diagram.validate
    inner = threebox.inner

    def counting_evaluate(d, *args, **kwargs):
        seen["evaluated"].append(d)
        return evaluate_detailed(d, *args, **kwargs)

    def counting_validate(self, *args, **kwargs):
        seen["validated"].append(self)
        return validate(self, *args, **kwargs)

    def counting_inner(model, x, y, *args, **kwargs):
        seen["inner"] += 1
        seen["shapes"].add((shapes.pattern_shape(x), shapes.pattern_shape(y)))
        return inner(model, x, y, *args, **kwargs)

    monkeypatch.setattr(skein, "evaluate_detailed", counting_evaluate)
    monkeypatch.setattr(skein.Diagram, "validate", counting_validate)
    monkeypatch.setattr(threebox, "inner", counting_inner)
    return seen


def test_classify_validates_every_evaluated_diagram_once(counted):
    threebox._closure_plan.cache_clear()
    res = classify(5.0)
    assert res.verdict == "PASS"
    assert counted["inner"] == len(counted["shapes"]) == CLOSURES_PER_PASS
    assert counted["evaluated"] == []
    assert len(counted["validated"]) == CLOSURES_PER_PASS
    assert threebox._closure_plan.cache_info().misses == CLOSURES_PER_PASS

    # A second classification replays the cached plans and validates nothing.
    counted["validated"].clear()
    assert classify(5.0).verdict == "PASS"
    assert counted["inner"] == 2 * CLOSURES_PER_PASS
    assert counted["evaluated"] == counted["validated"] == []


def test_a_second_evaluation_replays_every_rewrite(model12, table12, monkeypatch):
    """The shape half of every rewrite is recorded once per process: the
    same diagram evaluated again computes no edge delta, face search or
    shading inference; its one face walk is validate's."""
    g = model12.uncappable().coeffs
    d = octahedron_diagram([g if v % 2 else (1.0, -0.5, 0.25) for v in range(6)])
    calls = dict.fromkeys(("delta", "find_small_face", "faces", "infer_shading"), 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(skein, "_delta", counting("delta", skein._delta))
    monkeypatch.setattr(skein, "find_small_face", counting("find_small_face", skein.find_small_face))
    for name in ("faces", "infer_shading"):
        monkeypatch.setattr(skein.Diagram, name, counting(name, getattr(skein.Diagram, name)))
    first = skein.evaluate_detailed(d, model12, table12)
    assert min(calls.values()) > 0
    calls.update(dict.fromkeys(calls, 0))
    assert skein.evaluate_detailed(d, model12, table12) == first
    assert calls == {"delta": 0, "find_small_face": 0, "faces": 1, "infer_shading": 0}


def test_classify_computes_one_svd(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    assert classify(5.0).verdict == "PASS"
    assert calls == [(14, 14)]


def test_gram_report_computes_the_eigenvalues_once(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting_eigvalsh(*args, **kwargs):
        calls.append(args[0].shape)
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gram", "--l", "12"]) == 0
    assert calls == [(14, 14)]


def test_right_table_is_solved_on_first_read(counted):
    """The table keeps one expansion, solved with the left triangle when
    the table is built; it serves the right triangle too, so reading it
    costs no further closure."""
    st = Stages(delta_for_l(12))
    table = st.table
    before = counted["inner"]
    coeffs, residual = table.left_coeffs, table.residual_left
    assert table.left_coeffs is coeffs and table.residual_left == residual
    assert counted["inner"] == before

    # The expansion of the right (mirror) triangle, solved from scratch.
    right_pattern = mirror(triangle_pattern(st.model))
    want, want_residual = expand(st.model, right_pattern, st.basis, st.gram, st.tol)
    assert counted["inner"] == before + 14
    assert np.max(np.abs(coeffs - want)) <= 1e-12 * np.max(np.abs(want))
    assert abs(residual - want_residual) <= 1e-12
    assert residual < 1e-10


# On the warm corpus: the terms that enter FormalSum.normalized, and those
# whose invariant (free loops, vertex count, sum of label-key hashes)
# another term of their sum shares, which alone are keyed.
CORPUS_TERMS = 3418
CORPUS_SHARED = 1955


def test_only_the_terms_that_can_merge_are_keyed(model12, table12, triangle_rich, monkeypatch):
    for d in triangle_rich.values():
        skein.evaluate(d, model12, table12)  # warms the shape graph
    counts = {"terms": 0, "shared": 0, "keys": 0}
    depth = [0]
    canonical_key = skein.Diagram.canonical_key
    normalized = skein.FormalSum.normalized

    def counting_key(self):
        counts["keys"] += depth[0] == 0  # a disconnected term keys its components too
        depth[0] += 1
        try:
            return canonical_key(self)
        finally:
            depth[0] -= 1

    def counting_normalized(self, *args, **kwargs):
        invariants = Counter(
            (d.free_loops, len(d.vertices), sum(hash(v.key) for v in d.vertices.values()))
            for _, d in self.terms
        )
        counts["terms"] += len(self.terms)
        counts["shared"] += sum(n for n in invariants.values() if n > 1)
        return normalized(self, *args, **kwargs)

    monkeypatch.setattr(skein.Diagram, "canonical_key", counting_key)
    monkeypatch.setattr(skein.FormalSum, "normalized", counting_normalized)
    for d in triangle_rich.values():
        skein.evaluate(d, model12, table12)
    assert counts["keys"] == counts["shared"] < counts["terms"]
    assert (counts["terms"], counts["shared"]) == (CORPUS_TERMS, CORPUS_SHARED)


def test_the_connector_walk_classifies_each_node_once(model12, table12, triangle_rich, monkeypatch):
    """Every edge delta of a cold engine run and of a chooser run on the
    corpus."""
    walk = skein.walk_connections
    totals = {"calls": 0, "nodes": 0, "asked": 0}

    def counting_walk(connections, is_connector):
        def counted(node):
            totals["asked"] += 1
            return is_connector(node)

        totals["calls"] += 1
        totals["nodes"] += len({node for pair in connections for node in pair})
        return walk(connections, counted)

    monkeypatch.setattr(skein, "walk_connections", counting_walk)
    for d in triangle_rich.values():
        skein.evaluate(d, model12, table12)
        skein.evaluate(d, model12, table12, chooser=skein.find_small_face)
    assert totals["calls"] > 1000
    assert totals["asked"] == totals["nodes"]
