"""Pins on the work one classification does.  Every closure shape is
validated once, when its plan is compiled.  The Gram matrix, the 3-gon
and the two sides of the Yang-Baxter equation are each paired with the
basis by one program of one closure per rotation orbit of pairs (40, 6
and 14), which computes every distinct cap, rotation and fusion once, so
a classification makes no `inner` call and labels no basis pattern, and
builds each closure once, when its program is compiled.  The Yang-Baxter
residual reads the Gram matrix, so a classification and a `ybe` report
run two programs, the Gram matrix's and side A's, and never solve the
triangle table; `evaluate` solves it once, for a diagram with a 3-gon.  A
PASS classification makes one eigendecomposition, of the scaled Gram
matrix, and one solve, of both Yang-Baxter sides, and a Gram report two
eigendecompositions, the scaled and the raw spectrum.
The FormalSum engine evaluates a diagram again without redoing the shape
half of any rewrite, under any triangle table, keys only the terms that
can merge, and its connector walk asks once per node whether the node is
a connector."""

import contextlib
import importlib
import io
import json
from collections import Counter

import numpy as np
import pytest

from helpers import octahedron_diagram
from skeinlab import classify, delta_for_l, shapes, skein, threebox
from skeinlab.classify import Stages
from skeinlab.cli import main
from skeinlab.threebox import expand, mirror, triangle_pattern

# skeinlab.classify is the function; the module is only in sys.modules.
classify_mod = importlib.import_module("skeinlab.classify")

# 40 rotation orbits of Gram entries, 6 orbits of two turns for the
# triangle table and 14 basis patterns for side A of the Yang-Baxter
# equation (side B's pairings are side A's turned three clicks), run as
# three programs; each pairs a different closure shape.  A classification
# runs the Gram matrix's and side A's, 54 closures in two programs.
GRAM_CLOSURES, TRIANGLE_CLOSURES, SIDE_A_CLOSURES = 40, 6, 14
CLOSURES_PER_PASS = GRAM_CLOSURES + SIDE_A_CLOSURES
PROGRAMS_PER_PASS = 2

# (nodes, chain steps) of each program.  The plans of the Gram matrix's
# and the 3-gon's 46 closures make 57 caps, 33 fusions and 44 odd
# rotations, 134 operations of which the 52 nodes are the distinct ones,
# and side A's 14 make 22, 32 and 43, 97 operations in 52 nodes; the
# chains keep the 104 and 36 plan steps that change a coefficient, by a
# cap or a loop factor.
GRAM_PROGRAM = (31, 88)
TRIANGLE_PROGRAM = (21, 16)
SIDE_A_PROGRAM = (52, 36)
# The x-side shapes of the three programs: the basis, the 3-gon, and the
# two sides of the Yang-Baxter equation.
PROGRAMS = (threebox._basis_shapes()[0], threebox._TRIANGLE_SHAPES, threebox._BRAID_SHAPES)


@pytest.fixture
def counted(monkeypatch):
    """Records the diagrams handed to evaluate_detailed and validate, and
    counts inner calls, closures built and patterns labelled by anything
    but the placeholder label."""
    seen = {"evaluated": [], "validated": [], "inner": 0, "closures": 0, "labelled": 0}
    evaluate_detailed = skein.evaluate_detailed
    validate = skein.Diagram.validate
    inner, closure, labelled = threebox.inner, threebox.closure, threebox._labelled

    def counting_evaluate(d, *args, **kwargs):
        seen["evaluated"].append(d)
        return evaluate_detailed(d, *args, **kwargs)

    def counting_validate(self, *args, **kwargs):
        seen["validated"].append(self)
        return validate(self, *args, **kwargs)

    def counting_inner(model, x, y, *args, **kwargs):
        seen["inner"] += 1
        return inner(model, x, y, *args, **kwargs)

    def counting_closure(x, y):
        seen["closures"] += 1
        return closure(x, y)

    def counting_labelled(shape, coeffs):
        seen["labelled"] += coeffs != threebox.ZERO
        return labelled(shape, coeffs)

    monkeypatch.setattr(skein, "evaluate_detailed", counting_evaluate)
    monkeypatch.setattr(skein.Diagram, "validate", counting_validate)
    monkeypatch.setattr(threebox, "inner", counting_inner)
    monkeypatch.setattr(threebox, "closure", counting_closure)
    monkeypatch.setattr(threebox, "_labelled", counting_labelled)
    return seen


@pytest.fixture
def triangle_solves(monkeypatch):
    """Counts the calls of solve_triangle, by which `Stages.table` solves
    the triangle table."""
    calls = []
    solve_triangle = threebox.solve_triangle

    def counting(*args, **kwargs):
        calls.append(args)
        return solve_triangle(*args, **kwargs)

    monkeypatch.setattr(threebox, "solve_triangle", counting)
    monkeypatch.setattr(classify_mod, "solve_triangle", counting)
    return calls


def programs_built():
    return threebox._pairing_program.cache_info().misses


def test_classify_validates_every_evaluated_diagram_once(counted):
    threebox._pairing_program.cache_clear()
    res = classify(5.0)
    assert res.verdict == "PASS"
    assert counted["inner"] == counted["labelled"] == 0
    assert counted["evaluated"] == []
    assert counted["closures"] == len(counted["validated"]) == CLOSURES_PER_PASS
    assert programs_built() == PROGRAMS_PER_PASS

    # A second classification runs the cached programs and builds,
    # compiles and validates nothing.
    counted["validated"].clear()
    assert classify(5.0).verdict == "PASS"
    assert counted["inner"] == counted["labelled"] == 0
    assert counted["evaluated"] == counted["validated"] == []
    assert counted["closures"] == CLOSURES_PER_PASS
    assert programs_built() == PROGRAMS_PER_PASS


def test_classify_and_ybe_never_solve_the_triangle_table(triangle_solves, monkeypatch):
    """The Yang-Baxter residual reads the Gram matrix: one solve, of both
    sides, and no triangle table, in `classify` and in a `ybe` report."""
    calls = _count_linalg(monkeypatch, ("solve",))
    assert classify(5.0).verdict == "PASS"
    assert triangle_solves == [] and calls == {"solve": [(14, 14)]}
    calls["solve"].clear()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["ybe", "--l", "12"]) == 0
    assert triangle_solves == [] and calls == {"solve": [(14, 14)]}


def test_evaluate_solves_the_table_only_at_a_3_gon(triangle_solves, model12, tmp_path):
    """A `skeinlab evaluate` of the octahedron, all 3-gons, solves the
    triangle table once; one of a triangle-free diagram, the 4-vertex
    closure of the last basis pattern with itself, never does."""
    octa = octahedron_diagram([(0.0, 1.0, 0.0)] * 6)
    last = threebox.enumerate_basis(model12)[-1]
    free = threebox.closure(last, last)
    for d, solves in ((free, 0), (octa, 1)):
        doc = {
            "vertices": [{"id": v, "label": "G"} for v in d.vertices],
            "edges": [[list(a), list(b)] for a, b in d.edges.items() if a < b],
        }
        path = tmp_path / "d.json"
        path.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["evaluate", "--diagram", str(path), "--l", "12"]) == 0
        assert len(triangle_solves) == solves


def test_evaluate_labels_no_basis_pattern(counted, triangle_rich):
    """The 3-gon substitution wires the label-free basis shapes and labels
    each new vertex with the table's generator."""
    st = Stages(delta_for_l(12))
    table = st.table
    for d in triangle_rich.values():
        skein.evaluate(d, st.model, table)
    assert counted["labelled"] == 0
    assert shapes.graph.cache_info().misses > 0


def stored_records() -> set:
    """Where each record of the shape graph sits: the root's shape, then the
    rewrite taken at each node on the way (a 1-gon or 2-gon, a 3-gon choice
    k, or the table pattern i of the all-T choice)."""
    out, stack = set(), [((shape,), node) for shape, node in shapes.graph.roots.items()]
    while stack:
        path, node = stack.pop()
        if isinstance(node, shapes.Small):
            slots = [("small", node.delta, node.next)]
        elif node is not None:
            slots = [(k, *kid) for k, kid in enumerate(zip(node.codes, node.nodes))]
            slots += [("pattern", i, *kid) for i, kid in enumerate(zip(*node.table or ((), ())))]
        else:
            slots = []
        for *at, record, child in slots:
            if record is not None:
                out.add(path + tuple(at))
                stack.append((path + tuple(at), child))
    return out


def test_one_shape_graph_serves_every_triangle_table(triangle_rich):
    """The 3-gon-rich corpus evaluated with the l = 12 table and then with
    the delta = 5 table: the second pass stores a record only where the
    first stored none, and its values are bit for bit those of a cold
    graph.  The delta = 5 values reach rewrites that the l = 12 pass never
    takes (its tied labels are pure T, and terms cancel), so some records
    are new; the 3-gon records of every shared node are reused."""
    l12, delta5 = Stages(delta_for_l(12)), Stages(5.0)
    corpus = list(triangle_rich.values())
    for d in corpus:
        skein.evaluate(d, l12.model, l12.table)
    first, stored = stored_records(), shapes.graph.cache_info().misses
    assert len(first) == stored
    warm = [skein.evaluate(d, delta5.model, delta5.table) for d in corpus]
    new = shapes.graph.cache_info().misses - stored
    shapes.graph.cache_clear()
    cold = [skein.evaluate(d, delta5.model, delta5.table) for d in corpus]
    assert np.array(warm).tobytes() == np.array(cold).tobytes()
    reused = stored_records() & first
    assert new == shapes.graph.cache_info().misses - len(reused)
    assert any(path[-2] == "pattern" for path in reused)


def test_the_programs_keep_each_cap_rotation_and_fusion_once():
    for xs, closures, size in zip(
        PROGRAMS,
        (GRAM_CLOSURES, TRIANGLE_CLOSURES, SIDE_A_CLOSURES),
        (GRAM_PROGRAM, TRIANGLE_PROGRAM, SIDE_A_PROGRAM),
    ):
        program = threebox._pairing_program(xs)[0]
        assert len(program.chains) == closures
        assert len(set(program.nodes)) == len(program.nodes)
        assert (len(program.nodes), sum(map(len, program.chains))) == size


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


def test_the_table_and_the_braid_sides_take_20_closures(counted):
    """On a cold program cache the braid sides build the 14 closures of
    their program and the table, read later, the 6 of its own; neither
    makes an inner call."""
    threebox._pairing_program.cache_clear()
    st = Stages(5.0)
    st.gram
    assert counted["closures"] == GRAM_CLOSURES
    st.braid_residuals(st.braid)
    assert counted["inner"] == 0
    assert counted["closures"] == CLOSURES_PER_PASS
    st.table
    assert counted["inner"] == 0
    assert counted["closures"] == CLOSURES_PER_PASS + TRIANGLE_CLOSURES


def _count_linalg(monkeypatch, names):
    """Shapes of the first argument of each call to np.linalg.<name>."""
    calls = {name: [] for name in names}
    for name in names:
        def counting(*args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
            calls[_name].append(args[0].shape)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return calls


def test_classify_computes_one_eigendecomposition(monkeypatch):
    calls = _count_linalg(monkeypatch, ("svd", "lstsq", "eigvalsh", "solve"))
    assert classify(5.0).verdict == "PASS"
    # One solve, for both Yang-Baxter sides; no triangle table.
    assert calls == {"svd": [], "lstsq": [], "eigvalsh": [(14, 14)], "solve": [(14, 14)]}


def test_gram_report_computes_the_eigenvalues_once(monkeypatch):
    """Each spectrum once: the scaled one for rank and PSD defect, the raw
    one for the report's eigenvalues."""
    calls = _count_linalg(monkeypatch, ("svd", "eigvalsh"))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gram", "--l", "12"]) == 0
    assert calls == {"svd": [], "eigvalsh": [(14, 14), (14, 14)]}


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
    want, want_residual = expand(st.model, right_pattern, st.gram, st.tol)
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
