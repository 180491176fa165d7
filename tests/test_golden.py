"""Golden reports: the sha256 of stdout and the exit code of each command.

`classify`, `gram` and `ybe` at the fixture loci take the plan path: they
reduce every closed diagram through `skein._plan`/`_compile`/`_run`,
which read no label keys and drop nothing, so a change to the FormalSum
engine's keys, merging or zero drop must leave these bytes as they are,
and none of them prints a -0.0.  `evaluate --l 12` on 3-gon-rich diagram
files takes the engine path: 3-gon expansion, substitution of the
triangle table (which the plan path solves) and the shape graph, so a
change to how the engine builds its terms must leave those bytes as they
are."""

import contextlib
import hashlib
import io
import json
import math

import pytest

from helpers import (
    coproduct_product_trace_closure,
    coproduct_trace_closure,
    disjoint_union,
    medial_diagram,
    octahedron_diagram,
    rotated_trace_closure,
    trace_closure,
)
from skeinlab.cli import main

LOCI = {
    "depth3": ("--depth3",),
    "l12": ("--l", "12"),
    "l100": ("--l", "100"),
    "delta5": ("--delta", "5"),
    "delta11": ("--delta", "11"),
}
COMMANDS = {
    "classify": ("classify",),
    "gram": ("gram",),
    "ybe": ("ybe",),
    "ybe-perturbed": ("ybe", "--perturb-q", "1.01"),
}

# (exit code, sha256 of stdout) by (command, locus).
GOLDEN = {
    ("classify", "depth3"): (0, "cfbb925885503fbabc8ab7840f724f6333ad79aafc9668fb207fce748df97121"),
    ("classify", "l12"): (0, "c2ade9ebe2964874f5bb9f8ec5c84897f48683272c5527dbd8c17bc0d45ec1bf"),
    ("classify", "l100"): (0, "0f682614900352aec427cf28a41fcc239f24765b9cdc3fd59be8103b8592a85b"),
    ("classify", "delta5"): (0, "89f35a046af6f9396ac96735a15f5e9d1ba8a34cef09110c13df62d6f170dc96"),
    ("classify", "delta11"): (0, "fbc8e23d5c12a39c56c9d8e7fe9f5bf4126f18b8b47b219f37f5dc2bff9c6a07"),
    ("gram", "depth3"): (0, "ca8395cb5c54938b2c86777cefb81993f6faf42ed498deb23d552166b5458534"),
    ("gram", "l12"): (0, "21a4d4150579253dca46e1d2fb21a02a249ef56b2f9df759a554a733f788de90"),
    ("gram", "l100"): (0, "e51f0f0ba877e3de2b9c010aa048920e1d367bd5e1a31fed7d2030fd9936b777"),
    ("gram", "delta5"): (0, "fe9200994b7550bd6f40a8b0426aa8da7b85fbb05710fdefc2aefc64cd2767c0"),
    ("gram", "delta11"): (0, "50f5bd70d21f353742921aa39ae65ab8717da1f2d0677e66a08c3f73ee6d5cea"),
    ("ybe", "depth3"): (0, "864a43e690b1a7b9aa3e25798817de8ea60b0e9cf7660aecfafd00437a03c5c3"),
    ("ybe", "l12"): (0, "b4b22c94a4233cc7270887dfb9bbbdb2cf2fb442614a152e6d29bcee7658b0b8"),
    ("ybe", "l100"): (0, "6c569b8b494309d8bb3450add1d1e51c97860bc02de475ba56e1894827b4dc76"),
    ("ybe", "delta5"): (0, "4725ced5939a878ad71b2fb47f2d65ed9654a37b8ea6896c5456debc8c045005"),
    ("ybe", "delta11"): (0, "bca223460377bb5889fcdcaca3df2ce8c35cd29be3a51e048f16dacaa8d361d2"),
    ("ybe-perturbed", "depth3"): (1, "19c979dfdcad6b4d2587df55e62bf9dcf435dff48666aac0da12c14b20e41c2c"),
    ("ybe-perturbed", "l12"): (1, "ec865c5a5bb589fcef994073506f3c30a69eb837cae9a84dde3b2ea0785a9931"),
    ("ybe-perturbed", "l100"): (1, "fadcf437ceb2125e1fe03fd312495cecc7303c0c2ded4513aa2533d20b6055f9"),
    ("ybe-perturbed", "delta5"): (1, "a60a2b7bd64164fd28916d8fa1875497938efdd1c1d6867e993e550986de294e"),
    ("ybe-perturbed", "delta11"): (1, "f1ac91634571fafeca69bbe0547e0d3589d240a2e4acb3d014f0deb6d8ea23d0"),
}


@pytest.mark.parametrize("command, locus", list(GOLDEN), ids=[f"{c}-{l}" for c, l in GOLDEN])
def test_plan_path_reports_are_golden(command, locus):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*COMMANDS[command], *LOCI[locus]])
    assert (code, hashlib.sha256(out.getvalue().encode()).hexdigest()) == GOLDEN[command, locus]


def _negative_zeros(node, path=""):
    """The paths of the -0.0 floats in a parsed JSON report."""
    if isinstance(node, dict):
        return [p for k, v in node.items() for p in _negative_zeros(v, f"{path}.{k}")]
    if isinstance(node, list):
        return [p for k, v in enumerate(node) for p in _negative_zeros(v, f"{path}[{k}]")]
    return [path] if isinstance(node, float) and node == 0 and math.copysign(1.0, node) < 0 else []


@pytest.mark.parametrize("locus", list(LOCI))
def test_no_plan_path_report_prints_a_negative_zero(locus):
    for command in ("classify", "gram", "ybe"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            main([command, *LOCI[locus]])
        assert _negative_zeros(json.loads(out.getvalue())) == [], command


def _generic(v):
    """A fixed label with no special structure for vertex v."""
    return (0.5 + 0.25 * v, -1.0 + 0.125 * v, 0.75 - 0.375 * v)


def _engine_diagrams():
    """3-gon-rich diagrams by name, each with the vertex ids labelled "G"
    (the generator) in its file; every other vertex keeps its `_generic`
    label."""
    labels = [_generic(v) for v in range(9)]
    x, y, z, w = labels[:4]
    return {
        "octahedron-tied": (octahedron_diagram(labels), range(6)),
        "octahedron-mixed": (octahedron_diagram(labels), range(0, 6, 2)),
        "square_pyramid-mixed": (medial_diagram("square_pyramid", labels), range(0, 8, 2)),
        "triangular_prism-mixed": (medial_diagram("triangular_prism", labels), range(1, 9, 2)),
        "self-loops": (
            disjoint_union(trace_closure(x), rotated_trace_closure(y), coproduct_trace_closure(z, w)),
            (),
        ),
        "disconnected": (
            disjoint_union(
                octahedron_diagram(labels),
                coproduct_product_trace_closure(x, y, z),
                trace_closure(w),
                free_loops=2,
            ),
            (0, 1, 2, 3, 4, 5, 6, 7),
        ),
    }


def _write_diagram(path, d, generators):
    doc = {
        "free_loops": d.free_loops,
        "vertices": [
            {"id": v, "label": "G" if v in generators else [c.real for c in x.coeffs]}
            for v, x in d.vertices.items()
        ],
        "edges": [[list(a), list(b)] for a, b in d.edges.items() if a < b],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


# (exit code, sha256 of stdout) of `evaluate --l 12` by diagram file.
GOLDEN_EVALUATE = {
    "octahedron-tied": (0, "ebddc0050c22c52d526a987cadda849acabf9193fe37fe173d46b1314a868ad3"),
    "octahedron-mixed": (0, "3acc6d1df11c3dbac89bd18c8ec1c94b463bb930b6f9888b9adb0795fb5383ba"),
    "square_pyramid-mixed": (0, "1a81dab746a138313aa99cb56930964cdd83f128c9fc56b948ec76a92da0f5e6"),
    "triangular_prism-mixed": (0, "cf27073eee350f848354a59ba0cc837261550e2c2ce0b7c29b99df14080d71d8"),
    "self-loops": (0, "935d9ef09531ca2cdf785e999c950680c968edc78df3448f7ecac1974b3fcd70"),
    "disconnected": (0, "cfc7be8f8ed87aaa9961bd07f19b499b24cb19c834847d390ea7cfff13a36873"),
}


@pytest.mark.parametrize("name", list(_engine_diagrams()))
def test_engine_path_reports_are_golden(monkeypatch, tmp_path, name):
    monkeypatch.chdir(tmp_path)  # the report names the file as given
    d, generators = _engine_diagrams()[name]
    _write_diagram(f"{name}.json", d, set(generators))
    # The first run computes every rewrite on a cold shape graph, the
    # second rebuilds them from its records.
    for _ in range(2):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["evaluate", "--diagram", f"{name}.json", "--l", "12"])
        assert (code, hashlib.sha256(out.getvalue().encode()).hexdigest()) == GOLDEN_EVALUATE[name]
