"""Golden reports: the sha256 of stdout and the exit code of each command.

`classify`, `gram` and `ybe` at the fixture loci take the plan path: they
reduce every closed diagram through `skein._plan`/`_replay`, which read no
label keys, so a change to the FormalSum engine's keys or merging must
leave these bytes as they are.  `evaluate --l 12` on 3-gon-rich diagram
files takes the engine path: 3-gon expansion, triangle-table substitution
and the shape graph, so a change to how the engine builds its terms must
leave those bytes as they are."""

import contextlib
import hashlib
import io
import json

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
    ("classify", "depth3"): (0, "e92bb4e6265b91cc3adbc7793382a8304bdcdabffa5b5f5a52fd053e5c4da7db"),
    ("classify", "l12"): (0, "ba6c61a57b5a53422a79cb86b2d6f12fcebe493ede9b3268bd678b7a0e964917"),
    ("classify", "l100"): (0, "1fee89046e2120f8f627af2ca83933f79afb7915fa04dd874ed4d8d594157f68"),
    ("classify", "delta5"): (0, "a162fe698d2f2d98383c11fcb6ae5a3e232a6a5460be9e033b5142cd89f9035a"),
    ("classify", "delta11"): (0, "25240d7639333dcad826c2b9445ed7478d4e4b7bccb47b07ed43c6835caf8016"),
    ("gram", "depth3"): (0, "b84d86203259567b13552b7343c8a84e0a1f2783e73b876991c9a482977f6f71"),
    ("gram", "l12"): (0, "8d6491967dae5ff9114a185f5d9734f3a8028af65eb54e44aa188eb741bd0cf7"),
    ("gram", "l100"): (0, "e9517693d8133d0f9d2a7af00c77fa626ef01b70beaec42117c7798bef23698c"),
    ("gram", "delta5"): (0, "d176ac79c82ec8d656f389e732bee747dbcdbee842f09d470766a7e2627145a5"),
    ("gram", "delta11"): (0, "b0b0d4ea44ebc968c6149fc5974a0811c10d880856efa2397fd6226c8fd07887"),
    ("ybe", "depth3"): (0, "68b6cbc11332cb678c91c3d18c6e917ad981e6f4fd541baa5d51fddc40863ffe"),
    ("ybe", "l12"): (0, "6cdb29e7864f8a527766fcf929fc36eabc72b5f5d234ea0a17e4d851142c1178"),
    ("ybe", "l100"): (0, "9bd270ae5fcd8e734aa841626c5f073675364b008fdc34e9b8f684303c2579e8"),
    ("ybe", "delta5"): (0, "5857db7eb3304a9363a690866c5b5f5e57885e8e4a466030bc1a0d1d2a8debbd"),
    ("ybe", "delta11"): (0, "3df211dc689af60a0c729dfe671c590cedf2b0e81e34e938c203bade5596c80d"),
    ("ybe-perturbed", "depth3"): (1, "632f9a11c1abea923feb7e1f196e6706515c8c320d0a51fdd4d8acf05442182f"),
    ("ybe-perturbed", "l12"): (1, "95841804f90f0e37f8ab3d7a80b16fa12a3c1ecd017deec4b9ba7cf85a3e1f1c"),
    ("ybe-perturbed", "l100"): (1, "fdfc77be1fb0b8a8dd7cdd76d95ae7871377c167d132fb95a28d469b68db4df5"),
    ("ybe-perturbed", "delta5"): (1, "74801ee2317cb0fb4368c928093f864ed87c7f9c081b94ae4af9cadbfefd4947"),
    ("ybe-perturbed", "delta11"): (1, "e6f792da46aa33d7542a81b7790f5405fca1149b587e30810a05a15d7ef1b866"),
}


@pytest.mark.parametrize("command, locus", list(GOLDEN), ids=[f"{c}-{l}" for c, l in GOLDEN])
def test_plan_path_reports_are_golden(monkeypatch, command, locus):
    monkeypatch.delenv("SKEINLAB_TOL", raising=False)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*COMMANDS[command], *LOCI[locus]])
    assert (code, hashlib.sha256(out.getvalue().encode()).hexdigest()) == GOLDEN[command, locus]


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
    "octahedron-tied": (0, "5bda15644c265b575915727c3fd3e330b17b412193fe1b7358775feff9a243c2"),
    "octahedron-mixed": (0, "59d8e0b52bf71c1112fcb7ea9b7d70ac9d9722c4d7ef19913b3c77c3cea3f06c"),
    "square_pyramid-mixed": (0, "b0e2ac09298ba6ef05611090efd5683ab7369b9191ce3429664a0748778506cf"),
    "triangular_prism-mixed": (0, "947358d9379d5bb6d1c8a1372cbb1e0d75b4488de44b7aca0573968b0283b5db"),
    "self-loops": (0, "935d9ef09531ca2cdf785e999c950680c968edc78df3448f7ecac1974b3fcd70"),
    "disconnected": (0, "a21c71c698b7949cca4e4f30c67be5a0da0c36d9e1863c3c74585bd162b7ffaf"),
}


@pytest.mark.parametrize("name", list(_engine_diagrams()))
def test_engine_path_reports_are_golden(monkeypatch, tmp_path, name):
    monkeypatch.delenv("SKEINLAB_TOL", raising=False)
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
