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
    ("classify", "depth3"): (0, "4f70b35cae834e02199d34032c5867836b7ca7358e3430c66377453b9540f0d6"),
    ("classify", "l12"): (0, "a0afe80c129c6ff2044ae5ea7745d2209162f0a1d80c295fda0b2807c5045891"),
    ("classify", "l100"): (0, "2de0793a8cd28491b9bff1ae36d28fdf0d2c98a7e200c612ff59e5a8dfe5ad7f"),
    ("classify", "delta5"): (0, "afd54fd341f337eb018ffbe1952463704a271ad16ab2daeac34c80f5931612e4"),
    ("classify", "delta11"): (0, "f554d567b3a3d32450e337b4d7db2eb13ed8866664a2f8782cebbc6db57d2973"),
    ("gram", "depth3"): (0, "b84d86203259567b13552b7343c8a84e0a1f2783e73b876991c9a482977f6f71"),
    ("gram", "l12"): (0, "8d6491967dae5ff9114a185f5d9734f3a8028af65eb54e44aa188eb741bd0cf7"),
    ("gram", "l100"): (0, "e9517693d8133d0f9d2a7af00c77fa626ef01b70beaec42117c7798bef23698c"),
    ("gram", "delta5"): (0, "d176ac79c82ec8d656f389e732bee747dbcdbee842f09d470766a7e2627145a5"),
    ("gram", "delta11"): (0, "b0b0d4ea44ebc968c6149fc5974a0811c10d880856efa2397fd6226c8fd07887"),
    ("ybe", "depth3"): (0, "7f34b6d21a3e8e4b8e228953bf03ad0c65525bbd2f682c5b6d432ecdef6533dc"),
    ("ybe", "l12"): (0, "8c48804c9260867b3fa85b93d5aa6d8c2c5028b212c599738753744c4ecedb25"),
    ("ybe", "l100"): (0, "3a49a7b61ca9ed949ce7db6e9d9a757bed389e0c672cbbf43cc0f9492a95072b"),
    ("ybe", "delta5"): (0, "64a6c23562f6bd1af34b545c5f700d72e4ea7e84c246f388239cabace5000f2a"),
    ("ybe", "delta11"): (0, "fe30d2891de6160d6df999d3499f7ad1765c4eb3681c2a2415acb08914321a4a"),
    ("ybe-perturbed", "depth3"): (1, "ba5433b8216573e47b6516f945cfa34ce61a16fddd12c128d25cd9f43805636d"),
    ("ybe-perturbed", "l12"): (1, "662de0cf55e90d807cc3f8eb091c7d111f98f6ff0876fe3c4528227627962acc"),
    ("ybe-perturbed", "l100"): (1, "60b106f54f043e5b7c6d7cfa05bc2d33251ae7d410bbee4da9b9a367d5781395"),
    ("ybe-perturbed", "delta5"): (1, "3821bda0e101735d28542290b3bde414623dddbff5f2719c61a527b340671d4d"),
    ("ybe-perturbed", "delta11"): (1, "4dc9e033dd5e349f10d24e50d0dc46d053ab3927bad116fbab0a0177b1437e7f"),
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
    "octahedron-tied": (0, "f0b7bd7c057da25fde0a0c454df3a2e3755369dffd714fc6e8808ece96bbe68d"),
    "octahedron-mixed": (0, "9e9ea9cd728189724736fcc4ff8d72c9d4babeea58778591e7e84027193cb5bc"),
    "square_pyramid-mixed": (0, "cf315bfafda9dde72408ac73211a7ddbaf75228c22ae11afcd46404b98bc9848"),
    "triangular_prism-mixed": (0, "31a32fec1eb2198966cad00522138330bdd8a8d5f34997827265eed1b7a884d9"),
    "self-loops": (0, "935d9ef09531ca2cdf785e999c950680c968edc78df3448f7ecac1974b3fcd70"),
    "disconnected": (0, "d395222ff921b4b8257e66d0a2f3dbb0cacca0026cd0e69012c2274a90dc3010"),
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
