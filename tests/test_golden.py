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
    ("classify", "depth3"): (0, "887d2fff229ed5190afd185d000c8959b585ac7c803117297ed57aa9e3f7ff67"),
    ("classify", "l12"): (0, "78701215afcfd3fbe1f3cab6cec39f262466d00692e09d2eccc50f5865c5cd86"),
    ("classify", "l100"): (0, "2de0793a8cd28491b9bff1ae36d28fdf0d2c98a7e200c612ff59e5a8dfe5ad7f"),
    ("classify", "delta5"): (0, "b9f72fcf72d387b83f661af570e3750108d000174838c8750293b5b8c9adbeb9"),
    ("classify", "delta11"): (0, "21319d4efcd9e43bf9e21563a533bb74d4b6dc4ac63365586534dab3577aff03"),
    ("gram", "depth3"): (0, "48cda4cd3b30418cc7b4c8cba2a038266bb067563a1d2bbdc0857fc191b897e3"),
    ("gram", "l12"): (0, "21955789b3d947968fe4dda15db4e58d77e924897e063aeb383d99d4a33d3bce"),
    ("gram", "l100"): (0, "e9517693d8133d0f9d2a7af00c77fa626ef01b70beaec42117c7798bef23698c"),
    ("gram", "delta5"): (0, "ae2e611d747e7da853f96c088a8b40d239bee4aa306565dea47f5db5b20b62fb"),
    ("gram", "delta11"): (0, "3af9793c437cff5be7da381d18842ca94e01fd9739e250592a33fb8913c0b9a6"),
    ("ybe", "depth3"): (0, "d8ecaf03bd446adebb2bfda6eb7a2151adc1f22d6fb1effe246f8b017b56243a"),
    ("ybe", "l12"): (0, "f13cd95a90c467bb696b82d7ff82fa5279f9f3d77fdc07543ea967e1d4a6d92f"),
    ("ybe", "l100"): (0, "3a49a7b61ca9ed949ce7db6e9d9a757bed389e0c672cbbf43cc0f9492a95072b"),
    ("ybe", "delta5"): (0, "7e74c5e7ea2fe9e847a15e782a93864ba9833635ca4d8349280604570a7a5282"),
    ("ybe", "delta11"): (0, "7471d71aee5ff87c4e6bc994a247226e5fe57e3823e8c691125e5b7f5fe89851"),
    ("ybe-perturbed", "depth3"): (1, "9a533f2928f957cfc2036cc94250db25ff205fb6dd781361c7f9674f175aeba1"),
    ("ybe-perturbed", "l12"): (1, "e66cd9d57d551f13af28028966fdcdd9c3053a98c56fa0a577bc81b89ab16781"),
    ("ybe-perturbed", "l100"): (1, "60b106f54f043e5b7c6d7cfa05bc2d33251ae7d410bbee4da9b9a367d5781395"),
    ("ybe-perturbed", "delta5"): (1, "c05db8a74558471b2de0a55f18afeca5defde4c0d4e9c7a2fed5183f524f43f3"),
    ("ybe-perturbed", "delta11"): (1, "8966904d5a4e41e056cc4ec70d26b6f49019d95530ed7ba2fb26c48996796352"),
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
    "octahedron-tied": (0, "99d8c70f06191ec6eb6aa0822c7e65cb694e4f93096a6a36f2d34841fad1b453"),
    "octahedron-mixed": (0, "59d8e0b52bf71c1112fcb7ea9b7d70ac9d9722c4d7ef19913b3c77c3cea3f06c"),
    "square_pyramid-mixed": (0, "be3adcd3b3717c0cf4306d03ddac47739834128979ba9d261ad9d978b5155772"),
    "triangular_prism-mixed": (0, "e63d57bf0e118e0e2d75d2421671a82d4b57e404770a59e7a5156e8fea896bfb"),
    "self-loops": (0, "935d9ef09531ca2cdf785e999c950680c968edc78df3448f7ecac1974b3fcd70"),
    "disconnected": (0, "250ddbbe5e9bb7d2a2b37597144fb033b98c1583b76b882986bce8d184e1b603"),
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
