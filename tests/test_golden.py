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
    ("classify", "depth3"): (0, "65f2a84c3c06bc95e755d0a62fe190735ebd515a652e6ececbade371b0aefd0e"),
    ("classify", "l12"): (0, "44cbc8dc9181463f86f4af20db6767a5ed54826811475c1466ab24fb268d0f74"),
    ("classify", "l100"): (0, "49ef3155198e05a5f810e213a700eb572f23926f0a4a9c2d25f692036f4b7990"),
    ("classify", "delta5"): (0, "65ec0eca7d478f32cd1498ea7add9f3257e9da6ffb5d1b6880f5b81a6bda184c"),
    ("classify", "delta11"): (0, "650f1f241eb33784284a61b5bc3d117256d94cde06afd944f2169d0585fd30db"),
    ("gram", "depth3"): (0, "b84d86203259567b13552b7343c8a84e0a1f2783e73b876991c9a482977f6f71"),
    ("gram", "l12"): (0, "8d6491967dae5ff9114a185f5d9734f3a8028af65eb54e44aa188eb741bd0cf7"),
    ("gram", "l100"): (0, "e9517693d8133d0f9d2a7af00c77fa626ef01b70beaec42117c7798bef23698c"),
    ("gram", "delta5"): (0, "d176ac79c82ec8d656f389e732bee747dbcdbee842f09d470766a7e2627145a5"),
    ("gram", "delta11"): (0, "b0b0d4ea44ebc968c6149fc5974a0811c10d880856efa2397fd6226c8fd07887"),
    ("ybe", "depth3"): (0, "7af7a088e71ad8c73af7f2c5a3d4f8ef48adf2927f5abea3933cafe811f4ac68"),
    ("ybe", "l12"): (0, "4f07b201a957e51d62832e2226482a77b9308cab933d4f75795d63d1f0c2be10"),
    ("ybe", "l100"): (0, "f78fd0e725463563d56db66f538f0f577e79f03933ee1147dce5e660532b423b"),
    ("ybe", "delta5"): (0, "5d30075d8aa29790cfd66fc9d6541cd3ac38b0b8079d60578486288153a67b44"),
    ("ybe", "delta11"): (0, "f00464418d32ac0c0f8da281c10bc3164f95d13c818ccdd2463a08be47ea7841"),
    ("ybe-perturbed", "depth3"): (1, "f17422c0105606d0da3bd4d56eaa001819b00b8207bb3f2f3136b42528f875e3"),
    ("ybe-perturbed", "l12"): (1, "e73f60e65a01d0f47968ec9e830beee4a6e06db6066276f33e3ab9557617d08b"),
    ("ybe-perturbed", "l100"): (1, "2fae137090278e7326091779f9625664fcfcd4360eb90e4ebbb6e601305ef0cc"),
    ("ybe-perturbed", "delta5"): (1, "87bf8c1010a7af454b79f0a6451bb39b08e4eb96801625bd39ef46611b0a778a"),
    ("ybe-perturbed", "delta11"): (1, "4177db52ba84c4cf68315e0d19273e960ccb156a70a824c290b4cc908f4769d0"),
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
    "octahedron-mixed": (0, "3336e1653caf8c9a564e354cb40a0d1f7360c5e05c4cb31cdf5d0487e81a266b"),
    "square_pyramid-mixed": (0, "be3adcd3b3717c0cf4306d03ddac47739834128979ba9d261ad9d978b5155772"),
    "triangular_prism-mixed": (0, "8c132873e0d10eb132b4c0c7e2a2e8dae57bba9586c9063b50ec99b9873766bd"),
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
