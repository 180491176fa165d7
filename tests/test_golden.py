"""Golden reports: the sha256 of stdout and the exit code of each command.

`classify`, `gram` and `ybe` at the fixture loci take the plan path: they
reduce every closed diagram through `skein._plan`/`_compile`/`_run`,
which read no label keys, so a change to the FormalSum engine's keys or merging must
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
    ("classify", "depth3"): (0, "41f042c2dfce1c9ad2e6a077ffe6ac987dbb46ed117e05997c8bc71d01eb4726"),
    ("classify", "l12"): (0, "dc89f92bcd64629e0a34d3dd575d4349fbff3cc84e4a8ab9ee7c8ab25692f2c0"),
    ("classify", "l100"): (0, "45e45d467764ef497e828a07cc699911a275f47b2a4373025e84d77963f34611"),
    ("classify", "delta5"): (0, "9e71e9d470b2c33dafd56effea07fb47ea8906fc829b1558156628f318ffce9a"),
    ("classify", "delta11"): (0, "e9c254b28b516960b693713b2061e7ab6b34e589468e5e7f1fffe16b046595a3"),
    ("gram", "depth3"): (0, "b84d86203259567b13552b7343c8a84e0a1f2783e73b876991c9a482977f6f71"),
    ("gram", "l12"): (0, "8d6491967dae5ff9114a185f5d9734f3a8028af65eb54e44aa188eb741bd0cf7"),
    ("gram", "l100"): (0, "e9517693d8133d0f9d2a7af00c77fa626ef01b70beaec42117c7798bef23698c"),
    ("gram", "delta5"): (0, "d176ac79c82ec8d656f389e732bee747dbcdbee842f09d470766a7e2627145a5"),
    ("gram", "delta11"): (0, "b0b0d4ea44ebc968c6149fc5974a0811c10d880856efa2397fd6226c8fd07887"),
    ("ybe", "depth3"): (0, "e885ca9d04328c441efd4588a70f0ae6140be3fe2076cc5fd468b51443d23e22"),
    ("ybe", "l12"): (0, "731292ed9897fc6f1cee8e14966217c0489615e305bc7ab82d35361bbc9dd96d"),
    ("ybe", "l100"): (0, "22bb033566801994f57b051991a93e8625f4536f3271201742f9c258f063f14a"),
    ("ybe", "delta5"): (0, "bda006f6ca387e196c327c1c651879507154c440cc372362fa417ca558a08e96"),
    ("ybe", "delta11"): (0, "72f9f1cbded85ee17f9321902a9e21fb0c29ffa6145585b84156c34c71ba00e8"),
    ("ybe-perturbed", "depth3"): (1, "bab36d00a5fe8f6089896d6fd98744a92fb4fdcc8e39e73746a54b06229a8d85"),
    ("ybe-perturbed", "l12"): (1, "a55e4e52d20aea193653e958342e2160a96efe15695919b0f5113a5641c2339c"),
    ("ybe-perturbed", "l100"): (1, "6734d2086b4e393ab8e5156b41f6508332bc7f860c2de5193631bc53b8ab9ac1"),
    ("ybe-perturbed", "delta5"): (1, "810b5b575477ad46155d5104cf7661a1fcaa79fe35402c1481e356cb8a9d2309"),
    ("ybe-perturbed", "delta11"): (1, "25b6eb97262f038dc6408238084f5558e0f6cdc48332a0b7fe19af226bd54fdb"),
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
    "octahedron-tied": (0, "96fd179ae953f1da254fb0fd285987f149e67f2c9eff837cfe522eb41d5c68d5"),
    "octahedron-mixed": (0, "59d8e0b52bf71c1112fcb7ea9b7d70ac9d9722c4d7ef19913b3c77c3cea3f06c"),
    "square_pyramid-mixed": (0, "c1ed95d52b5234761e1cc0f9d7ed338b639474d4c77af6d9f133f22b19bd90bd"),
    "triangular_prism-mixed": (0, "e63d57bf0e118e0e2d75d2421671a82d4b57e404770a59e7a5156e8fea896bfb"),
    "self-loops": (0, "935d9ef09531ca2cdf785e999c950680c968edc78df3448f7ecac1974b3fcd70"),
    "disconnected": (0, "1ba4f7b01515aa4db32fafc8d1a9424089e62b2c0721762d289c0e9affe3c459"),
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
