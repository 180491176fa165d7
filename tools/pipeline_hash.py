"""Hashes of the float pipeline's outputs, to show that a change keeps them
bit for bit.  Run it from a checkout, before and after the change:

    python tools/pipeline_hash.py

It prints two lines, each `<inputs> <sha256>`:

  * the pipeline hash, over DEPTH3_DELTA, delta_for_l(l) for even l in
    12..200, np.geomspace(4, 1e6, 600), 4 + 1e-12 and 1e78: per loop value
    in that order, `repr(classify(delta))`, the braid residuals of a fresh
    `Stages(delta)` at q scaled by 1.01 and by 1 + 1e-7 (or the
    SkeinlabError's type and text), and the bytes of its Gram entries and
    triangle table (or the SkeinlabError's repr);
  * the engine hash, at l = 12, delta = 5, depth 3 and delta = 11: per
    locus, `evaluate` with the triangle table on the medial graphs of
    `perfbench/diagrams.py` (every vertex labelled by the generator, then
    the four of at most 9 vertices with the generator on even vertices
    and seeded normal labels on odd ones, each of these four also with
    `chooser=find_small_face`, which runs on nodes of its own and not on
    the shape graph), `inner` on every pair of basis patterns, and
    `expand(triangle_pattern)`.

Equal hashes on two commits mean equal verdicts, residuals, notes and raw
float bits at every input.
"""

from __future__ import annotations

import hashlib
import runpy
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from skeinlab import (  # noqa: E402
    DEPTH3_DELTA,
    Diagram,
    Stages,
    Vertex,
    classify,
    delta_for_l,
    enumerate_basis,
    evaluate,
    find_small_face,
    inner,
    triangle_pattern,
)
from skeinlab.errors import SkeinlabError  # noqa: E402
from skeinlab.threebox import expand  # noqa: E402

PIPELINE_DELTAS = (
    DEPTH3_DELTA,
    *(delta_for_l(l) for l in range(12, 201, 2)),
    *np.geomspace(4.0, 1e6, 600),
    4.0 + 1e-12,
    1e78,
)
ENGINE_DELTAS = (delta_for_l(12), 5.0, DEPTH3_DELTA, 11.0)
MIXED_MAX_VERTICES = 9


def pipeline_hash(deltas=PIPELINE_DELTAS) -> tuple[int, str]:
    """(inputs, sha256) of the pipeline's outputs at each loop value."""
    h = hashlib.sha256()
    for delta in deltas:
        delta = float(delta)
        h.update(repr(classify(delta)).encode())
        st = Stages(delta)
        for factor in (1.01, 1.0 + 1e-7):
            try:
                out = repr(st.braid_residuals(st.perturbed_braid(factor)))
            except SkeinlabError as e:
                out = f"{type(e).__name__}: {e}"
            h.update(out.encode())
        try:
            h.update(st.gram.entries.tobytes() + st.table.left_coeffs.tobytes())
        except SkeinlabError as e:
            h.update(repr(e).encode())
    return len(deltas), h.hexdigest()


def _medial(n: int, pairs, labels) -> Diagram:
    d = Diagram({v: Vertex(tuple(labels[v])) for v in range(n)}, {})
    for a, b in pairs:
        d.add_edge(a, b)
    return d.infer_shading()


def engine_hash(deltas=ENGINE_DELTAS) -> tuple[int, str]:
    """(inputs, sha256) of the skein engine's values at each locus."""
    diagrams = runpy.run_path(str(ROOT / "perfbench" / "diagrams.py"))
    maps = [diagrams["medial_map"](name) for name in diagrams["POLYHEDRA"]]
    h = hashlib.sha256()

    def put(value) -> None:
        h.update(np.asarray(value, dtype=complex).tobytes())

    for delta in deltas:
        st = Stages(delta)
        model, table = st.model, st.table
        g = table.generator
        rng = np.random.default_rng(7)
        for n, pairs in maps:
            put(evaluate(_medial(n, pairs, [g] * n), model, table))
        for n, pairs in maps:
            if n <= MIXED_MAX_VERTICES:
                labels = [g if v % 2 == 0 else tuple(rng.normal(size=3)) for v in range(n)]
                d = _medial(n, pairs, labels)
                put(evaluate(d, model, table))
                put(evaluate(d, model, table, chooser=find_small_face))
        basis = enumerate_basis(model)
        put([[inner(model, x, y) for y in basis] for x in basis])
        c, residual = expand(model, triangle_pattern(model), st.gram)
        put(c)
        put(residual)
    return len(deltas), h.hexdigest()


def main() -> None:
    for count, digest in (pipeline_hash(), engine_hash()):
        print(count, digest)


if __name__ == "__main__":
    main()
