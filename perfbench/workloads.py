"""The three workloads: seeded input cycles, the timed operation, and the
check of each answer against a reference that the timed code does not
produce.

A workload is a sequence of cycles, cycle(state, rng, k) -> inputs.  The
kinds of input in a cycle, their order and their shape are fixed; the seeded
rng draws the values.  A run measures whole cycles, so any two seeds give
the same mix and a run's medians do not move with the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import shutil
import tempfile

import diagrams
import oracle

REL_TOL = 1e-9  # agreement required between an answer and its reference


def _interleave(groups):
    """Merge lists so that each one is spread evenly over the result."""
    keyed = []
    for g, items in enumerate(groups):
        n = len(items)
        keyed.extend(((j + 0.5) / n, g, item) for j, item in enumerate(items))
    keyed.sort(key=lambda t: (t[0], t[1]))
    return [item for _, _, item in keyed]


def _close(got, want) -> bool:
    return abs(got - want) <= REL_TOL * max(1.0, abs(want))


def _other_order(sk, d, model, table, seed):
    """Evaluate d again, choosing at each step a seeded one among the
    smallest faces instead of the engine's first: the confluence check."""
    rng = random.Random(seed)

    def chooser(diag):
        faces = [f for f in diag.faces() if len(f) <= 3]
        smallest = min(len(f) for f in faces)
        faces = [f for f in faces if len(f) == smallest]
        return faces[rng.randrange(len(faces))]

    return sk.evaluate(d, model, table, chooser=chooser)


def _build(sk, n_vertices, pairs, labels):
    d = sk.Diagram({v: sk.Vertex(tuple(labels[v])) for v in range(n_vertices)}, {})
    for a, b in pairs:
        d.add_edge(a, b)
    return d.infer_shading()


# -- classify_locus -------------------------------------------------------


class ClassifyLocus:
    """classify(delta) over the locus and a minority of off-locus values."""

    name = "classify_locus"
    # Per cycle: 2 depth-3 points, L_BINS even l log-spaced over [12, L_MAX],
    # C_BINS delta log-uniform over [4, C_MAX] (one draw per bin), 6 off-locus.
    # The timed mix holds only inputs outside the known-defect ranges, so no
    # timed operation fails; probe() feeds those ranges once per run, untimed.
    L_BINS = 24
    L_MAX = 200
    C_BINS = 24
    C_MAX = 12.0

    def setup(self, sk, out_dir):
        return {"sk": sk}

    def warmup_item(self, state):
        return ("l_series", oracle.delta_for_l(12), 12)

    def cycle(self, state, rng, k):
        depth3 = [("depth3", oracle.DEPTH3_DELTA, None)] * 2
        lo, hi = math.log(12.0), math.log(self.L_MAX)
        w = (hi - lo) / self.L_BINS
        series = []
        for i in range(self.L_BINS):
            l = 2 * round(math.exp(rng.uniform(lo + i * w, lo + (i + 1) * w)) / 2.0)
            l = min(max(l, 12), self.L_MAX)
            series.append(("l_series", oracle.delta_for_l(l), l))
        span = math.log(self.C_MAX / 4.0)
        continuum = [
            ("continuum", 4.0 * math.exp(rng.uniform(i, i + 1) * span / self.C_BINS), None)
            for i in range(self.C_BINS)
        ]
        off = []
        while True:
            x = rng.uniform(0.05, 2.7)
            if abs(x - oracle.DEPTH3_DELTA) > 1e-3:
                break
        off.append(("off_locus", x, None))
        for _ in range(2):  # between neighbouring series points
            l = 2 * rng.randint(6, 200)
            off.append(("off_locus", 0.5 * (oracle.delta_for_l(l) + oracle.delta_for_l(l + 2)), None))
        off.append(("off_locus", 0.0 if k % 2 == 0 else -rng.uniform(0.0, 10.0), None))
        off.append(("off_locus", math.nan, None))
        off.append(("off_locus", -math.inf, None))
        return _interleave([continuum, series, off, depth3])

    def probe(self, state, rng):
        """One input in each known-defect range (oracle.KNOWN_DEFECTS) and
        two in the wide ones: the continuum up to 1e6 and even l up to 1e4."""
        items = [("continuum", math.exp(rng.uniform(math.log(lo), math.log(hi))), None)
                 for lo, hi in ((16.0, 1e3), (1e3, 1e6))]
        for lo, hi in ((202, 1000), (1000, 10_000)):
            l = 2 * round(math.exp(rng.uniform(math.log(lo), math.log(hi))) / 2.0)
            items.append(("l_series", oracle.delta_for_l(l), l))
        items.append(("continuum", 4.0 + 1e-12, None))
        items.append(("off_locus", math.inf, None))
        return items

    def op(self, state, item):
        return state["sk"].classify(item[1]).verdict

    def observe(self, state, item, result):
        return result

    def check(self, state, item, got):
        kind, delta, l = item
        if got == oracle.expected_verdict(delta):
            return "right"
        return oracle.known_defect(kind, delta, l, got) or "wrong"

    def close(self, state):
        pass


# -- skein_triangles --------------------------------------------------------


# (polyhedron, label kind, copies per cycle).  Generator labels put a
# multiple of the uncappable generator on every vertex, so each 3-gon goes
# through the triangle table; generic labels are random 2-boxes; mixed puts
# the generator on even vertices.  Sizes stop at 12 vertices with generator
# labels only: generic and mixed labels on 12 vertices take seconds each.
# The cheaper and the dearer inputs are equal in number around the
# tetrahedron with generic labels, so the median sits inside one class.
SKEIN_MIX = (
    ("tetrahedron", "generator", 4),
    ("tetrahedron", "mixed", 5),
    ("tetrahedron", "generic", 6),
    ("square_pyramid", "generator", 3),
    ("square_pyramid", "mixed", 2),
    ("square_pyramid", "generic", 1),
    ("triangular_bipyramid", "generator", 1),
    ("triangular_bipyramid", "mixed", 1),
    ("triangular_prism", "generator", 1),
    ("triangular_prism", "mixed", 1),
    ("pentagonal_pyramid", "generator", 1),
    ("hexagonal_pyramid", "generator", 1),
)
CLOSURES = (
    ("product_trace", diagrams.PRODUCT_TRACE),
    ("coproduct_trace", diagrams.COPRODUCT_TRACE),
    ("coproduct_product_trace", diagrams.COPRODUCT_PRODUCT_TRACE),
)


class SkeinTriangles:
    """evaluate(d, model, table) at l = 12 on closed diagrams full of 3-gons."""

    name = "skein_triangles"

    def setup(self, sk, out_dir):
        model = sk.from_classification_data(oracle.delta_for_l(12), -1)
        table = sk.solve_triangle(model)
        maps = {name: diagrams.medial_map(name) for name, _, _ in SKEIN_MIX}
        return {"sk": sk, "model": model, "table": table, "maps": maps,
                "generator": model.uncappable().coeffs}

    def warmup_item(self, state):
        n, pairs = state["maps"]["tetrahedron"]
        d = _build(state["sk"], n, pairs, [state["generator"]] * n)
        return ("medial", d, 0)

    def _labels(self, rng, kind, n, generator):
        def gen():  # a seeded nonzero multiple of the generator
            s = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0)
            return tuple(s * c for c in generator)

        def generic():
            return tuple(rng.gauss(0.0, 1.0) for _ in range(3))

        if kind == "generator":
            return [gen() for _ in range(n)]
        if kind == "generic":
            return [generic() for _ in range(n)]
        return [gen() if v % 2 == 0 else generic() for v in range(n)]

    def cycle(self, state, rng, k):
        sk = state["sk"]
        groups = []
        for name, kind, copies in SKEIN_MIX:
            n, pairs = state["maps"][name]
            groups.append([
                ("medial", _build(sk, n, pairs, self._labels(rng, kind, n, state["generator"])),
                 rng.randrange(2**31))
                for _ in range(copies)
            ])
        closures = []
        for cname, (n, pairs) in CLOSURES:
            labels = [tuple(rng.gauss(0.0, 1.0) for _ in range(3)) for _ in range(n)]
            closures.append((cname, _build(sk, n, pairs, labels), labels))
        groups.append(closures)
        return _interleave(groups)

    def op(self, state, item):
        return state["sk"].evaluate(item[1], state["model"], state["table"])

    def observe(self, state, item, result):
        return result

    def check(self, state, item, got):
        return "right" if _close(got, self.reference(state, item)) else "wrong"

    def reference(self, state, item):
        """Medial diagrams: another face order.  Closures: the 2-box
        structure constants."""
        sk, model = state["sk"], state["model"]
        kind, d, extra = item
        if kind == "medial":
            return _other_order(sk, d, model, state["table"], extra)
        xs = [sk.BoxVec("+", c) for c in extra]
        if kind == "product_trace":
            return model.trace(model.product(xs[0], xs[1]))
        if kind == "coproduct_trace":
            return model.trace(model.coproduct(xs[0], xs[1]))
        return model.trace(model.product(model.coproduct(xs[0], xs[1]), xs[2]))

    def close(self, state):
        pass


# -- cli_reports ------------------------------------------------------------


class CliReports:
    """skeinlab.cli.main(argv) in-process, round-robin over subcommands."""

    name = "cli_reports"
    ROUND = ("classify", "gram", "ybe", "ybe_perturbed", "evaluate", "classify_off")
    EXIT = {"PASS": 0, "FAIL": 1, "REJECTED": 2}

    def setup(self, sk, out_dir):
        tmp = tempfile.mkdtemp(prefix="cli-", dir=out_dir)
        model = sk.from_classification_data(oracle.delta_for_l(12), -1)
        table = sk.solve_triangle(model)
        return {"sk": sk, "tmp": tmp, "model": model, "table": table,
                "octahedron": diagrams.medial_map("tetrahedron"), "console": io.StringIO()}

    def close(self, state):
        shutil.rmtree(state["tmp"], ignore_errors=True)

    def _locus(self, rng):
        """A point of the locus where the verdicts are right at present:
        depth3, even l <= 200, or delta in [4, 12]."""
        pick = rng.randrange(3)
        if pick == 0:
            return ["--depth3"], oracle.DEPTH3_DELTA
        if pick == 1:
            l = 2 * rng.randint(6, 100)
            return ["--l", str(l)], oracle.delta_for_l(l)
        delta = rng.uniform(4.0, 12.0)
        return ["--delta", repr(delta)], delta

    def _diagram_file(self, state, rng):
        """An octahedron with generator ("G") and random labels; one per
        cycle, so one file serves."""
        n, pairs = state["octahedron"]
        labels = ["G" if v % 2 == 0 else [rng.gauss(0.0, 1.0) for _ in range(3)] for v in range(n)]
        doc = {
            "vertices": [{"id": v, "label": labels[v]} for v in range(n)],
            "edges": [[list(a), list(b)] for a, b in pairs],
        }
        path = os.path.join(state["tmp"], "diagram.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return path, labels

    def warmup_item(self, state):
        return self._item(state, random.Random(0), "classify")

    def _item(self, state, rng, cmd):
        """(argv, report path, expected exit code, expected verdict, labels
        of the evaluated diagram or None)."""
        out = os.path.join(state["tmp"], f"{cmd}.json")
        if cmd == "classify_off":
            while True:
                delta = rng.uniform(-2.0, 2.7)
                if oracle.expected_verdict(delta) == "REJECTED":
                    break
            return (["classify", "--delta", repr(delta), "--json", out], out, 2, "REJECTED", None)
        if cmd == "evaluate":
            path, labels = self._diagram_file(state, rng)
            argv = ["evaluate", "--diagram", path, "--l", "12", "--json", out]
            return (argv, out, 0, "PASS", labels)
        locus, delta = self._locus(rng)
        if cmd == "ybe_perturbed":  # negative control: a wrong q must FAIL
            return (["ybe", *locus, "--perturb-q", "1.01", "--out", out], out, 1, "FAIL", None)
        verdict = oracle.expected_verdict(delta)
        flag = "--json" if cmd == "classify" else "--out"
        return ([cmd, *locus, flag, out], out, self.EXIT[verdict], verdict, None)

    def cycle(self, state, rng, k):
        return [self._item(state, rng, cmd) for cmd in self.ROUND]

    def op(self, state, item):
        # The CLI prints a summary line when it writes a report file.
        with contextlib.redirect_stdout(state["console"]), contextlib.redirect_stderr(state["console"]):
            code = state["sk"].cli.main(item[0])
        state["console"].seek(0)
        state["console"].truncate()
        return code

    def observe(self, state, item, code):
        """Read the report back and remove it, so a later run of the same
        command cannot pass on a stale report."""
        with open(item[1]) as fh:
            report = json.load(fh)
        os.remove(item[1])
        value = report["outputs"].get("value") if item[0][0] == "evaluate" else None
        return (code, report["verdict"], value)

    def check(self, state, item, got):
        _argv, _out, code, verdict, labels = item
        got_code, got_verdict, value = got
        if (got_code, got_verdict) != (code, verdict):
            return "wrong"
        if labels is None:
            return "right"
        sk, model = state["sk"], state["model"]
        n, pairs = state["octahedron"]
        coeffs = [model.uncappable().coeffs if lab == "G" else lab for lab in labels]
        want = _other_order(sk, _build(sk, n, pairs, coeffs), model, state["table"], 0)
        return "right" if _close(complex(*value), want) else "wrong"


WORKLOADS = {w.name: w for w in (ClassifyLocus(), SkeinTriangles(), CliReports())}
