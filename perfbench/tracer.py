"""Span tracing of skeinlab's public functions, installed from outside.

Each wrapped call inside a benchmark operation records one span
(id, name, start_ns, end_ns, parent id, operation id, self_ns).  Self time
is the span's duration minus the durations of its direct children; spans
nest because the benchmark runs on one thread.  Calls made outside an
operation (set-up, answer checks) run unwrapped in effect and record
nothing.

A function is patched at every attribute that refers to it in a skeinlab
module, because `from .x import y` binds y in the calling module; methods
are patched on their class.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict

ROOT = "bench.op"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[list] = []  # frames [span id, child ns]
        self.next_id = 1
        self.op_id = 0
        self.counters: dict[str, int] = defaultdict(int)
        self._undo: list[tuple] = []

    # -- recording --------------------------------------------------------

    def _wrap(self, name, fn, on_result=None):
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if not stack:
                return fn(*args, **kwargs)
            sid = tracer.next_id
            tracer.next_id += 1
            frame = [sid, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                parent = stack[-1]
                parent[1] += t1 - t0
                tracer.spans.append((sid, name, t0, t1, parent[0], tracer.op_id, t1 - t0 - frame[1]))
            if on_result is not None:
                on_result(tracer.counters, args, result)
            return result

        return wrapper

    def run_op(self, fn, *args):
        """Run one benchmark operation under a root span."""
        self.op_id += 1
        sid = self.next_id
        self.next_id += 1
        frame = [sid, 0]
        self.stack.append(frame)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            t1 = time.perf_counter_ns()
            self.stack.pop()
            self.spans.append((sid, ROOT, t0, t1, 0, self.op_id, t1 - t0 - frame[1]))

    # -- installation -----------------------------------------------------

    def patch_function(self, modules, owner, attr, name, on_result=None):
        """Replace owner.attr, and every module attribute bound to the same
        object, with a traced wrapper."""
        fn = getattr(owner, attr)
        wrapper = self._wrap(name, fn, on_result)
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is fn:
                    self._undo.append((mod, key, val))
                    setattr(mod, key, wrapper)

    def patch_method(self, cls, attr, name, on_result=None):
        fn = cls.__dict__[attr]
        self._undo.append((cls, attr, fn))
        setattr(cls, attr, self._wrap(name, fn, on_result))

    def uninstall(self):
        for owner, key, val in reversed(self._undo):
            setattr(owner, key, val)
        self._undo.clear()

    # -- reporting --------------------------------------------------------

    def totals(self):
        """name -> [calls, self_ns, total_ns]."""
        out: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        for _sid, name, t0, t1, _parent, _op, self_ns in self.spans:
            agg = out[name]
            agg[0] += 1
            agg[1] += self_ns
            agg[2] += t1 - t0
        return out

    def write(self, path):
        with gzip.open(path, "wt") as fh:
            for sid, name, t0, t1, parent, op, self_ns in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start_ns": t0, "end_ns": t1,
                                     "parent": parent, "op": op, "self_ns": self_ns}))
                fh.write("\n")


def _count_face(counters, args, face):
    counters[f"skein.rewrites.{len(face)}gon"] += 1


def _count_normalize(counters, args, result):
    counters["skein.normalize.terms_in"] += len(args[0].terms)
    counters["skein.normalize.terms_out"] += len(result.terms)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of the imported skeinlab's twobox, skein,
    threebox, classify and cli.  scalar's functions take microseconds and
    stay in their callers' self time."""
    modules = [m for name, m in sys.modules.items()
               if name == "skeinlab" or name.startswith("skeinlab.")]
    classify, twobox, skein, threebox, cli = (
        sys.modules[f"skeinlab.{m}"] for m in ("classify", "twobox", "skein", "threebox", "cli"))

    def fn(owner, attr, name, on_result=None):
        tracer.patch_function(modules, owner, attr, name, on_result)

    for attr in ("classify", "admissible_check", "recover_qr", "normalize_bmw_params",
                 "principal_graph_prefix"):
        fn(classify, attr, f"classify.{attr}")
    for attr in ("trace_split", "braid_pair", "bmw_two_box_traces", "from_classification_data"):
        fn(twobox, attr, f"twobox.{attr}")
    tracer.patch_method(twobox.TwoBoxModel, "__post_init__", "twobox.TwoBoxModel")
    for attr in ("product", "coproduct", "rotate", "chirality_residual"):
        tracer.patch_method(twobox.TwoBoxModel, attr, f"twobox.{attr}")
    # evaluate() is a one-line front of evaluate_detailed(); the span of the
    # latter is the skein evaluation, so it carries the name skein.evaluate.
    fn(skein, "evaluate_detailed", "skein.evaluate")
    fn(skein, "reduce_once", "skein.reduce_once")
    fn(skein, "find_small_face", "skein.find_small_face", _count_face)
    for attr in ("validate", "canonical_key", "infer_shading", "faces", "components"):
        tracer.patch_method(skein.Diagram, attr, f"skein.{attr}")
    tracer.patch_method(skein.FormalSum, "normalized", "skein.normalize", _count_normalize)
    for attr in ("enumerate_basis", "closure", "inner", "gram", "solve_triangle", "expand",
                 "ybe_residual", "reidemeister_residuals", "mirror"):
        fn(threebox, attr, f"threebox.{attr}")
    for attr in ("eigenvalues", "rank"):
        tracer.patch_method(threebox.GramMatrix, attr, f"threebox.GramMatrix.{attr}")
    fn(cli, "main", "cli.main")
    fn(cli, "load_diagram", "cli.load_diagram")
