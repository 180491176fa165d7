"""skeinlab benchmark: one workload, one process, one thread, a closed loop.

    python3 perfbench/run.py --workload classify_locus --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository: skeinlab is imported from ./src.
Each operation starts when the previous one returns.  With --trace 0 the
last line of stdout is a JSON object with the end-to-end metrics; with
--trace 1 the run is split into an untraced and a traced half and the
object holds the per-layer metrics instead.  --workload all runs every
workload in a child process and prints a combined table.  See README.md.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread: the benchmark measures one client on one core.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

import tracer as tracing  # noqa: E402
from speed import REF_KERNEL_MS, Calibrator, kernel  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 5
NEIGHBOURS_SETUP = 3  # kernel runs between set-ups


def log(msg: str) -> None:
    print(f"# {msg}", flush=True)


# -- set-up ----------------------------------------------------------------


def import_skeinlab():
    """A fresh import of skeinlab from ./src (numpy stays imported)."""
    for name in [n for n in sys.modules if n == "skeinlab" or n.startswith("skeinlab.")]:
        del sys.modules[name]
    sk = importlib.import_module("skeinlab")
    importlib.import_module("skeinlab.cli")
    if not Path(sk.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"skeinlab imported from {sk.__file__}, not from {SRC}")
    return sk


def setup(wl, cal):
    """Import, one-time set-up and one warm-up operation, repeated; returns
    the last state and the median set-up time, raw and speed-scaled."""
    windows, state = [], None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            wl.close(state)
        for _ in range(NEIGHBOURS_SETUP):
            cal.measure()
        t0 = time.perf_counter()
        sk = import_skeinlab()
        state = wl.setup(sk, str(OUT))
        wl.op(state, wl.warmup_item(state))
        windows.append((t0, time.perf_counter()))
    for _ in range(NEIGHBOURS_SETUP):
        cal.measure()
    raw = [t1 - t0 for t0, t1 in windows]
    scaled = [(t1 - t0) * cal.factor(0.5 * (t0 + t1)) for t0, t1 in windows]
    return state, statistics.median(raw), statistics.median(scaled)


# -- the closed loop --------------------------------------------------------


def loop(wl, state, seed, seconds, cal, tracer=None):
    """Run whole cycles of operations until `seconds` have passed; the last
    cycle is finished, so every run has the workload's mix.  Returns the records
    (item, observed result, latency ns, speed factor, error) and the loop's
    wall time, raw and speed-scaled, with input generation, result
    read-back and calibration, which run between operations, taken out."""
    clock = time.perf_counter_ns
    records = []
    side_ns = 0
    rng = random.Random(seed)
    start = clock()
    deadline = start + int(seconds * 1e9)
    k = 0
    while clock() < deadline:
        g0 = clock()
        items = wl.cycle(state, rng, k)
        k += 1
        side_ns += clock() - g0
        for item in items:
            g0 = clock()
            cal.maybe()
            t0 = clock()
            error = None
            try:
                if tracer is None:
                    result = wl.op(state, item)
                else:
                    result = tracer.run_op(wl.op, state, item)
            except Exception:  # noqa: BLE001 - an operation that raises is a wrong answer
                result, error = None, traceback.format_exc()
            t1 = clock()
            if error is None:
                try:
                    result = wl.observe(state, item, result)
                except (OSError, ValueError, KeyError) as exc:
                    error = repr(exc)
            t2 = clock()
            side_ns += (t0 - g0) + (t2 - t1)
            records.append([item, result, t1 - t0, (t0 + t1) / 2e9, error])
    wall_ns = clock() - start - side_ns
    cal.measure()
    busy = sum(r[2] for r in records)
    for r in records:
        r[3] = cal.factor(r[3])
    scaled_busy = sum(r[2] * r[3] for r in records)
    return records, wall_ns, wall_ns * scaled_busy / busy


def grade(wl, state, records):
    """Check every answer; returns per-record grades and defect counts."""
    grades, defects, shown = [], {}, False
    for item, result, _lat, _factor, error in records:
        if error is not None:
            g = "wrong"
            if not shown:
                print(error, file=sys.stderr)
                shown = True
        else:
            g = wl.check(state, item, result)
        if g not in ("right", "wrong"):
            defects[g] = defects.get(g, 0) + 1
        grades.append(g)
    return grades, defects


def probe(wl, state, seed):
    """The workload's known-defect inputs, run once after the loop and not
    timed or counted as attempted; returns their grades' defect counts and
    the number of wrong answers outside every known defect."""
    if not hasattr(wl, "probe"):
        return 0, {}, 0
    records = []
    for item in wl.probe(state, random.Random(seed)):
        try:
            records.append([item, wl.op(state, item), 0, 1.0, None])
        except Exception:  # noqa: BLE001 - an operation that raises is a wrong answer
            records.append([item, None, 0, 1.0, traceback.format_exc()])
    grades, defects = grade(wl, state, records)
    return len(records), defects, grades.count("wrong")


def p90(values):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


# -- metrics ----------------------------------------------------------------


def end_to_end(records, grades, wall_ns, setup_s, scale):
    """Times are speed-scaled when scale is true, raw otherwise."""
    lat = [r[2] * (r[3] if scale else 1.0) / 1e6 for r, g in zip(records, grades) if g == "right"]
    right = len(lat)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (right / (wall_ns / 1e9), "1/s"),
        "p50_ms": (statistics.median(lat) if lat else float("nan"), "ms"),
        "p90_ms": (p90(lat) if lat else float("nan"), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


# Per-layer metrics: span name -> which of calls, self_ms and total_ms to report.
LAYER_SPANS = {
    "classify.admissible_check": ("calls", "self", "total"),
    "classify.recover_qr": ("calls", "self", "total"),
    "twobox.trace_split": ("calls", "self", "total"),
    "twobox.TwoBoxModel": ("calls", "self", "total"),
    "twobox.braid_pair": ("calls", "self", "total"),
    "twobox.product": ("calls", "self"),
    "threebox.enumerate_basis": ("calls", "self", "total"),
    "threebox.closure": ("calls", "self"),
    "threebox.inner": ("calls",),
    "threebox.gram": ("total",),
    "threebox.solve_triangle": ("total",),
    "threebox.expand": ("calls", "total"),
    "threebox.ybe_residual": ("total",),
    "threebox.reidemeister_residuals": ("self",),
    "skein.evaluate": ("calls", "self"),
    "skein.validate": ("self",),
    "skein.reduce_once": ("calls",),
    "skein.canonical_key": ("calls", "self"),
    "skein.infer_shading": ("self",),
    "cli.main": ("self",),
}


def per_layer(tr: tracing.Tracer, traced_ops: int, untraced_rate: float, traced_rate: float):
    """Per-operation means over the traced half."""
    totals = tr.totals()
    n = max(traced_ops, 1)
    out = {}
    for span, whats in LAYER_SPANS.items():
        calls, self_ns, total_ns = totals.get(span, (0, 0, 0))
        for what in whats:
            if what == "calls":
                out[f"{span}.calls"] = (calls / n, "count/op")
            elif what == "self":
                out[f"{span}.self_ms"] = (self_ns / 1e6 / n, "ms/op")
            else:
                out[f"{span}.total_ms"] = (total_ns / 1e6 / n, "ms/op")
    c = tr.counters
    for k in (1, 2, 3):
        out[f"skein.rewrites.{k}gon"] = (c[f"skein.rewrites.{k}gon"] / n, "count/op")
    t_in, t_out = c["skein.normalize.terms_in"], c["skein.normalize.terms_out"]
    out["skein.normalize.terms_in"] = (t_in / n, "count/op")
    out["skein.normalize.terms_out"] = (t_out / n, "count/op")
    out["skein.normalize.kept_ratio"] = (t_out / t_in if t_in else 0.0, "ratio")
    root = totals.get(tracing.ROOT, (0, 0, 0))
    self_sum = sum(v[1] for v in totals.values())
    out["trace.ops"] = (traced_ops, "count")
    out["trace.op_ms"] = (root[2] / 1e6 / n, "ms/op")
    out["trace.self_sum_ms"] = (self_sum / 1e6 / n, "ms/op")
    out["trace.unattributed_ms"] = (root[1] / 1e6 / n, "ms/op")
    out["trace.overhead_ratio"] = (untraced_rate / traced_rate if traced_rate else 0.0, "ratio")
    return out, totals


# -- one workload -------------------------------------------------------------


def machine_state():
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    threads = " ".join(f"{v}={os.environ.get(v)}" for v in THREAD_VARS)
    return (f"nproc={os.cpu_count()} affinity={affinity} python={platform.python_version()} "
            f"numpy={numpy.__version__} {threads}")


def run_workload(args) -> int:
    if not (SRC / "skeinlab" / "__init__.py").is_file():
        print(f"error: no skeinlab sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload]
    log(f"skeinlab benchmark: workload={wl.name} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace}; closed loop, 1 client, 1 thread")
    log(f"machine: {machine_state()}")

    cal = Calibrator()
    kernel()  # first call pays numpy's one-time dispatch set-up
    state, setup_raw, setup_s = setup(wl, cal)
    try:
        if not args.trace:
            records, raw_ns, wall_ns = loop(wl, state, args.seed, args.seconds, cal)
        else:
            half = args.seconds / 2.0
            plain, _, plain_ns = loop(wl, state, args.seed, half, cal)
            tr = tracing.Tracer()
            tracing.install(tr)
            try:  # the traced half replays the same inputs
                traced, _, traced_ns = loop(wl, state, args.seed, half, cal, tr)
            finally:
                tr.uninstall()
            records = plain + traced
        grades, defects = grade(wl, state, records)
        n_probe, probe_defects, probe_unexpected = probe(wl, state, args.seed)
    finally:
        wl.close(state)

    attempted = len(records)
    right = grades.count("right")
    unexpected = grades.count("wrong")
    failed = attempted - right
    log(f"attempted={attempted} right={right} failed={failed} "
        f"(known defects {json.dumps(defects, sort_keys=True)}, unexpected {unexpected}); "
        f"wrong_share={failed / attempted:.6f}")
    if n_probe:
        log(f"known-defect probe, untimed and not attempted: {n_probe} inputs, wrong in "
            f"{json.dumps(probe_defects, sort_keys=True)}, unexpected {probe_unexpected}")
    log(f"speed kernel: median {cal.kernel_ms():.4f} ms over {len(cal.ms)} runs, "
        f"reference {REF_KERNEL_MS} ms")

    if not args.trace:
        metrics = end_to_end(records, grades, wall_ns, setup_s, scale=True)
        raw = end_to_end(records, grades, raw_ns, setup_raw, scale=False)
        log(f"setup_s is the median of {SETUP_REPEATS} set-ups; latencies over "
            f"n={right} correctly answered operations; times scaled to the reference "
            "speed (raw wall-clock values in brackets)")
        for name, (value, unit) in metrics.items():
            log(f"{name:16s} {value:14.6f} {unit:6s} [{raw[name][0]:.6f}]")
    else:
        n_plain = len(plain)
        plain_rate = grades[:n_plain].count("right") / (plain_ns / 1e9)
        traced_rate = grades[n_plain:].count("right") / (traced_ns / 1e9)
        metrics, totals = per_layer(tr, len(traced), plain_rate, traced_rate)
        spans_path = OUT / f"spans-{wl.name}-seed{args.seed}.jsonl.gz"
        tr.write(spans_path)
        log(f"{len(tr.spans)} spans over {len(traced)} traced operations written to "
            f"{spans_path.relative_to(ROOT)}")
        log("self time per operation by span (ms/op, raw wall clock), all spans:")
        n = max(len(traced), 1)
        for name, (calls, self_ns, _total) in sorted(totals.items(), key=lambda kv: -kv[1][1]):
            log(f"  {name:36s} calls/op={calls / n:10.2f} self_ms/op={self_ns / 1e6 / n:9.3f}")
        for name, (value, unit) in metrics.items():
            log(f"{name:36s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": unexpected == 0 and probe_unexpected == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


# -- every workload -----------------------------------------------------------


def run_all(args) -> int:
    """Each workload in its own child process, so that set-up and peak
    memory are its own; then one table."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=str(ROOT))
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    names = list(next(iter(results.values()))["metrics"])
    log(f"{'metric':36s} " + " ".join(f"{w:>16s}" for w in results))
    for m in names:
        unit = next(iter(results.values()))["metrics"][m]["unit"]
        log(f"{m + ' [' + unit + ']':36s} "
            + " ".join(f"{r['metrics'][m]['value']:16.6g}" for r in results.values()))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
