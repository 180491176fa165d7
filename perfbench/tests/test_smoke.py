"""Short runs of every workload: the result line carries every metric that
BENCHMARK.json names, with its unit."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(root, workload, trace, seconds=1):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=300,
    )


def result(proc):
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["attempted"] >= 1 and 0 <= out["failed"] <= out["attempted"]
    return out


def units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed(workload):
    out = result(run(ROOT, workload, 0))
    assert out["correct"] is True
    assert units(out["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_per_layer_metrics_printed():
    out = result(run(ROOT, "cli_reports", 1, seconds=2))
    assert units(out["metrics"]) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    m = {k: v["value"] for k, v in out["metrics"].items()}
    assert m["trace.ops"] >= 1
    assert m["cli.main.self_ms"] > 0 and m["threebox.inner.calls"] > 0
    # Self times add up to the operations' wall time.
    assert m["trace.self_sum_ms"] == pytest.approx(m["trace.op_ms"], rel=1e-9)


def test_known_defects_show_in_the_probe_not_in_the_timed_mix():
    proc = run(ROOT, "classify_locus", 0, seconds=3)
    out = result(proc)
    assert out["correct"] is True
    assert out["failed"] == 0
    line = next(x for x in proc.stdout.splitlines() if x.startswith("# known-defect probe"))
    for name in ("continuum_false_fail", "l_series_cap", "inf_not_rejected", "brauer_point_fail"):
        assert name in line


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
