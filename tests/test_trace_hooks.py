"""The benchmark's span tracer (`perfbench/tracer.py`) patches skeinlab's
functions and methods by name.  Installing and removing it here makes a
rename or removal of a traced name fail the test suite, not only a
`--trace 1` benchmark run.  The tracer file is only read."""

import importlib.util
from pathlib import Path

import pytest

import skeinlab
from skeinlab import cli, skein, threebox, twobox

# skeinlab.classify is the function; the module is only in sys.modules.
classify_mod = importlib.import_module("skeinlab.classify")

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
MODULES = (skeinlab, classify_mod, cli, skein, threebox, twobox)
CLASSES = (twobox.TwoBoxModel, skein.Diagram, skein.FormalSum, threebox.GramMatrix)


def load_tracer():
    spec = importlib.util.spec_from_file_location("skeinlab_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def snapshot():
    return [dict(vars(owner)) for owner in MODULES + CLASSES]


@pytest.fixture(scope="module")
def tracer_module():
    return load_tracer()


def test_install_then_uninstall_restores_every_name(tracer_module):
    before = snapshot()
    tracer = tracer_module.Tracer()
    try:
        tracer_module.install(tracer)
        patched = [(owner, key) for owner, key, _ in tracer._undo]
        assert patched
        for owner, key in patched:
            assert vars(owner)[key] is not before[(MODULES + CLASSES).index(owner)][key]
    finally:
        tracer.uninstall()
    after = snapshot()
    for old, new in zip(before, after):
        assert old.keys() == new.keys()
        assert all(old[k] is new[k] for k in old)


def test_traced_classify_records_the_hot_path(tracer_module):
    tracer = tracer_module.Tracer()
    try:
        tracer_module.install(tracer)
        result = tracer.run_op(classify_mod.classify, 5.0)
    finally:
        tracer.uninstall()
    assert result.verdict == "PASS"
    calls = {name: agg[0] for name, agg in tracer.totals().items()}
    # The Gram matrix, the 3-gon's and side A's pairings run as programs,
    # not through inner or the engine.
    assert "threebox.inner" not in calls
    assert "skein.evaluate" not in calls
    assert calls["threebox.gram"] == calls["threebox.solve_triangle"] == 1
    assert calls["twobox.rotate"] == 1  # the r2 residual only
    assert "twobox.product" not in calls
