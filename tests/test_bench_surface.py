"""The names of skeinlab that the benchmark under `perfbench/` uses.

The benchmark patches functions by name (`perfbench/tracer.py`) and calls
them from its workloads (`perfbench/workloads.py`), so a rename or a
change of signature in `src/` breaks it although no pipeline test fails.
Some of these names have no caller in `src/` and stay only for the
benchmark, until a change to the benchmark moves it off them:

  * `threebox.inner`, `threebox.expand` and `threebox.enumerate_basis`,
    which the tracer patches;
  * `classify.normalize_bmw_params`, which the tracer patches;
  * `twobox.from_classification_data`, which the tracer patches and the
    skein and CLI workloads build their model with;
  * `solve_triangle(model)` with one argument, which those workloads
    build their triangle table with.

Here the tracer is installed on the imported skeinlab and uninstalled,
and every workload sets up, runs its warm-up operation, checks the answer
and closes, as the benchmark does before it times anything."""

import sys
from pathlib import Path

import pytest

import skeinlab
import skeinlab.cli  # noqa: F401 - the tracer patches skeinlab.cli.main

BENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
sys.path.insert(0, BENCH)
try:
    import tracer  # noqa: E402
    import workloads  # noqa: E402
finally:
    sys.path.remove(BENCH)


def test_the_tracer_installs_on_skeinlab_and_uninstalls():
    t = tracer.Tracer()
    try:
        tracer.install(t)
        assert t._undo
    finally:
        t.uninstall()
    assert not t._undo


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_workload_sets_up_and_answers_its_warm_up_right(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    state = wl.setup(skeinlab, str(tmp_path))
    try:
        item = wl.warmup_item(state)
        got = wl.observe(state, item, wl.op(state, item))
        assert wl.check(state, item, got) == "right"
    finally:
        wl.close(state)
