import json
import math

import pytest

from skeinlab import DEPTH3_DELTA, Tolerance
from skeinlab.cli import EXIT_FAIL, EXIT_PASS, EXIT_REJECTED, EXIT_USAGE, load_diagram, main

from helpers import octahedron_diagram


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def strict(text):
    """Parse a report as strict JSON: the bare tokens NaN, Infinity and
    -Infinity are refused."""

    def refuse(token):
        raise ValueError(f"{token} is not strict JSON")

    return json.loads(text, parse_constant=refuse)


def write_diagram(tmp_path, doc, name="d.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


# -- exit codes ----------------------------------------------------------


def test_classify_depth3_passes(capsys):
    code, out, _ = run(capsys, "classify", "--depth3")
    assert code == EXIT_PASS
    report = json.loads(out)
    assert report["verdict"] == "PASS"
    assert report["outputs"]["case"] == "Depth3"
    d = report["outputs"]["delta"]
    assert report["outputs"]["a"] == pytest.approx(d / (d - 1.0), abs=1e-9)
    assert report["outputs"]["b"] == pytest.approx(d, abs=1e-9)
    g = report["outputs"]["principal_graph_prefix"]
    assert g["depth3_neighbors"] == {"w1": ["P1", "P2"], "w2": ["P2"]}


def test_classify_l12_passes(capsys):
    code, out, _ = run(capsys, "classify", "--l", "12")
    assert code == EXIT_PASS
    report = json.loads(out)
    q = complex(*report["outputs"]["q"])
    import cmath

    assert abs(q - cmath.exp(1j * math.pi / 12.0)) < 1e-9


def test_classify_rejected(capsys):
    code, out, _ = run(capsys, "classify", "--delta", "2.5")
    assert code == EXIT_REJECTED
    assert json.loads(out)["verdict"] == "REJECTED"


def test_classify_rejects_an_infinite_delta(capsys):
    # +inf gave a FAIL report with a NonFiniteScalar note.
    code, out, err = run(capsys, "classify", "--delta", "inf")
    assert (code, err) == (EXIT_REJECTED, "")
    report = strict(out)
    assert report["verdict"] == "REJECTED"
    assert report["outputs"]["notes"] == ["delta = inf is not finite"]
    assert report["residuals"] == {}


def test_usage_errors_exit_64(capsys):
    assert run(capsys, "classify")[0] == EXIT_USAGE
    assert run(capsys, "classify", "--delta", "3", "--l", "12")[0] == EXIT_USAGE
    assert run(capsys, "classify", "--l", "12", "--sigma", "1")[0] == EXIT_USAGE
    assert run(capsys, "nonsense")[0] == EXIT_USAGE
    assert run(capsys)[0] == EXIT_USAGE


def test_odd_l_is_an_error(capsys):
    code, _, err = run(capsys, "classify", "--l", "13")
    assert code == EXIT_FAIL
    assert "even" in err


# -- evaluate ------------------------------------------------------------


def test_evaluate_circle(capsys, tmp_path):
    path = write_diagram(tmp_path, {"free_loops": 1, "vertices": [], "edges": []})
    code, out, _ = run(capsys, "evaluate", "--diagram", path, "--l", "12")
    assert code == EXIT_PASS
    report = json.loads(out)
    value = complex(*report["outputs"]["value"])
    assert abs(value - (1.0 + math.sqrt(3.0))) < 1e-9


def test_evaluate_two_circles(capsys, tmp_path):
    path = write_diagram(tmp_path, {"free_loops": 2})
    code, out, _ = run(capsys, "evaluate", "--diagram", path, "--delta", "4.5")
    assert code == EXIT_PASS
    value = complex(*json.loads(out)["outputs"]["value"])
    assert abs(value - 4.5 ** 2) < 1e-9


def test_evaluate_generator_trace_is_zero(capsys, tmp_path):
    # the closed-up generator is killed by every cap
    doc = {
        "vertices": [{"id": 0, "label": "G"}],
        "edges": [[[0, 0], [0, 1]], [[0, 2], [0, 3]]],
    }
    path = write_diagram(tmp_path, doc)
    code, out, _ = run(capsys, "evaluate", "--diagram", path, "--l", "12")
    assert code == EXIT_PASS
    value = complex(*json.loads(out)["outputs"]["value"])
    assert abs(value) < 1e-10


def test_evaluate_explicit_coefficients(capsys, tmp_path):
    doc = {
        "vertices": [{"id": 0, "label": [1.0, [0.0, 2.0], 0.5]}],
        "edges": [[[0, 0], [0, 1]], [[0, 2], [0, 3]]],
    }
    path = write_diagram(tmp_path, doc)
    code, out, _ = run(capsys, "evaluate", "--diagram", path, "--delta", "4.0")
    assert code == EXIT_PASS
    # tr(e + 2i P1 + 0.5 P2) = 1 + 2i*5 + 0.5*10 at delta = 4
    value = complex(*json.loads(out)["outputs"]["value"])
    assert abs(value - (6.0 + 10.0j)) < 1e-9


def test_evaluate_missing_file_fails(capsys, tmp_path):
    code, _, err = run(capsys, "evaluate", "--diagram", str(tmp_path / "nope.json"), "--l", "12")
    assert code == EXIT_FAIL
    assert "cannot read" in err


def test_evaluate_malformed_diagram_fails(capsys, tmp_path):
    doc = {
        "vertices": [{"id": 0, "label": "G"}],
        "edges": [[[0, 0], [0, 1]]],
    }
    path = write_diagram(tmp_path, doc)
    code, _, err = run(capsys, "evaluate", "--diagram", path, "--l", "12")
    assert code == EXIT_FAIL


CAPPED = [[[0, 0], [0, 1]], [[0, 2], [0, 3]]]


@pytest.mark.parametrize(
    "doc",
    [
        {"vertices": [{"id": 0}], "edges": CAPPED},
        {"vertices": [{"id": 0, "label": "G"}], "edges": [[0, 0]]},
        {"vertices": [{"id": 0, "label": [1.0, 2.0]}], "edges": CAPPED},
        {"vertices": [{"id": 0, "label": ["x", 0, 0]}], "edges": CAPPED},
        {"vertices": [{"id": "a", "label": "G"}], "edges": CAPPED},
        {"vertices": ["G"], "edges": CAPPED},
        {"free_loops": 1e400},
        [],
    ],
    ids=["no label", "int edge", "two-entry label", "string coeff", "string id",
         "string vertex", "infinite loops", "top-level list"],
)
def test_evaluate_unparsable_diagram_fails(capsys, tmp_path, doc):
    path = write_diagram(tmp_path, doc)
    code, out, err = run(capsys, "evaluate", "--diagram", path, "--l", "12")
    assert code == EXIT_FAIL
    assert out == ""
    assert err.startswith(f"error: {path}: malformed diagram file") and err.count("\n") == 1


@pytest.mark.parametrize("bad", [math.nan, math.inf, [0.0, -math.inf]])
def test_evaluate_non_finite_label_fails(capsys, tmp_path, bad):
    path = write_diagram(tmp_path, {"vertices": [{"id": 0, "label": [bad, 0, 0]}], "edges": CAPPED})
    code, out, err = run(capsys, "evaluate", "--diagram", path, "--l", "12")
    assert code == EXIT_FAIL
    assert out == ""
    assert err.startswith("error: non-finite scalar") and err.count("\n") == 1


def test_evaluate_loop_power_past_the_float_range_fails(capsys, tmp_path):
    path = write_diagram(tmp_path, {"free_loops": 100000})
    code, out, err = run(capsys, "evaluate", "--diagram", path, "--l", "12")
    assert code == EXIT_FAIL
    assert out == ""
    assert err == "error: non-finite scalar delta ** 100000\n"


def test_evaluate_duplicate_vertex_id_fails(capsys, tmp_path):
    # Two vertices of id 0: the second would replace the first and the
    # caps of one vertex would evaluate to a PASS.
    doc = {"vertices": [{"id": 0, "label": "G"}, {"id": 0, "label": [1, 0, 0]}], "edges": CAPPED}
    path = write_diagram(tmp_path, doc)
    code, out, err = run(capsys, "evaluate", "--diagram", path, "--l", "12")
    assert code == EXIT_FAIL
    assert out == ""
    assert err == f"error: {path}: malformed diagram file: vertex id 0 appears twice\n"


def test_load_diagram_keeps_consistent_shading_and_infers_the_rest(tmp_path, model12):
    octa = octahedron_diagram([(0.0, 1.0, 0.0)] * 6)
    doc = {
        "vertices": [{"id": v, "label": [0, 1, 0], "shading0": x.shading0}
                     for v, x in octa.vertices.items()],
        "edges": [[list(a), list(b)] for a, b in octa.edges.items() if a < b],
    }
    flipped = {v: 1 - x.shading0 for v, x in octa.vertices.items()}
    for v in octa.vertices:
        doc["vertices"][v]["shading0"] = flipped[v]
    path = write_diagram(tmp_path, doc, "flipped.json")
    assert {v: x.shading0 for v, x in load_diagram(path, model12).vertices.items()} == flipped
    # One bit off: the rest follow the least vertex id.
    doc["vertices"][3]["shading0"] = 1 - flipped[3]
    path = write_diagram(tmp_path, doc, "mixed.json")
    assert {v: x.shading0 for v, x in load_diagram(path, model12).vertices.items()} == flipped


def test_evaluate_table_fault_gives_fail_report(capsys, tmp_path):
    # The octahedron is all 3-gons, so evaluate needs the triangle table,
    # whose Gram closures overflow at delta = 1e150.
    octa = octahedron_diagram([(0.0, 1.0, 0.0)] * 6)
    doc = {
        "vertices": [{"id": v, "label": "G"} for v in octa.vertices],
        "edges": [[list(a), list(b)] for a, b in octa.edges.items() if a < b],
    }
    path = write_diagram(tmp_path, doc)
    code, out, err = run(capsys, "evaluate", "--diagram", path, "--delta", "1e150")
    assert code == EXIT_FAIL
    assert err == ""
    report = json.loads(out)
    assert report["verdict"] == "FAIL"
    assert report["outputs"]["notes"] == ["NonFiniteScalar: non-finite scalar delta ** 3"]


# -- gram and ybe --------------------------------------------------------


def test_gram_rank_14(capsys):
    code, out, _ = run(capsys, "gram", "--l", "12")
    assert code == EXIT_PASS
    report = json.loads(out)
    assert report["outputs"]["rank"] == 14
    lam_max = report["outputs"]["max_eigenvalue"]
    assert report["outputs"]["min_eigenvalue"] >= -1e-8 * lam_max
    # The report lists the residual and the limit its verdict rests on.
    assert report["residuals"]["gram_psd_min_eigenvalue"] == 0.0
    assert report["tolerances"] == {"gram_psd_min_eigenvalue": 1e-8, "rank_tol": 1e-8}


def test_ybe_passes_and_perturbation_fails(capsys):
    code, out, _ = run(capsys, "ybe", "--l", "12")
    assert code == EXIT_PASS
    report = json.loads(out)
    assert all(v < 1e-8 for v in report["residuals"].values())

    code, out, _ = run(capsys, "ybe", "--l", "12", "--perturb-q", "1.01")
    assert code == EXIT_FAIL
    report = json.loads(out)
    assert report["residuals"]["ybe"] > 1e-3


@pytest.mark.parametrize("factor", ["nan", "inf", "-inf", "0", "-0.0"])
def test_perturb_q_must_be_finite_and_nonzero(capsys, factor):
    # NaN and inf gave PASS with NaN residuals, and 0 was read as 1.0.
    code, out, err = run(capsys, "ybe", "--l", "12", f"--perturb-q={factor}")
    assert code == EXIT_USAGE
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: --perturb-q must be finite and nonzero")


def test_perturb_q_default_and_negative_factor(capsys):
    code, out, _ = run(capsys, "ybe", "--l", "12")
    assert code == EXIT_PASS and json.loads(out)["inputs"]["perturb_q"] == 1.0
    code, out, _ = run(capsys, "ybe", "--l", "12", "--perturb-q=-1.01")
    report = json.loads(out)
    assert code == EXIT_FAIL and report["inputs"]["perturb_q"] == -1.01
    assert report["residuals"]["ybe"] > 1e-3


def test_classify_at_huge_delta_is_a_fail_report(capsys):
    code, out, err = run(capsys, "classify", "--delta", "1e78")
    assert (code, err) == (EXIT_FAIL, "")
    report = json.loads(out)
    assert report["verdict"] == "FAIL"
    assert report["outputs"]["notes"][-1].startswith("NonFiniteScalar: ")


@pytest.mark.parametrize(
    "delta, written",
    [("1e200", {"y": 1e100, "a": "inf", "b": "inf"}), ("1e300", {"y": "inf", "a": "nan", "b": "nan"})],
)
def test_non_finite_numbers_are_written_as_strings(capsys, delta, written):
    # json.dumps wrote them as the bare tokens Infinity and NaN.
    code, out, _ = run(capsys, "classify", "--delta", delta)
    assert code == EXIT_FAIL
    report = strict(out)
    assert {k: report["outputs"][k] for k in written} == written


def test_an_overflowing_braid_side_is_a_fail_report(capsys):
    # Every braid-side closure overflows to inf or nan; they were dropped as
    # zeros, and the report read "ybe": 0.0 next to "quad": Infinity.
    code, out, err = run(capsys, "ybe", "--l", "12", "--perturb-q", "1e200")
    assert (code, err) == (EXIT_FAIL, "")
    report = strict(out)
    assert report["verdict"] == "FAIL"
    assert report["residuals"] == {}
    assert report["outputs"]["notes"][-1].startswith("NonFiniteScalar: ")


@pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning fails the test
@pytest.mark.parametrize("factor", ["1e52", "1e60", "1e100", "1e108"])
def test_an_overflowing_ybe_is_a_typed_fail_report(capsys, factor):
    # At 1e52 ... 1e100 the quadratic forms of the residual overflowed with
    # RuntimeWarnings on stderr and read "nan"; at 1e108 abs() of a
    # coefficient overflowed and the run ended in a traceback.
    code, out, err = run(capsys, "ybe", "--l", "12", "--perturb-q", factor)
    assert (code, err) == (EXIT_FAIL, "")
    report = strict(out)
    assert report["verdict"] == "FAIL"
    assert report["residuals"] == {}
    assert report["outputs"]["notes"][-1].startswith("NonFiniteScalar: ")


def test_gram_stage_fault_gives_fail_report(capsys, tmp_path):
    # delta ** 3 overflows in the first closure; gram printed only an error.
    path = tmp_path / "gram.json"
    code, out, err = run(capsys, "gram", "--delta", "1e200", "--out", str(path))
    assert (code, err) == (EXIT_FAIL, "")
    assert out.startswith("FAIL: NonFiniteScalar")
    report = strict(path.read_text())
    assert report["verdict"] == "FAIL"
    assert report["outputs"]["notes"] == ["NonFiniteScalar: non-finite scalar delta ** 3"]


# -- every subcommand locates delta as classify does ----------------------


def test_ybe_stage_fault_gives_fail_report(capsys, tmp_path):
    # At delta = 1e150 the (q, r) the Yang-Baxter residual needs overflows;
    # classify FAILs there too.
    code, out, err = run(capsys, "ybe", "--delta", "1e150")
    assert code == EXIT_FAIL
    assert err == ""
    report = json.loads(out)
    assert report["verdict"] == "FAIL"
    note = "NonFiniteScalar: (delta'-1)^2 or (b-a)^2 overflows at delta=1e+150"
    assert report["outputs"]["notes"] == [note]
    assert report["residuals"] == {}
    assert run(capsys, "classify", "--delta", "1e150")[0] == EXIT_FAIL
    path = tmp_path / "ybe.json"
    code, out, _ = run(capsys, "ybe", "--delta", "1e150", "--out", str(path))
    assert code == EXIT_FAIL
    assert out.startswith("FAIL: NonFiniteScalar")
    assert json.loads(path.read_text())["verdict"] == "FAIL"
    # delta = 30 needs the equilibrated Gram matrix: only 9 singular values
    # of the raw one clear rank_tol.
    assert run(capsys, "classify", "--delta", "30")[0] == EXIT_PASS


def test_subcommands_reject_off_locus(capsys, tmp_path):
    path = write_diagram(tmp_path, {"free_loops": 1})
    for argv in (["gram"], ["ybe"], ["evaluate", "--diagram", path]):
        code, out, _ = run(capsys, *argv, "--delta", "2.5")
        assert code == EXIT_REJECTED, argv
        assert json.loads(out)["verdict"] == "REJECTED"


def test_gram_snaps_typed_depth3_value(capsys):
    _, typed, _ = run(capsys, "gram", "--delta", repr(DEPTH3_DELTA))
    _, depth3, _ = run(capsys, "gram", "--depth3")
    assert json.loads(typed)["outputs"] == json.loads(depth3)["outputs"]


@pytest.mark.parametrize("locus", [["--depth3"], ["--l", "12"], ["--delta", "5"]])
def test_subcommand_exit_codes_match_classify(capsys, locus):
    expected = run(capsys, "classify", *locus)[0]
    assert run(capsys, "gram", *locus)[0] == expected
    assert run(capsys, "ybe", *locus)[0] == expected


# -- report determinism and file output ----------------------------------


def test_report_is_deterministic(capsys):
    _, out1, _ = run(capsys, "classify", "--l", "12")
    _, out2, _ = run(capsys, "classify", "--l", "12")
    assert out1 == out2


def test_json_file_output(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "classify", "--depth3", "--json", str(target))
    assert code == EXIT_PASS
    assert "PASS" in out  # human-readable summary on stdout
    report = json.loads(target.read_text())
    assert report["verdict"] == "PASS"


def test_out_file_output(capsys, tmp_path):
    target = tmp_path / "gram.json"
    code, out, _ = run(capsys, "gram", "--l", "12", "--out", str(target))
    assert code == EXIT_PASS
    report = json.loads(target.read_text())
    assert report["outputs"]["rank"] == 14


@pytest.mark.parametrize("tol", ["1e-12", "1e-6"])
@pytest.mark.parametrize("command", ["classify", "ybe"])
def test_tol_scales_the_listed_limits(capsys, command, tol):
    code, out, _ = run(capsys, command, "--l", "12", "--tol", tol)
    assert code == EXIT_PASS
    report = json.loads(out)
    limits = Tolerance(eq_tol=float(tol)).limits
    assert report["tolerances"] == {k: limits[k] for k in report["tolerances"]}
    assert set(report["tolerances"]) >= {"ybe", "r1", "r2", "quad"}
    assert report["tolerances"]["ybe"] == pytest.approx(float(tol) * 10, rel=1e-12)


@pytest.mark.parametrize("tol", ["-1", "nan", "inf", "1e-4"])
def test_tol_out_of_range_is_a_usage_error(capsys, tol):
    code, out, err = run(capsys, "classify", "--l", "12", "--tol", tol)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


def test_tol_env_that_does_not_parse_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("SKEINLAB_TOL", "abc")
    code, out, err = run(capsys, "classify", "--l", "12")
    assert code == EXIT_USAGE
    assert err.count("\n") == 1 and err.startswith("error: ")


@pytest.mark.parametrize("tol", ["1e-5", "1e-6", "1e-12"])
@pytest.mark.parametrize("locus", [("--depth3",), ("--l", "12")])
def test_accepted_tol_keeps_the_verdicts(capsys, locus, tol):
    assert run(capsys, "classify", *locus, "--tol", tol)[0] == EXIT_PASS
    assert run(capsys, "ybe", *locus, "--tol", tol)[0] == EXIT_PASS
    assert run(capsys, "ybe", *locus, "--tol", tol, "--perturb-q", "1.01")[0] == EXIT_FAIL


def test_tol_env_override(capsys, monkeypatch):
    monkeypatch.setenv("SKEINLAB_TOL", "1e-6")
    code, out, _ = run(capsys, "classify", "--l", "12")
    assert code == EXIT_PASS
    assert json.loads(out)["inputs"]["tol"] == 1e-6
