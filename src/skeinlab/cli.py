"""Command-line front end: classification, diagram evaluation, Gram and
braid-relation reports, all as deterministic JSON.

Every subcommand locates delta with one `Stages` pipeline and renders only
the stages it reads; off the locus it is REJECTED before any stage is
built, and a residual at or over its `Tolerance.limits` entry, which moves
with `--tol`/`SKEINLAB_TOL` and is listed under `tolerances`, FAILs.
A stage that raises (a rank-deficient Gram matrix, say) gives a FAIL
report naming the exception, as `classify` does.

Exit codes: 0 PASS, 1 FAIL or error, 2 REJECTED, 64 usage (bad arguments,
a `--tol`/`SKEINLAB_TOL` that `Tolerance` refuses, or a `--perturb-q` that
is not finite and nonzero).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .classify import L_SERIES_MIN, Stages, classify, delta_for_l
from .diagram import Diagram, Vertex
from .errors import InvalidTolerance, SkeinlabError, TriangleTableRequired
from .scalar import Tolerance
from .skein import evaluate_detailed
from .twobox import DEPTH3_DELTA, TwoBoxModel

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_REJECTED = 2
EXIT_USAGE = 64


# -- number formatting ---------------------------------------------------


def _num(x) -> float | str:
    """17 significant digits; strict JSON has no inf or nan, so those are
    written as the strings "inf", "-inf" and "nan"."""
    return float(f"{float(x):.17g}") if math.isfinite(x) else str(float(x))


def _cnum(z) -> list[float]:
    z = complex(z)
    return [_num(z.real), _num(z.imag)]


def _emit(args, summary: str, **report) -> int:
    """Print the JSON report, or write it to --json/--out and print the
    summary line; return the exit code of the report's verdict."""
    report = {"command": args.command, "residuals": {}, "tolerances": {}, **report}
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    if args.path:
        with open(args.path, "w") as fh:
            fh.write(text + "\n")
        print(summary)
    else:
        print(text)
    return {"PASS": EXIT_PASS, "REJECTED": EXIT_REJECTED}.get(report["verdict"], EXIT_FAIL)


# -- argument plumbing ---------------------------------------------------


def _add_locus_args(sp: argparse.ArgumentParser) -> None:
    g = sp.add_mutually_exclusive_group(required=True)
    g.add_argument("--delta", type=float, help="loop value")
    g.add_argument("--l", type=int, help="even root-of-unity index, l >= 12")
    g.add_argument("--depth3", action="store_true", help="the cubic depth-3 point")
    sp.add_argument("--tol", type=float, default=None, help="equality tolerance")


def _resolve_locus(args) -> float:
    if args.depth3:
        return DEPTH3_DELTA
    if args.l is not None:
        if args.l < L_SERIES_MIN or args.l % 2:
            raise SkeinlabError(f"l must be even and >= {L_SERIES_MIN}, got {args.l}")
        return delta_for_l(args.l)
    return args.delta


def _tolerance(args) -> Tolerance:
    if args.tol is not None:
        return Tolerance(eq_tol=args.tol)
    return Tolerance.from_env()


def _stages(args, **inputs) -> tuple[Stages, dict]:
    """The pipeline at the requested locus, and the report's inputs."""
    delta = _resolve_locus(args)
    st = Stages(delta, _tolerance(args))
    return st, {"delta": _num(delta), "sigma": st.sigma, "tol": _num(st.tol.eq_tol), **inputs}


def _reject(args, st: Stages, inputs: dict) -> int:
    """Report a loop value off the locus; no stage is built."""
    adm = st.admissibility
    outputs = {"case": adm.case, "notes": [adm.note]}
    return _emit(args, f"REJECTED: {adm.note}", inputs=inputs, outputs=outputs, verdict="REJECTED")


def _fail(args, inputs: dict, exc: SkeinlabError, **outputs) -> int:
    """Report a stage that raised, as classify does: FAIL, with the
    exception named in the notes."""
    note = f"{type(exc).__name__}: {exc}"
    outputs["notes"] = [note]
    return _emit(args, f"FAIL: {note}", inputs=inputs, outputs=outputs, verdict="FAIL")


# -- diagram file I/O ----------------------------------------------------


def load_diagram(path: str, model: TwoBoxModel) -> Diagram:
    """Parse a DiagramFile: {"free_loops", "vertices", "edges"}; the label
    "G" stands for the uncappable generator b*P1 - a*P2.  Shading bits are
    optional: once the pairing and planarity check out, they are inferred
    from the least vertex id of each component, so consistent bits stay."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SkeinlabError(f"{path}: cannot read diagram file: {exc}") from exc

    def coeff(c):
        if isinstance(c, list):
            return complex(c[0], c[1])
        return complex(c)

    try:
        vertices = {}
        for entry in doc.get("vertices", []):
            label = entry["label"]
            if label == "G":
                coeffs = model.uncappable().coeffs
            else:
                e, p1, p2 = (coeff(c) for c in label)  # exactly three, or ValueError
                coeffs = (e, p1, p2)
            vid = int(entry["id"])
            if vid in vertices:
                raise SkeinlabError(f"{path}: malformed diagram file: vertex id {vid} appears twice")
            vertices[vid] = Vertex(coeffs, int(entry.get("shading0", 0)))
        d = Diagram(vertices, {}, int(doc.get("free_loops", 0)))
        for (a, sa), (b, sb) in doc.get("edges", []):
            d.add_edge((int(a), int(sa)), (int(b), int(sb)))
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SkeinlabError(f"{path}: malformed diagram file: {type(exc).__name__}: {exc}") from exc
    d.validate(check_shading=False)
    return d.infer_shading()


# -- commands ------------------------------------------------------------


def cmd_classify(args) -> int:
    tol = _tolerance(args)
    delta = _resolve_locus(args)
    res = classify(delta, tol)
    outputs = {
        "case": res.case,
        "l": res.l,
        "sigma": res.sigma,
        "delta": _num(res.delta),
        "y": None if res.y is None else _num(res.y),
        "a": None if res.a is None else _num(res.a),
        "b": None if res.b is None else _num(res.b),
        "q": None if res.q is None else _cnum(res.q),
        "r": None if res.r is None else _cnum(res.r),
        "notes": res.notes,
    }
    if res.graph is not None:
        outputs["principal_graph_prefix"] = {
            "depth2_weights": {k: _num(v) for k, v in sorted(res.graph.depth2_weights.items())},
            "depth3_neighbors": {k: list(v) for k, v in sorted(res.graph.depth3_neighbors.items())},
        }
    return _emit(
        args,
        f"{res.verdict}: case={res.case} delta={res.delta:.12g}",
        inputs={"delta": _num(delta), "tol": _num(tol.eq_tol)},
        outputs=outputs,
        residuals={k: _num(v) for k, v in sorted(res.residuals.items())},
        tolerances={k: _num(v) for k, v in sorted(tol.limits.items())},
        verdict=res.verdict,
    )


def cmd_evaluate(args) -> int:
    st, inputs = _stages(args, diagram=args.diagram)
    if st.rejected:
        return _reject(args, st, inputs)
    diagram = load_diagram(args.diagram, st.model)
    try:
        value, steps = evaluate_detailed(diagram, st.model, None, st.tol)
    except TriangleTableRequired:
        try:
            table = st.table
        except SkeinlabError as exc:
            return _fail(args, inputs, exc)
        value, steps = evaluate_detailed(diagram, st.model, table, st.tol)
    outputs = {"value": _cnum(value), "reduction_steps": steps}
    summary = f"value = {value:.12g} ({steps} reduction steps)"
    return _emit(args, summary, inputs=inputs, outputs=outputs, verdict="PASS")


def cmd_gram(args) -> int:
    st, inputs = _stages(args)
    if st.rejected:
        return _reject(args, st, inputs)
    try:
        gm = st.gram
    except SkeinlabError as exc:
        return _fail(args, inputs, exc)
    evals = gm.eigenvalues()
    rank = gm.rank()
    # A rank deficit fails the pipeline too (GramRankDeficient in classify).
    judged = {"gram_psd_min_eigenvalue": gm.psd_defect()}
    verdict = "FAIL" if rank < len(gm.entries) or st.tol.over_limits(judged) else "PASS"
    outputs = {
        "matrix": [[_cnum(z) for z in row] for row in gm.entries],
        "eigenvalues": [_num(v) for v in evals],
        "min_eigenvalue": _num(evals[0]),
        "max_eigenvalue": _num(evals[-1]),
        "rank": rank,
    }
    return _emit(
        args,
        f"{verdict}: rank={rank} min_eig={evals[0]:.6g} max_eig={evals[-1]:.6g}",
        inputs=inputs,
        outputs=outputs,
        residuals={"hermiticity": _num(gm.hermiticity_defect()), **{k: _num(v) for k, v in judged.items()}},
        tolerances={"rank_tol": _num(st.tol.RANK_TOL), **{k: _num(st.tol.limits[k]) for k in judged}},
        verdict=verdict,
    )


def cmd_ybe(args) -> int:
    factor = 1.0 if args.perturb_q is None else args.perturb_q
    if not (math.isfinite(factor) and factor != 0.0):
        print(f"error: --perturb-q must be finite and nonzero, got {factor!r}", file=sys.stderr)
        return EXIT_USAGE
    st, inputs = _stages(args, perturb_q=_num(factor))
    if st.rejected:
        return _reject(args, st, inputs)
    outputs = {}
    try:
        braid = st.perturbed_braid(factor)
        outputs = {"q": _cnum(braid.q), "r": _cnum(braid.r)}
        residuals = st.braid_residuals(braid)
    except SkeinlabError as exc:
        return _fail(args, inputs, exc, **outputs)
    verdict = "FAIL" if st.tol.over_limits(residuals) else "PASS"
    return _emit(
        args,
        f"{verdict}: " + " ".join(f"{k}={v:.3e}" for k, v in sorted(residuals.items())),
        inputs=inputs,
        outputs=outputs,
        residuals={k: _num(v) for k, v in sorted(residuals.items())},
        tolerances={k: _num(st.tol.limits[k]) for k in sorted(residuals)},
        verdict=verdict,
    )


# -- entry point ---------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="skeinlab",
        description="Verification calculator for the dim(3-box)=14 planar algebras.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("classify", help="run the full classification pipeline")
    _add_locus_args(sp)
    sp.add_argument("--json", dest="path", help="write the JSON report here")
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("evaluate", help="evaluate a closed diagram file")
    sp.add_argument("--diagram", required=True, help="DiagramFile JSON path")
    _add_locus_args(sp)
    sp.add_argument("--json", dest="path", help="write the JSON report here")
    sp.set_defaults(func=cmd_evaluate)

    sp = sub.add_parser("gram", help="14x14 Gram matrix report")
    _add_locus_args(sp)
    sp.add_argument("--out", dest="path", help="write the JSON report here")
    sp.set_defaults(func=cmd_gram)

    sp = sub.add_parser("ybe", help="braid relation residuals")
    _add_locus_args(sp)
    sp.add_argument("--perturb-q", type=float, default=None,
                    help="multiply q by this factor (negative control)")
    sp.add_argument("--out", dest="path", help="write the JSON report here")
    sp.set_defaults(func=cmd_ybe)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except InvalidTolerance as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SkeinlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
