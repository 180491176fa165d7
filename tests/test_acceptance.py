"""Acceptance suite: one check per contract criterion, each printing a
single PASS/FAIL line (run with -s or look at captured output)."""

import cmath
import math

import numpy as np

from helpers import (
    coproduct_product_trace_closure,
    coproduct_trace_closure,
    product_trace_closure,
    random_diagram_corpus,
)
from skeinlab import (
    DEPTH3_DELTA,
    BoxVec,
    TwoBoxModel,
    bmw_two_box_traces,
    braid_pair,
    classify,
    delta_for_l,
    evaluate,
    from_classification_data,
    gram,
    normalize_bmw_params,
    principal_graph_prefix,
    recover_qr,
    ybe_residual,
)
from skeinlab.skein import small_faces
from skeinlab.twobox import PLUS


def _report(name, ok):
    print(f"{name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def test_criterion_1_depth3_point():
    res = classify(DEPTH3_DELTA)
    d = res.delta
    y = d - 1.0
    quad = abs(d * y * y - (d + 3.0) * y + d * d - 2.0)
    ok = (
        res.verdict == "PASS"
        and res.sigma == +1
        and abs(res.a - d / (d - 1.0)) < 1e-9
        and abs(res.b - d) < 1e-9
        and quad < 1e-9
    )
    _report("criterion 1 (depth-3 point)", ok)


def test_criterion_2_sp4_l12():
    res = classify(1.0 + math.sqrt(3.0))
    q0 = cmath.exp(1j * math.pi / 12.0)
    rn, qn = normalize_bmw_params(res.r, res.q)
    rn0, qn0 = normalize_bmw_params(q0 ** -5, q0)
    m = from_classification_data(1.0 + math.sqrt(3.0), -1)
    gm = gram(m)
    eig = gm.eigenvalues()
    ok = (
        res.verdict == "PASS"
        and abs(res.a - (1.0 + math.sqrt(3.0))) < 1e-9
        and abs(res.b - (2.0 + math.sqrt(3.0))) < 1e-9
        and abs(qn - qn0) < 1e-9
        and abs(rn - rn0) < 1e-9
        and res.residuals["ybe"] < 1e-8
        and res.residuals["r1"] < 1e-8
        and res.residuals["r2"] < 1e-8
        and res.residuals["quad"] < 1e-8
        and float(eig[0]) >= -1e-8 * float(eig[-1])
        and gm.rank() == 14
    )
    _report("criterion 2 (Sp(4) at l=12)", ok)


def test_criterion_3_brauer_point():
    res = classify(4.0)
    m = from_classification_data(4.0, -1)
    c = (
        2.0 * (res.delta + 1.0) ** 4
        - 4.0 * (res.delta + 1.0) ** 2
        + 2.0 * (res.b - res.a) ** 2
    ) / ((res.delta + 1.0) ** 4 - (res.b - res.a) ** 2)  # delta' = -4
    bp = braid_pair(m, 1.0, 1.0)
    u2 = m.product(bp.U, bp.U)
    ok = (
        res.verdict == "PASS"
        and abs(res.y - 2.0) < 1e-9
        and abs(res.a - 5.0) < 1e-9
        and abs(res.b - 10.0) < 1e-9
        and abs(c - 2.0) < 1e-9
        and np.allclose(bp.U.coeffs, [1.0, 1.0, -1.0])
        and (u2 - m.identity()).norm() < 1e-10
    )
    _report("criterion 3 (Brauer point delta=4)", ok)


def test_criterion_4_qr_roundtrip():
    rng = np.random.default_rng(101)
    ok = True
    for _ in range(20):
        if rng.random() < 0.5:
            l = 2 * int(rng.integers(6, 101))
            q = cmath.exp(1j * math.pi / l)
        else:
            q = complex(rng.uniform(1.0 + 1e-6, 2.0))
        r = q ** -5
        dp, t1, t2 = bmw_two_box_traces(q, r)
        qq, rr = recover_qr(-dp.real, t1.real, t2.real, sigma=-1)
        ok = ok and abs(qq - q) < 1e-9 and abs(rr - r) < 1e-9
    _report("criterion 4 (parameter roundtrip, 20 samples)", ok)


def test_criterion_5_sign_uniqueness():
    rng = np.random.default_rng(102)
    ok = True
    for _ in range(20):
        if rng.random() < 0.5:
            l = 2 * int(rng.integers(7, 90))
            q = cmath.exp(1j * math.pi / l)
        else:
            q = complex(rng.uniform(1.05, 1.95))
        r = q ** -5
        dp, t1, t2 = bmw_two_box_traces(q, r)
        lhs = dp * r - 1.0 / r
        hits = sum(
            1
            for c1 in (q, -1.0 / q)
            for c2 in (q, -1.0 / q)
            if abs(lhs - (c1 * t1 + c2 * t2)) < 1e-6
        )
        ok = ok and hits == 1
    _report("criterion 5 (sign-candidate uniqueness, 20 samples)", ok)


def test_criterion_6_skein_soundness(model12, table12):
    ok = True
    # confluence: 50 random diagrams x 10 reduction orders
    rng = np.random.default_rng(103)
    for d in random_diagram_corpus(rng, 50, max_vertices=5):
        base = evaluate(d, model12, table12)
        for trial in range(10):
            trial_rng = np.random.default_rng(5000 + trial)

            def chooser(diag, _r=trial_rng):
                fs = small_faces(diag)
                return fs[_r.integers(len(fs))]

            v = evaluate(d, model12, table12, chooser=chooser)
            ok = ok and abs(v - base) < 1e-9 * max(1.0, abs(base))
    # structure constants for all 9 basis pairs
    basis = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]
    m = model12
    for cx in basis:
        for cy in basis:
            x, y = BoxVec(PLUS, cx), BoxVec(PLUS, cy)
            ok = ok and abs(
                evaluate(product_trace_closure(cx, cy), m) - m.trace(m.product(x, y))
            ) < 1e-9
            ok = ok and abs(
                evaluate(coproduct_trace_closure(cx, cy), m)
                - m.trace(x) * m.trace(y) / m.delta
            ) < 1e-9
    # the null diagram tr((P1 * P1) P1)
    p1 = (0.0, 1.0, 0.0)
    null = abs(evaluate(coproduct_product_trace_closure(p1, p1, p1), m))
    ok = ok and null < 1e-10
    _report("criterion 6 (skein engine soundness)", ok)


def test_criterion_7_negative_controls(model12, gram12, braid12):
    m = model12
    off = TwoBoxModel(m.delta, m.a + 1e-2, m.b - 1e-2, m.sigma)
    chir = off.chirality_residual()
    qp = braid12.q * 1.01
    from skeinlab.twobox import BraidPair

    perturbed = BraidPair.from_qr(qp, braid12.r)
    ybe = ybe_residual(m, perturbed, gram12)
    ok = chir > 1e-3 and ybe > 1e-3
    _report("criterion 7 (negative controls)", ok)


def test_criterion_8_principal_graph_prefix():
    ok = True
    loci = [
        (DEPTH3_DELTA, +1),
        (1.0 + math.sqrt(3.0), -1),
        (delta_for_l(14), -1),
        (4.0, -1),
        (4.5, -1),
    ]
    for delta, sigma in loci:
        g = principal_graph_prefix(from_classification_data(delta, sigma))
        ok = ok and g.depth3_neighbors == {"w1": ("P1", "P2"), "w2": ("P2",)}
        ok = ok and g.supports["P1*P1"] == ("e", "P2")
    _report("criterion 8 (principal-graph prefix, 5 loci)", ok)
