import cmath
import importlib
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skeinlab import (
    DEPTH3_DELTA,
    Admissibility,
    Stages,
    TwoBoxModel,
    admissible_check,
    bmw_two_box_traces,
    classify,
    delta_for_l,
    from_classification_data,
    normalize_bmw_params,
    principal_graph_prefix,
    recover_qr,
    trace_split,
)
from skeinlab.errors import (
    DegenerateDenominator,
    InadmissibleDelta,
    NoCanonicalRepresentative,
    NonFiniteScalar,
    SkeinlabError,
    SupportAmbiguous,
)
from skeinlab.scalar import DEFAULT_TOL, Tolerance

from helpers import FIXTURE_LOCI, first_over

# skeinlab.classify is the function; the module is only in sys.modules.
classify_mod = importlib.import_module("skeinlab.classify")


# -- admissibility -------------------------------------------------------


def test_admissible_depth3():
    adm = admissible_check(DEPTH3_DELTA)
    assert adm.case == "Depth3"
    # The depth-3 loop value is a root of x^3 - 2x^2 - x + 1.
    x = DEPTH3_DELTA
    assert abs(x**3 - 2.0 * x**2 - x + 1.0) < 1e-12
    assert x == pytest.approx(max(np.roots([1.0, -2.0, -1.0, 1.0]).real), abs=1e-12)


def test_admissible_l_series():
    # 1 + sqrt(3) and its upper float neighbour are delta(12) to one ulp.
    for delta in (1.0 + math.sqrt(3.0), math.nextafter(1.0 + math.sqrt(3.0), 4.0)):
        assert admissible_check(delta) == Admissibility("Sp4", 12, "root-of-unity point l = 12")
    for l in range(12, 10_001, 2):
        adm = admissible_check(delta_for_l(l))
        assert (adm.case, adm.l) == ("Sp4", l), l


def test_admissible_real_continuum():
    for delta in (4.0, 4.5, 7.0):
        adm = admissible_check(delta)
        assert adm.case == "Sp4"
        assert adm.l is None


def test_rejected_values():
    for delta in (2.5, 3.0, 3.9, delta_for_l(12) + 1e-7, delta_for_l(12) - 1e-7, 4.0 - 1e-10):
        assert admissible_check(delta).case == "Rejected", delta
    # delta(l') at l' off the even l >= 12; the note gives l'.
    for lp in ("10", "11", "12.5", "100.5", "201", "1001", "200000"):
        adm = admissible_check(delta_for_l(float(lp)))
        assert adm.case == "Rejected" and f"l' = {lp} is " in adm.note, adm.note
    # The continuum edge stays at 4 whatever --tol: 3.99999 is at l' = 4442.88.
    res = classify(3.99999, Tolerance(eq_tol=1e-5))
    assert res.verdict == "REJECTED" and "l' = 4442.88 is 0.88 off the even l = 4442" in res.notes[0]


# Past this l the float window _UNIT_ROUNDOFF * l**3 passes 0.05, the
# smallest offset from an even l drawn below.
_OFF_L_MAX = classify_mod.L_SERIES_LIMIT * 0.1 ** (1 / 3)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(6, int(classify_mod.L_SERIES_LIMIT) // 2))
def test_every_even_l_up_to_the_limit_is_found_and_passes(half):
    l = 2 * half
    res = classify(delta_for_l(l))
    assert (res.case, res.l, res.verdict) == ("Sp4", l, "PASS"), res.notes
    assert res.notes[0] == f"root-of-unity point l = {l}"


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(6, int(_OFF_L_MAX) // 2 - 1), st.floats(0.05, 1.95))
def test_a_delta_between_even_l_is_rejected(half, f):
    res = classify(delta_for_l(2 * half + f))
    assert res.verdict == "REJECTED" and " off the even l = " in res.notes[0], res.notes


def test_rejected_stages_are_not_built():
    st = Stages(2.5)
    assert st.rejected and st.sigma == 0
    with pytest.raises(InadmissibleDelta):
        st.model


@pytest.mark.parametrize(
    "delta, note", [(math.inf, "is not finite"), (-math.inf, "is not positive"), (math.nan, "is not finite")]
)
def test_an_infinite_delta_is_rejected_before_any_stage(delta, note, monkeypatch):
    # +inf gave FAIL with NonFiniteScalar from the trace split.
    monkeypatch.setattr(Stages, "split", property(lambda self: pytest.fail("a stage was built")))
    res = classify(delta)
    assert res.verdict == "REJECTED"
    assert res.case == "Rejected" and res.notes == [f"delta = {delta} {note}"]
    assert res.residuals == {}


def test_delta_for_l_monotone_toward_four():
    vals = [delta_for_l(l) for l in range(12, 201, 2)]
    assert all(x < y for x, y in zip(vals, vals[1:]))
    assert vals[0] == pytest.approx(1.0 + math.sqrt(3.0))
    assert vals[-1] < 4.0


# -- trace solving and parameter recovery --------------------------------


def test_recover_qr_brauer():
    q, r = recover_qr(4.0, 5.0, 10.0, sigma=-1)
    assert q == 1.0 and r == 1.0


def test_recover_qr_l12():
    delta = 1.0 + math.sqrt(3.0)
    _, a, b = trace_split(delta, -1)
    q, r = recover_qr(delta, a, b, sigma=-1)
    q0 = cmath.exp(1j * math.pi / 12.0)
    assert abs(q - q0) < 1e-9
    assert abs(r - q0 ** -5) < 1e-9


def test_recover_qr_depth3():
    _, a, b = trace_split(DEPTH3_DELTA, +1)
    q, r = recover_qr(DEPTH3_DELTA, a, b, sigma=+1)
    q0 = cmath.exp(2j * math.pi / 7.0)
    assert abs(q - q0) < 1e-9
    assert abs(r - q0 ** 2) < 1e-9


def test_recover_qr_roundtrip_twenty_random():
    rng = np.random.default_rng(21)
    for _ in range(20):
        if rng.random() < 0.5:
            l = 2 * int(rng.integers(6, 101))
            q = cmath.exp(1j * math.pi / l)
        else:
            q = complex(rng.uniform(1.0 + 1e-3, 2.0))
        r = q ** -5
        dp, t1, t2 = bmw_two_box_traces(q, r)
        delta = -dp.real  # sigma = -1 branch
        qq, rr = recover_qr(delta, t1.real, t2.real, sigma=-1)
        assert abs(qq - q) < 1e-9
        assert abs(rr - r) < 1e-9


def test_recover_qr_degenerate_denominator():
    # (delta'-1)^4 = (b-a)^2 forced by hand
    with pytest.raises(DegenerateDenominator):
        recover_qr(2.0, 1.0, 1.0 + 9.0, sigma=-1)


@pytest.mark.parametrize("delta", [1e78, 1e200, sys.float_info.max])
def test_recover_qr_overflow_is_a_non_finite_scalar(delta):
    # (b - a)^2 leaves the float range; it used to raise a bare OverflowError.
    _, a, b = trace_split(delta, -1)
    with pytest.raises(NonFiniteScalar):
        recover_qr(delta, a, b, sigma=-1)


def test_sign_candidate_uniqueness():
    # among the four candidates (c1, c2) in {q, -1/q}^2, exactly one solves
    # the twisted-strand identity delta'*r - 1/r = c1*tr(P1) + c2*tr(P2)
    rng = np.random.default_rng(22)
    for _ in range(20):
        if rng.random() < 0.5:
            l = 2 * int(rng.integers(7, 80))
            q = cmath.exp(1j * math.pi / l)
        else:
            q = complex(rng.uniform(1.05, 1.9))
        r = q ** -5
        dp, t1, t2 = bmw_two_box_traces(q, r)
        lhs = dp * r - 1.0 / r
        winners = [
            (c1, c2)
            for c1 in (q, -1.0 / q)
            for c2 in (q, -1.0 / q)
            if abs(lhs - (c1 * t1 + c2 * t2)) < 1e-6
        ]
        assert winners == [(q, -1.0 / q)]


# -- normalization -------------------------------------------------------


def test_normalize_examples():
    q = cmath.exp(1j * math.pi / 12.0)
    r = q ** -5
    for seed in ((r, q), (-r, -q), (1.0 / r, 1.0 / q), (-1.0 / r, q)):
        rr, qq = normalize_bmw_params(*seed)
        assert abs(qq - q) < 1e-9
        assert abs(rr - 1.0 / r) < 1e-9 or abs(rr - r) < 1e-9
        assert qq.real >= 0 and qq.imag >= 0 and rr.real >= 0


def test_normalize_idempotent():
    rng = np.random.default_rng(23)
    for _ in range(20):
        l = 2 * int(rng.integers(6, 60))
        q = cmath.exp(1j * math.pi / l)
        r = q ** -5
        rr, qq = normalize_bmw_params(r, q)
        rr2, qq2 = normalize_bmw_params(rr, qq)
        assert abs(rr - rr2) < 1e-12 and abs(qq - qq2) < 1e-12


def test_normalize_real_branch():
    q = 1.3
    r = q ** -5.0
    rr, qq = normalize_bmw_params(r, q)
    assert qq.imag == 0.0 and qq.real >= 1.0
    assert rr.real >= 0.0


def test_normalize_no_representative():
    # a generic off-circle complex pair has no orbit point in the region
    with pytest.raises(NoCanonicalRepresentative):
        normalize_bmw_params(0.5 + 0.5j, 1.7 + 0.3j)


# -- principal graph -----------------------------------------------------


@pytest.mark.parametrize(
    "delta,sigma",
    [
        (DEPTH3_DELTA, +1),
        (1.0 + math.sqrt(3.0), -1),
        (delta_for_l(14), -1),
        (4.0, -1),
        (4.5, -1),
    ],
)
def test_principal_graph_prefix_hat_shape(delta, sigma):
    m = from_classification_data(delta, sigma)
    g = principal_graph_prefix(m)
    assert g.supports["P1*P1"] == ("e", "P2")
    assert g.supports["P1*P2"] == ("P1", "P2")
    assert g.supports["P2*P2"] == ("e", "P1", "P2")
    assert g.depth3_neighbors == {"w1": ("P1", "P2"), "w2": ("P2",)}
    assert g.depth2_weights["P1"] == pytest.approx(m.a)
    assert g.depth2_weights["P2"] == pytest.approx(m.b)


@pytest.mark.parametrize(
    "a, error, match",
    [(1.0, SkeinlabError, "off the classification pattern"), (1.0 + 1e-7, SupportAmbiguous, "ambiguity band")],
)
def test_principal_graph_prefix_refuses_supports_off_the_pattern(a, error, match):
    # At a = 1 the coefficient of P1 in P1 * P1 vanishes; 1e-7 off, it is
    # 2e-8, inside the band where present and absent cannot be told apart.
    with pytest.raises(SkeinlabError, match=match) as info:
        principal_graph_prefix(TwoBoxModel(5.0, a, 23.0, -1))
    assert type(info.value) is error


# -- end-to-end ----------------------------------------------------------


def test_classify_depth3_passes():
    res = classify(DEPTH3_DELTA)
    assert res.verdict == "PASS"
    assert res.case == "Depth3"
    assert res.sigma == +1
    d = res.delta
    assert res.a == pytest.approx(d / (d - 1.0), abs=1e-9)
    assert res.b == pytest.approx(d, abs=1e-9)
    assert abs(res.q - cmath.exp(2j * math.pi / 7.0)) < 1e-9


def test_classify_l12_passes():
    res = classify(1.0 + math.sqrt(3.0))
    assert res.verdict == "PASS"
    assert res.case == "Sp4"
    assert res.l == 12
    assert res.a == pytest.approx(1.0 + math.sqrt(3.0), abs=1e-9)
    assert res.b == pytest.approx(2.0 + math.sqrt(3.0), abs=1e-9)
    for key, bound in (("ybe", 1e-8), ("r1", 1e-8), ("r2", 1e-8), ("quad", 1e-8)):
        assert res.residuals[key] < bound


@pytest.mark.parametrize("l", [202, 1000])
def test_even_l_past_200_is_found_as_itself(l):
    # l = 1000 must not come back as its neighbour l = 998.
    res = classify(delta_for_l(l))
    assert (res.case, res.l, res.verdict) == ("Sp4", l, "PASS")


def test_classify_brauer_passes():
    res = classify(4.0)
    assert res.verdict == "PASS"
    assert res.q == 1.0 and res.r == 1.0


def test_classify_real_continuum_passes():
    res = classify(4.5)
    assert res.verdict == "PASS"
    assert res.q.imag == 0.0 and res.q.real > 1.0


def test_classify_passes_with_full_gram_rank_up_the_continuum():
    """From delta = 15.73 up, singular values of the raw Gram matrix fall
    under `Tolerance.RANK_TOL`; the equilibrated D·G·D has rank 14 and
    every residual passes.  `quad` is an absolute norm of quantities of the size of U,
    judged against 1e-8 however large U grows (from delta = 135.49 it can
    reach that limit), so it is held here relative to U."""
    for delta in np.geomspace(15.73, 150.0, 24):
        st = Stages(float(delta))
        assert st.gram.rank() == 14, delta
        res = classify(float(delta))
        assert not st.tol.over_limits({k: v for k, v in res.residuals.items() if k != "quad"})
        assert res.residuals["quad"] < 1e-8 * max(1.0, st.braid.U.norm()), delta
        assert res.verdict == "PASS" or res.notes[-1] == "residuals over tolerance: quad", delta


@pytest.mark.parametrize("delta", [1e78, sys.float_info.max])
def test_classify_fails_with_a_note_at_huge_delta(delta):
    res = classify(delta)
    assert (res.case, res.verdict) == ("Sp4", "FAIL")
    assert res.notes[-1].startswith("NonFiniteScalar: ")


@pytest.mark.parametrize("locus", list(FIXTURE_LOCI))
def test_qr_roundtrip_catches_a_perturbed_q(locus, monkeypatch):
    """qr_roundtrip compares the BMW traces of the recovered (q, r) with
    (delta, a, b): under its limit on the locus, and over it once q is off
    by a relative 1e-6 or less, before braid_pair refuses that q."""
    recover = classify_mod.recover_qr
    perturbation = [0.0]

    def perturbed(*args, **kwargs):
        q, r = recover(*args, **kwargs)
        return q * (1.0 + perturbation[0]), r

    monkeypatch.setattr(classify_mod, "recover_qr", perturbed)

    def roundtrip(eps):
        perturbation[0] = eps
        return classify(FIXTURE_LOCI[locus]).residuals["qr_roundtrip"]

    limit = DEFAULT_TOL.limits["qr_roundtrip"]
    assert roundtrip(0.0) < limit
    assert first_over(limit, roundtrip) is not None
    res = classify(FIXTURE_LOCI[locus])
    assert res.verdict == "FAIL" and "qr_roundtrip" in res.notes[-1]


def test_classify_rejects():
    for delta in (2.5, 3.0):
        res = classify(delta)
        assert res.verdict == "REJECTED"
        assert res.case == "Rejected"


# -- known wrong verdicts on the locus --------------------------------------
#
# Each test states the right verdict and fails today; the reason gives what
# classify returns instead.  A fix of the defect turns its test into an
# XPASS, which strict=True reports as a failure until the mark goes.


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="FAIL: DegenerateParameters: r must be nonzero (|r| ~ 1e-10 < eq_tol)",
)
def test_the_continuum_passes_at_delta_1e8():
    assert classify(1e8).verdict == "PASS"


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="FAIL on quad, the first FAIL of np.geomspace(4, 1e6, 600)",
)
def test_the_continuum_passes_at_the_first_fail_of_the_log_grid():
    assert classify(144.89865952837502).verdict == "PASS"


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="FAIL on qr_roundtrip, which divides by q - 1/q near the Brauer point",
)
def test_the_continuum_passes_next_to_the_brauer_point():
    assert classify(4.0 + 1e-12).verdict == "PASS"
