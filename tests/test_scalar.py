import cmath
import dataclasses
import math
import pickle

import numpy as np
import pytest

from skeinlab import Tolerance, principal_q_from_c, solve_quadratic
from skeinlab.errors import (
    DegenerateLeadingCoefficient,
    InvalidTolerance,
    NonFiniteScalar,
    NonRealInput,
)
from skeinlab.scalar import check_finite, is_real


def test_quadratic_simple_roots():
    r1, r2 = solve_quadratic(1.0, -3.0, 2.0)
    assert abs(r1 - 1.0) < 1e-14
    assert abs(r2 - 2.0) < 1e-14


def test_quadratic_degenerate_leading():
    with pytest.raises(DegenerateLeadingCoefficient):
        solve_quadratic(0.0, 1.0, 1.0)


def test_quadratic_cancellation_stable():
    # x^2 - 1e8 x + 1: the small root is 1e-8 to high relative accuracy.
    r1, r2 = solve_quadratic(1.0, -1e8, 1.0)
    small = min((r1, r2), key=abs)
    assert abs(small - 1e-8) < 1e-20


def test_quadratic_random_roundtrip():
    rng = np.random.default_rng(11)
    for _ in range(200):
        roots = rng.normal(size=2) + 1j * rng.normal(size=2)
        c2 = complex(rng.normal() + 1j * rng.normal())
        while abs(c2) < 0.1:
            c2 = complex(rng.normal() + 1j * rng.normal())
        c1 = -c2 * (roots[0] + roots[1])
        c0 = c2 * roots[0] * roots[1]
        got = solve_quadratic(c2, c1, c0)
        want = sorted(roots, key=lambda z: (z.real, z.imag))
        for g, w in zip(got, want):
            assert abs(g - w) < 1e-8 * max(1.0, abs(w))


def test_principal_q_unit_circle():
    for l in (12, 14, 16, 60):
        q = cmath.exp(1j * math.pi / l)
        c = (q ** 2 + q ** -2).real
        got = principal_q_from_c(c)
        assert abs(got - q) < 1e-12


def test_principal_q_real_branch():
    for q in (1.0, 1.3, 1.9):
        c = q ** 2 + q ** -2
        got = principal_q_from_c(c)
        assert abs(got - q) < 1e-12
        assert got.imag == 0.0


def test_principal_q_rejects_nonreal():
    with pytest.raises(NonRealInput):
        principal_q_from_c(2.0 + 1.0j)


def test_check_finite():
    with pytest.raises(NonFiniteScalar):
        check_finite(float("nan"))
    with pytest.raises(NonFiniteScalar):
        check_finite(1.0, complex(float("inf"), 0.0))
    check_finite(0.0, 1.0 + 2.0j)


def test_is_real():
    assert is_real(3.0 + 1e-12j)
    assert not is_real(1.0j)


def test_tolerance_positive():
    with pytest.raises(ValueError):
        Tolerance(eq_tol=0.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"eq_tol": -1.0},
        {"eq_tol": math.nan},
        {"eq_tol": math.inf},
        {"eq_tol": 1e-4},
    ],
)
def test_tolerance_refuses_bad_values(kwargs):
    with pytest.raises(InvalidTolerance):
        Tolerance(**kwargs)


def test_tolerance_accepts_up_to_eq_tol_max():
    assert Tolerance(eq_tol=Tolerance.EQ_TOL_MAX).eq_tol == 1e-5


# -- the threshold policy ------------------------------------------------

# Each fixed threshold and its value: the literal it replaced in the
# pipeline, or for REL_EQ, MATCH and SUM_DROP the default of the threshold
# that once moved with eq_tol (SUM_DROP to 2 ulp: it was 1e-9 * 1e-3).
FIXED = {
    "REL_EQ": 1e-9,
    "MATCH": 1e-6,
    "SUM_DROP": 1e-12,
    "RANK_TOL": 1e-8,
    "DEPTH3_WINDOW": 1e-6,
    "BRAUER_WINDOW": 1e-9,
    "TERM_DROP": 1e-14,
    "TABLE_DROP": 1e-13,
    "UNIT_SNAP": 1e-13,
    "EIG_FLOOR": 1e-300,
    "EQ_TOL_MAX": 1e-5,
}
LIMITS = {
    "chirality": 1e-8,
    "gram_psd_min_eigenvalue": 1e-8,
    "ybe": 1e-8,
    "r1": 1e-8,
    "r2": 1e-8,
    "quad": 1e-8,
    "qr_roundtrip": 1e-9,
}


def test_tolerance_defaults_equal_the_old_literals():
    tol = Tolerance()
    assert tol.eq_tol == 1e-9
    assert {name: getattr(tol, name) for name in FIXED} == FIXED
    assert tol.limits == LIMITS


def test_tolerance_round_trips_through_pickle():
    tol = Tolerance(eq_tol=1e-6)
    back = pickle.loads(pickle.dumps(tol))
    assert back == tol and back.limits == tol.limits


def test_tolerance_has_one_settable_field():
    assert [f.name for f in dataclasses.fields(Tolerance) if f.init] == ["eq_tol"]
    with pytest.raises(TypeError):
        Tolerance(match_tol=1e-3)


@pytest.mark.parametrize("eq_tol", [1e-6, 1e-12])
def test_derived_thresholds_scale_with_eq_tol(eq_tol):
    tol = Tolerance(eq_tol=eq_tol)
    ratio = eq_tol / 1e-9
    for key, default in LIMITS.items():
        assert tol.limits[key] == pytest.approx(default * ratio, rel=1e-12), key
    assert {name: getattr(tol, name) for name in FIXED} == FIXED


def test_over_limits_is_at_or_over():
    tol = Tolerance()
    residuals = {"ybe": 1e-8, "r1": 0.99e-8, "qr_roundtrip": 2e-9}
    assert tol.over_limits(residuals) == ["qr_roundtrip", "ybe"]
    assert Tolerance(eq_tol=1e-6).over_limits(residuals) == []


def test_over_limits_counts_a_nan_residual_as_over():
    residuals = {"ybe": math.nan, "r1": 0.0, "quad": math.inf}
    assert Tolerance().over_limits(residuals) == ["quad", "ybe"]
    assert Tolerance(eq_tol=1e-6).over_limits(residuals) == ["quad", "ybe"]


def test_brauer_point_window_is_fixed():
    assert Tolerance.at_brauer_point(1.0 + 0.5e-9)
    assert not Tolerance.at_brauer_point(1.0 + 2e-9)
    for tol in (Tolerance(), Tolerance(eq_tol=1e-6)):
        assert tol.at_brauer_point(1.0 + 0.5e-9)
        assert not tol.at_brauer_point(1.0 + 2e-9)
