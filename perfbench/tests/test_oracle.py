"""The expected-answer oracle against hand-checked points of the locus."""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import oracle  # noqa: E402


def test_depth3_is_the_largest_root_of_the_cubic():
    x = oracle.DEPTH3_DELTA
    assert abs(x**3 - 2 * x**2 - x + 1) < 1e-12
    assert 2.24 < x < 2.25


@pytest.mark.parametrize(
    "delta, verdict",
    [
        (oracle.DEPTH3_DELTA, "PASS"),
        (1.0 + math.sqrt(3.0), "PASS"),  # l = 12
        (oracle.delta_for_l(1000), "PASS"),
        (1e4, "PASS"),
        (4.0, "PASS"),
        (2.5, "REJECTED"),
        (math.inf, "REJECTED"),
        (-math.inf, "REJECTED"),
        (math.nan, "REJECTED"),
        (0.0, "REJECTED"),
        (-3.0, "REJECTED"),
        (0.5 * (oracle.delta_for_l(40) + oracle.delta_for_l(42)), "REJECTED"),
        (oracle.delta_for_l(13), "REJECTED"),  # odd l is not on the series
        (oracle.delta_for_l(10), "REJECTED"),  # l < 12
    ],
)
def test_expected_verdict(delta, verdict):
    assert oracle.expected_verdict(delta) == verdict


def test_series_inversion_recovers_l():
    for l in (12, 14, 200, 202, 1000, 10_000):
        assert oracle.on_l_series(oracle.delta_for_l(l)) == l


def test_known_defects_name_only_their_own_class():
    assert oracle.known_defect("continuum", 50.0, None, "FAIL") == "continuum_false_fail"
    assert oracle.known_defect("continuum", 5.0, None, "FAIL") is None
    assert oracle.known_defect("continuum", 4.0 + 1e-12, None, "FAIL") == "brauer_point_fail"
    assert oracle.known_defect("continuum", 4.001, None, "FAIL") is None
    assert oracle.known_defect("l_series", oracle.delta_for_l(400), 400, "REJECTED") == "l_series_cap"
    assert oracle.known_defect("l_series", oracle.delta_for_l(100), 100, "REJECTED") is None
    assert oracle.known_defect("off_locus", math.inf, None, "FAIL") == "inf_not_rejected"
    assert oracle.known_defect("off_locus", 2.5, None, "PASS") is None
