"""Expected verdicts for loop values, from the closed forms of the locus.

The locus on which classification must PASS is
  * the depth-3 point, the largest root of x^3 - 2x^2 - x + 1;
  * the root-of-unity series delta(l) = 2cos(2pi/l) + 2cos(4pi/l), l even >= 12;
  * the real continuum delta >= 4.
Every other loop value, including non-finite ones, must be REJECTED.

Nothing here calls skeinlab: the expected answer must not come from the
code being timed.
"""

from __future__ import annotations

import math

DEPTH3_DELTA = 1.0 + 2.0 * math.cos(2.0 * math.pi / 7.0)

# Float agreement required to call a value "on" a point of the locus.  The
# benchmark feeds the points themselves, so a few ulps suffice.
_POINT_TOL = 1e-12


def delta_for_l(l: int) -> float:
    return 2.0 * math.cos(2.0 * math.pi / l) + 2.0 * math.cos(4.0 * math.pi / l)


def l_of_delta(delta: float) -> float | None:
    """Real l with delta_for_l(l) == delta, from delta = 4c^2 + 2c - 2 with
    c = cos(2pi/l); None when delta is outside the series' range."""
    if not -2.25 <= delta < 4.0:
        return None
    c = (-1.0 + math.sqrt(4.0 * delta + 9.0)) / 4.0
    if not -1.0 < c < 1.0:
        return None
    return 2.0 * math.pi / math.acos(c)


def on_l_series(delta: float) -> int | None:
    """The even l >= 12 whose loop value is delta, or None."""
    l_real = l_of_delta(delta)
    if l_real is None:
        return None
    nearest = 2 * round(l_real / 2.0)
    for l in (nearest - 2, nearest, nearest + 2):
        if l >= 12 and abs(delta_for_l(l) - delta) <= _POINT_TOL * 4.0:
            return l
    return None


def expected_verdict(delta: float) -> str:
    """PASS on the locus, REJECTED off it."""
    if not math.isfinite(delta) or delta <= 0.0:
        return "REJECTED"
    if abs(delta - DEPTH3_DELTA) <= _POINT_TOL * DEPTH3_DELTA:
        return "PASS"
    if delta >= 4.0:
        return "PASS"
    return "PASS" if on_l_series(delta) is not None else "REJECTED"


# Wrong verdicts that skeinlab is known to give (ROADMAP, open item 1).  The
# timed mix keeps out of these ranges; an untimed probe per run feeds them and
# reports which still give the wrong verdict.  A wrong answer outside all of
# them marks the run as incorrect.
KNOWN_DEFECTS = {
    "continuum_false_fail": "FAIL on the continuum at delta > 15 (ill-conditioned Gram matrix)",
    "brauer_point_fail": "FAIL on the continuum within 1e-9 above delta = 4 (cancellation in q)",
    "l_series_cap": "REJECTED at even l > 200 (the series search stops at l = 200)",
    "inf_not_rejected": "FAIL instead of REJECTED at delta = +inf",
}


def known_defect(kind: str, delta: float, l: int | None, got: str) -> str | None:
    """Name of the known defect that explains a wrong verdict, if any."""
    if kind == "continuum" and got == "FAIL" and delta > 15.0:
        return "continuum_false_fail"
    if kind == "continuum" and got == "FAIL" and 4.0 < delta < 4.0 + 1e-9:
        return "brauer_point_fail"
    if kind == "l_series" and got == "REJECTED" and l is not None and l > 200:
        return "l_series_cap"
    if delta == math.inf and got == "FAIL":
        return "inf_not_rejected"
    return None
