"""Complex scalar arithmetic and the tolerance policy.

The pipeline computes over Python complex numbers (the 2-box model and
`skein._run` also over exact rationals and arrays).  `Tolerance` holds
every threshold the other modules compare against: relative equality,
the limits derived from it, which move with `--tol`, and the fixed locus
windows and float-noise guards.  The root solvers, a stable quadratic and
the principal branch Re q >= 0, Im q >= 0 of q^2 + q^-2 = c, recover q.
"""

from __future__ import annotations

import cmath
import math
import os
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import ClassVar

from .errors import (
    DegenerateLeadingCoefficient,
    InvalidTolerance,
    NoRealRoot,
    NonFiniteScalar,
    NonRealInput,
)

Scalar = complex


# Default eq_tol; derived thresholds scale by eq_tol / _EQ_TOL, exactly 1 here.
_EQ_TOL = 1e-9


@dataclass(frozen=True)
class Tolerance:
    """Every threshold the pipeline compares against.

    One value is set: eq_tol, the relative tolerance of `is_real`.  It
    must be finite, positive and at most EQ_TOL_MAX; anything else raises
    InvalidTolerance.  The fields derived from eq_tol judge agreement up to
    float error, so they move with it (`--tol`, `SKEINLAB_TOL`).  The class
    constants identify points of the locus or guard against float noise, and
    stay fixed; `admissible_check` finds the even l in closed form, with none.
    """

    eq_tol: float = _EQ_TOL

    limits: Mapping[str, float] = field(init=False, repr=False, compare=False)
    """PASS limit per residual: 1e-8, and eq_tol for qr_roundtrip."""
    match_tol: float = field(init=False, repr=False, compare=False)
    """Agreement of the BMW traces of (q, r) with the model, and the Brauer
    delta = 4 and unit-modulus r checks: 1e-6."""
    drop_tol: float = field(init=False, repr=False, compare=False)
    """Formal-sum terms up to this times the largest (floored at 1) drop."""

    SUPPORT_BAND: ClassVar[float] = 1e3
    """Top of the ambiguity band of a coproduct support coefficient, in
    units of eq_tol times the coefficient scale: a coefficient between
    eq_tol and SUPPORT_BAND * eq_tol (relative) is neither clearly zero nor
    clearly present, and raises SupportAmbiguous."""
    EQ_TOL_MAX: ClassVar[float] = 1e-5
    """Largest accepted eq_tol.  The smallest relative support coefficient
    on the locus is 3.9e-2, at the depth-3 point, and the band top
    SUPPORT_BAND * eq_tol must stay below it: at eq_tol = 1e-4 it is 0.1, and
    the depth-3 point FAILs.  Looser tolerances also let the perturbed-q
    negative control pass (`ybe --l 12 --perturb-q 1.01 --tol 1e-2`)."""
    RANK_TOL: ClassVar[float] = 1e-8
    """Gram rank threshold, a ratio to the largest |eigenvalue| of D·G·D,
    the Gram matrix G equilibrated by D = |diag G|^-1/2.  Fixed: on the
    locus cond(D·G·D) is at most 146, so every ratio is above 6e-3."""
    DEPTH3_WINDOW: ClassVar[float] = 1e-6
    """Window of the depth-3 point.  Fixed: the next admissible loop value
    is 0.49 away, and a window that shrank with --tol would miss a depth-3
    value typed to 7 digits."""
    BRAUER_WINDOW: ClassVar[float] = 1e-9
    """Window of the Brauer point q = 1.  Fixed: it is where the q -> 1 limit
    replaces trace formulas that divide by q - 1/q, whatever --tol judges."""
    TERM_DROP: ClassVar[float] = 1e-14
    """3-gon expansion terms below this times their parent coefficient
    (floored at 1) are skipped.  Fixed: a float-noise guard."""
    TABLE_DROP: ClassVar[float] = 1e-13
    """Triangle-table coefficients below this times the largest (floored at
    1) are not substituted.  Fixed: a guard on the solve's float noise."""
    UNIT_SNAP: ClassVar[float] = 1e-13
    """q with ||q| - 1| below this is put on the unit circle.  Fixed: a
    float-noise guard on a modulus that is exactly 1."""
    EIG_FLOOR: ClassVar[float] = 1e-300
    """Floor of the largest Gram eigenvalue in the PSD defect.  Fixed: it
    only keeps a zero matrix from dividing by zero."""

    def __post_init__(self):
        if not (math.isfinite(self.eq_tol) and self.eq_tol > 0):
            raise InvalidTolerance(f"eq_tol must be finite and positive, got {self.eq_tol!r}")
        if self.eq_tol > self.EQ_TOL_MAX:
            raise InvalidTolerance(f"eq_tol must be at most {self.EQ_TOL_MAX:g}, got {self.eq_tol!r}")
        ratio = self.eq_tol / _EQ_TOL
        keys = ("chirality", "gram_psd_min_eigenvalue", "ybe", "r1", "r2", "quad")
        limits = dict.fromkeys(keys, 1e-8 * ratio)
        limits["qr_roundtrip"] = self.eq_tol
        object.__setattr__(self, "limits", limits)
        object.__setattr__(self, "match_tol", 1e-6 * ratio)
        object.__setattr__(self, "drop_tol", self.eq_tol * 1e-3)

    @classmethod
    def from_env(cls) -> "Tolerance":
        """Default tolerance, with SKEINLAB_TOL overriding eq_tol."""
        raw = os.environ.get("SKEINLAB_TOL")
        if raw is None:
            return cls()
        try:
            eq_tol = float(raw)
        except ValueError:
            raise InvalidTolerance(f"SKEINLAB_TOL={raw!r} is not a number") from None
        return cls(eq_tol=eq_tol)

    def over_limits(self, residuals: Mapping[str, float]) -> list[str]:
        """Sorted keys whose residual is at or over its limit; a NaN
        residual is over any limit."""
        return sorted(k for k, v in residuals.items() if not v < self.limits[k])

    def at_brauer_point(self, q: Scalar) -> bool:
        """Whether q is the Brauer point q = 1 (see BRAUER_WINDOW)."""
        return abs(q - 1.0) <= self.BRAUER_WINDOW


DEFAULT_TOL = Tolerance()


def check_finite(*values: Scalar) -> None:
    for v in values:
        c = complex(v)
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
            raise NonFiniteScalar(f"non-finite scalar {c!r}")


def is_real(x: Scalar, tol: Tolerance = DEFAULT_TOL) -> bool:
    x = complex(x)
    return abs(x.imag) <= tol.eq_tol * max(1.0, abs(x))


def solve_quadratic(
    c2: Scalar, c1: Scalar, c0: Scalar, tol: Tolerance = DEFAULT_TOL
) -> tuple[Scalar, Scalar]:
    """Both roots of c2*x^2 + c1*x + c0, ordered by (real, imag).

    Raises DegenerateLeadingCoefficient when |c2| is below tolerance
    relative to the coefficient scale.
    """
    c2, c1, c0 = complex(c2), complex(c1), complex(c0)
    check_finite(c2, c1, c0)
    scale = max(abs(c2), abs(c1), abs(c0), 1.0)
    if abs(c2) <= tol.eq_tol * scale:
        raise DegenerateLeadingCoefficient(f"|c2| = {abs(c2)} too small")

    disc = cmath.sqrt(c1 * c1 - 4.0 * c2 * c0)
    # Citardauq form on the small-magnitude branch avoids cancellation.
    if abs(-c1 + disc) >= abs(-c1 - disc):
        r1 = (-c1 + disc) / (2.0 * c2)
    else:
        r1 = (-c1 - disc) / (2.0 * c2)
    r2 = c0 / (c2 * r1) if abs(r1) > 0 else -c1 / c2 - r1
    roots = sorted([r1, r2], key=lambda z: (z.real, z.imag))
    return roots[0], roots[1]


def principal_q_from_c(c: Scalar, tol: Tolerance = DEFAULT_TOL) -> Scalar:
    """The solution q of q^2 + q^-2 = c with Re q >= 0, Im q >= 0.

    c must be real.  For c <= 2 the solution lies on the unit circle; for
    c > 2 it is real and >= 1.
    """
    c = complex(c)
    check_finite(c)
    if not is_real(c, tol):
        raise NonRealInput(f"q^2+q^-2 = {c!r} is not real")
    cr = c.real

    # t = q^2 solves t + 1/t = cr.
    t1, t2 = solve_quadratic(1.0, -cr, 1.0, tol)
    best = None
    for t in (t1, t2):
        for q in (cmath.sqrt(t), -cmath.sqrt(t)):
            if q.real < -tol.eq_tol or q.imag < -tol.eq_tol:
                continue
            key = (round(q.real, 12), round(q.imag, 12))
            if best is None or key > best[0]:
                best = (key, q)
    if best is None:  # pragma: no cover - candidates always exist
        raise NoRealRoot(f"no normalized q for c = {cr}")
    q = best[1]
    # Snap the exactly-representable branches.
    if cr <= 2.0 + tol.eq_tol and abs(abs(q) - 1.0) < tol.UNIT_SNAP:
        q /= abs(q)
    if abs(q.imag) < tol.eq_tol * max(1.0, abs(q)) and cr > 2.0:
        q = complex(q.real, 0.0)
    return q

