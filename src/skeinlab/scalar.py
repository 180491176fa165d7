"""Complex scalar arithmetic and the tolerance policy.

The pipeline computes over Python complex numbers (the 2-box model and
`skein._run` also over exact rationals and arrays).  `Tolerance` holds
every threshold the other modules compare against.  Only the PASS limits
move with `--tol`; every guard that shapes a number (relative equality,
the trace agreement checks, the locus windows, the engine's zero drops)
is a fixed class constant, so the numbers depend on delta alone.  The
root solvers, a stable quadratic and the principal branch Re q >= 0,
Im q >= 0 of q^2 + q^-2 = c, recover q.
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


# Default eq_tol; the limits scale by eq_tol / _EQ_TOL, exactly 1 here.
_EQ_TOL = 1e-9


@dataclass(frozen=True)
class Tolerance:
    """Every threshold the pipeline compares against.

    One value is set: eq_tol, which judges the verdict.  It must be finite,
    positive and at most EQ_TOL_MAX; anything else raises InvalidTolerance.
    Only `limits` derives from it, so `--tol` and `SKEINLAB_TOL` move the
    PASS limits and nothing else.  The class constants are the guards that
    shape the numbers: relative equality, agreement checks, locus windows
    and float-noise drops.  They stay fixed, so every number depends on
    delta alone; `admissible_check` finds the even l in closed form, with
    none.
    """

    eq_tol: float = _EQ_TOL

    limits: Mapping[str, float] = field(init=False, repr=False, compare=False)
    """PASS limit per residual: 1e-8 times eq_tol / 1e-9, and eq_tol for
    qr_roundtrip."""

    REL_EQ: ClassVar[float] = 1e-9
    """Relative equality: of `is_real`, of a vanishing leading coefficient
    or denominator, of a singular (q, r) in the trace formulas, of the
    unit-circle and region tests that normalize (q, r), and the bottom of
    the coproduct support band."""
    MATCH: ClassVar[float] = 1e-6
    """Agreement of the BMW traces of (q, r) with the model, and the Brauer
    delta = 4 and unit-modulus r checks."""
    SUM_DROP: ClassVar[float] = 1e-12
    """Formal-sum terms up to this times the largest (floored at 1) drop.
    A float-noise guard of the engine: without it a 3-gon-rich reduction
    keeps about a fifth more terms, for values that move by roundoff."""
    SUPPORT_BAND: ClassVar[float] = 1e3
    """Top of the ambiguity band of a coproduct support coefficient, in
    units of REL_EQ times the coefficient scale: a coefficient between
    REL_EQ and SUPPORT_BAND * REL_EQ (relative) is neither clearly zero nor
    clearly present, and raises SupportAmbiguous."""
    EQ_TOL_MAX: ClassVar[float] = 1e-5
    """Largest accepted eq_tol.  It bounds how far `--tol` may loosen the
    PASS limits before a wrong braid could pass: at eq_tol = 1e-5 every
    limit of `ybe` is 1e-4, and the perturbed-q negative control
    `ybe --l 12 --perturb-q 1.01` reads each residual at least 107 times
    over it (ybe 1.07e-2, the smallest; quad 7.2e-2).  At eq_tol = 1e-3
    ybe would be within 7% of its limit."""
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

    @staticmethod
    def at_brauer_point(q: Scalar) -> bool:
        """Whether q is the Brauer point q = 1 (see BRAUER_WINDOW)."""
        return abs(q - 1.0) <= Tolerance.BRAUER_WINDOW


DEFAULT_TOL = Tolerance()


def check_finite(*values: Scalar) -> None:
    for v in values:
        c = complex(v)
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
            raise NonFiniteScalar(f"non-finite scalar {c!r}")


def is_real(x: Scalar) -> bool:
    x = complex(x)
    return abs(x.imag) <= Tolerance.REL_EQ * max(1.0, abs(x))


def solve_quadratic(c2: Scalar, c1: Scalar, c0: Scalar) -> tuple[Scalar, Scalar]:
    """Both roots of c2*x^2 + c1*x + c0, ordered by (real, imag).

    Raises DegenerateLeadingCoefficient when |c2| is below REL_EQ
    relative to the coefficient scale.
    """
    c2, c1, c0 = complex(c2), complex(c1), complex(c0)
    check_finite(c2, c1, c0)
    scale = max(abs(c2), abs(c1), abs(c0), 1.0)
    if abs(c2) <= Tolerance.REL_EQ * scale:
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


def principal_q_from_c(c: Scalar) -> Scalar:
    """The solution q of q^2 + q^-2 = c with Re q >= 0, Im q >= 0.

    c must be real.  For c <= 2 the solution lies on the unit circle; for
    c > 2 it is real and >= 1.
    """
    c = complex(c)
    check_finite(c)
    if not is_real(c):
        raise NonRealInput(f"q^2+q^-2 = {c!r} is not real")
    cr = c.real

    # t = q^2 solves t + 1/t = cr.
    t1, t2 = solve_quadratic(1.0, -cr, 1.0)
    eps = Tolerance.REL_EQ
    best = None
    for t in (t1, t2):
        for q in (cmath.sqrt(t), -cmath.sqrt(t)):
            if q.real < -eps or q.imag < -eps:
                continue
            key = (round(q.real, 12), round(q.imag, 12))
            if best is None or key > best[0]:
                best = (key, q)
    if best is None:  # pragma: no cover - candidates always exist
        raise NoRealRoot(f"no normalized q for c = {cr}")
    q = best[1]
    # Snap the exactly-representable branches.
    if cr <= 2.0 + eps and abs(abs(q) - 1.0) < Tolerance.UNIT_SNAP:
        q /= abs(q)
    if abs(q.imag) < eps * max(1.0, abs(q)) and cr > 2.0:
        q = complex(q.real, 0.0)
    return q

