"""The 3-dimensional 2-box spaces with full structure constants.

Basis order is (e, P1, P2) with tr(P1) <= tr(P2); the other shading
(ebar, Q1, Q2) carries identical structure constants, so a BoxVec only
needs a side tag to police rotation bookkeeping.  The coproduct table,
the rotation and the caps are functions of (delta, a, b, sigma) alone,
kept once as tuples of plain numbers; every 2-box operation, on a BoxVec
or on a bare coefficient triple, reads them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BrauerDegenerate,
    ChiralityInfeasible,
    ChiralityMismatch,
    DegenerateParameters,
    InadmissibleDelta,
    NoPositiveRoot,
    ParameterMismatch,
    SideMismatch,
)
from .scalar import Scalar, Tolerance, solve_quadratic

PLUS = "+"
MINUS = "-"

# Largest root of x^3 - 2x^2 - x + 1, the depth-3 loop value.  It equals
# 1 + 2cos(2*pi/7).
DEPTH3_DELTA = 1.0 + 2.0 * math.cos(2.0 * math.pi / 7.0)


def other_side(side: str) -> str:
    return MINUS if side == PLUS else PLUS


@dataclass(frozen=True)
class BoxVec:
    """An element of a 2-box space as coefficients over (e, P1, P2)."""

    side: str
    coeffs: tuple[Scalar, Scalar, Scalar]

    def __post_init__(self):
        if self.side not in (PLUS, MINUS):
            raise ValueError(f"bad side {self.side!r}")
        object.__setattr__(
            self, "coeffs", tuple(complex(c) for c in self.coeffs)
        )

    def __add__(self, o: "BoxVec") -> "BoxVec":
        if o.side != self.side:
            raise SideMismatch("cannot add 2-boxes of different shadings")
        return BoxVec(self.side, tuple(x + y for x, y in zip(self.coeffs, o.coeffs)))

    def __sub__(self, o: "BoxVec") -> "BoxVec":
        return self + (-1.0) * o

    def __rmul__(self, s: Scalar) -> "BoxVec":
        return BoxVec(self.side, tuple(complex(s) * c for c in self.coeffs))

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))


def _trace_ratio(delta: float, sigma: int) -> float:
    """The ratio y = b/a determined by delta and the chirality sigma."""
    if sigma == +1:
        disc = (9.0 - 4.0 * delta) * (delta + 1.0) ** 2
        if disc < -Tolerance.REL_EQ:
            raise ChiralityInfeasible(
                f"sigma=+1 has no real trace ratio at delta={delta} (needs delta <= 9/4)"
            )
        r1, r2 = solve_quadratic(delta, -(delta + 3.0), delta * delta - 2.0)
        y = max(r1.real, r2.real)
    else:
        y = (delta - 3.0 + (delta - 1.0) * math.sqrt(4.0 * delta + 9.0)) / (2.0 * delta)
    if y <= 0:
        raise NoPositiveRoot(f"trace ratio {y} not positive at delta={delta}")
    return float(y)


def trace_split(delta: float, sigma: int):
    """(y, a, b) with y = b/a, a + b = delta^2 - 1, for the given chirality."""
    y = _trace_ratio(delta, sigma)
    a = (delta * delta - 1.0) / (y + 1.0)
    return y, a, y * a


def dot(row, coeffs) -> complex:
    """Sum of row[i] * coeffs[i] over the three basis coordinates."""
    r0, r1, r2 = row
    c0, c1, c2 = coeffs
    return r0 * c0 + r1 * c1 + r2 * c2


def product_coeffs(x_side: str, x, y_side: str, y) -> tuple:
    """The product rule on coefficient triples: (e, P1, P2) are orthogonal
    idempotents, so the product is elementwise."""
    if x_side != y_side:
        raise SideMismatch("operands live on different shadings")
    return (x[0] * y[0], x[1] * y[1], x[2] * y[2])


@dataclass(frozen=True)
class TwoBoxModel:
    """Structure constants of the 2-box spaces at one classification point.

    `coproduct_table[i][j]` is the coproduct of basis elements i and j,
    `rotation_rows` are the rows of the one-click rotation, and
    dot(cap_rows[k], x) is the trace of x rotated k clicks (k = 0, 1).
    """

    delta: float
    a: float
    b: float
    sigma: int
    coproduct_table: tuple = field(init=False, repr=False, compare=False)
    rotation_rows: tuple = field(init=False, repr=False, compare=False)
    cap_rows: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.sigma not in (+1, -1):
            raise ValueError("sigma must be +1 or -1")
        d, a, b, sg = self.delta, self.a, self.b, self.sigma

        e_p1 = (0, 1 / d, 0)
        e_p2 = (0, 0, 1 / d)
        p1_p2 = (0, (a - 1) / d, (a * b - a * a + a) / (d * b))
        cop = (
            ((1 / d, 0, 0), e_p1, e_p2),
            (e_p1, (a / d, 0, (a * a - a) / (d * b)), p1_p2),
            (e_p2, p1_p2, (b / d, (b - a + 1) / d, (b * b - b - a * b + a * a - a) / (d * b))),
        )

        s = a + b
        rot = (
            (1 / d, a * (d - 1 / d) / s, b * (d - 1 / d) / s),
            (1 / d, (-a / d + sg * b) / s, (-b / d - sg * b) / s),
            (1 / d, (-a / d - sg * a) / s, (-b / d + sg * a) / s),
        )
        trace_row = (1, a, b)
        object.__setattr__(self, "coproduct_table", cop)
        object.__setattr__(self, "rotation_rows", rot)
        object.__setattr__(self, "cap_rows", (trace_row, tuple(dot(trace_row, col) for col in zip(*rot))))

    # -- basis elements -------------------------------------------------

    def e(self, side: str = PLUS) -> BoxVec:
        return BoxVec(side, (1.0, 0.0, 0.0))

    def p1(self, side: str = PLUS) -> BoxVec:
        return BoxVec(side, (0.0, 1.0, 0.0))

    def p2(self, side: str = PLUS) -> BoxVec:
        return BoxVec(side, (0.0, 0.0, 1.0))

    def identity(self, side: str = PLUS) -> BoxVec:
        return BoxVec(side, (1.0, 1.0, 1.0))

    def uncappable(self, side: str = PLUS) -> BoxVec:
        """bP1 - aP2, the line killed by all four cap functionals."""
        return BoxVec(side, (0.0, self.b, -self.a))

    # -- structure operations -------------------------------------------

    def product(self, x: BoxVec, y: BoxVec) -> BoxVec:
        return BoxVec(x.side, product_coeffs(x.side, x.coeffs, y.side, y.coeffs))

    def coproduct(self, x: BoxVec, y: BoxVec) -> BoxVec:
        if x.side != y.side:
            raise SideMismatch("operands live on different shadings")
        terms = [
            (xi * yj, c) for xi, row in zip(x.coeffs, self.coproduct_table) for yj, c in zip(y.coeffs, row)
        ]
        return BoxVec(x.side, tuple(sum((xy * c[k] for xy, c in terms), 0j) for k in range(3)))

    def trace(self, x: BoxVec) -> Scalar:
        return dot(self.cap_rows[0], x.coeffs)

    def rotate(self, x: BoxVec) -> BoxVec:
        """1-click rotation; flips the shading."""
        return BoxVec(other_side(x.side), self.rotate_coeffs(x.coeffs, 1))

    def rotate_coeffs(self, coeffs, clicks: int) -> tuple:
        """Coefficients of a box rotated by `clicks`, e.g. re-rooted so that
        old dart `clicks` is the new dart 0.  The rotation squares to the
        identity on these coordinates, so only the parity counts."""
        if clicks % 2 == 0:
            return tuple(coeffs)
        r0, r1, r2 = self.rotation_rows
        return (dot(r0, coeffs), dot(r1, coeffs), dot(r2, coeffs))

    def cap(self, x: BoxVec, pair: int) -> Scalar:
        """Scalar s with the box capped on darts (pair, pair+1) equal to s*strand.

        Pair indices run 0..3 counterclockwise from the $-marker; the right
        closure (pair 2) equals tr(x)/delta, odd pairs pick up one rotation.
        """
        return self.cap_coeffs(x.coeffs, pair)

    def cap_coeffs(self, coeffs, pair: int) -> complex:
        """`cap` on a coefficient triple."""
        return dot(self.cap_rows[pair % 2], coeffs) / self.delta

    # -- derived diagnostics --------------------------------------------

    def chirality_residual(self) -> float:
        """Defect of (bP1-aP2)*(bP1-aP2) = ab(delta e - delta^-1 id) + sigma(b-a)(bP1-aP2)."""
        t = self.uncappable()
        lhs = self.coproduct(t, t)
        ab = self.a * self.b
        rhs = (
            ab * self.delta * self.e()
            - (ab / self.delta) * self.identity()
            + (self.sigma * (self.b - self.a)) * t
        )
        scale = max(1.0, lhs.norm(), rhs.norm())
        return (lhs - rhs).norm() / scale


def from_classification_data(delta: float, sigma: int) -> TwoBoxModel:
    """Model with (a, b) determined by delta and the chirality branch."""
    delta = float(delta)
    if not delta > 1.0:
        raise InadmissibleDelta(f"delta = {delta} must exceed 1")
    if sigma == +1 and abs(delta - DEPTH3_DELTA) > Tolerance.DEPTH3_WINDOW:
        raise ChiralityMismatch(
            f"sigma=+1 forces the depth-3 loop value {DEPTH3_DELTA:.9f}, got {delta}"
        )
    _, a, b = trace_split(delta, sigma)
    return TwoBoxModel(delta, a, b, sigma)


# -- BMW braid elements -------------------------------------------------


@dataclass(frozen=True)
class BraidPair:
    """Bi-invertible braid generator U with inverse V and its parameters."""

    U: BoxVec
    V: BoxVec
    q: Scalar
    r: Scalar

    @classmethod
    def from_qr(cls, q: Scalar, r: Scalar) -> "BraidPair":
        """U = r^-1 e + q P1 - q^-1 P2 and its inverse, unchecked."""
        z1 = 1.0 / r
        U = BoxVec(PLUS, (z1, q, -1.0 / q))
        V = BoxVec(PLUS, (1.0 / z1, 1.0 / q, -q))
        return cls(U=U, V=V, q=q, r=r)


def bmw_two_box_traces(q: Scalar, r: Scalar) -> tuple[Scalar, Scalar, Scalar]:
    """(delta', tr(P1), tr(P2)) of BMW at parameters (q, r)."""
    q, r = complex(q), complex(r)
    eps = Tolerance.REL_EQ
    if abs(r) <= eps:
        raise DegenerateParameters("r must be nonzero")
    for bad in (1.0, -1.0, 1.0j, -1.0j):
        if abs(q - bad) <= eps:
            raise DegenerateParameters(f"q = {bad} makes the trace formulas singular")
    qi, ri = 1.0 / q, 1.0 / r
    dp = (r - ri) / (q - qi) + 1.0
    denom = (q * q - qi * qi) * (q - qi)
    tr1 = (r * q - ri * qi + q * q - qi * qi) * (r - ri) / denom
    tr2 = (r * qi - ri * q + q * q - qi * qi) * (r - ri) / denom
    return dp, tr1, tr2


def braid_pair(model: TwoBoxModel, q: Scalar, r: Scalar) -> BraidPair:
    """U = r^-1 e + q P1 - q^-1 P2 and its inverse, checked against the model.

    The Brauer point q = 1 is admitted through its explicit limit r = 1,
    U = e + P1 - P2.
    """
    q, r = complex(q), complex(r)
    d = model.delta
    match = Tolerance.MATCH
    if Tolerance.at_brauer_point(q):
        if abs(r - 1.0) > Tolerance.REL_EQ:
            raise BrauerDegenerate(f"q = 1 requires r = 1, got r = {r}")
        q, r = 1.0 + 0.0j, 1.0 + 0.0j
        if abs(d - 4.0) > match:
            raise ParameterMismatch(f"Brauer braid needs delta = 4, model has {d}")
    else:
        dp, tr1, tr2 = bmw_two_box_traces(q, r)
        expected_dp = model.sigma * d
        if (
            abs(dp - expected_dp) > match * max(1.0, abs(dp))
            or abs(tr1 - model.a) > match * max(1.0, abs(tr1))
            or abs(tr2 - model.b) > match * max(1.0, abs(tr2))
        ):
            raise ParameterMismatch(
                f"(q, r) = ({q}, {r}) traces do not match model "
                f"(delta={d}, a={model.a}, b={model.b}, sigma={model.sigma})"
            )
    return BraidPair.from_qr(q, r)
