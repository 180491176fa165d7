"""The 3-dimensional 2-box spaces with full structure constants.

Basis order is (e, P1, P2) with tr(P1) <= tr(P2); the other shading
(ebar, Q1, Q2) carries identical structure constants, so a BoxVec only
needs a side tag to police rotation bookkeeping.  The coproduct tables,
the rotation matrix and the chirality identity are all functions of
(delta, a, b, sigma) alone.
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
    MultipleSolutions,
    NoPositiveRoot,
    NoSolution,
    ParameterMismatch,
    SideMismatch,
)
from .scalar import DEFAULT_TOL, Scalar, Tolerance, solve_quadratic

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

    def __neg__(self) -> "BoxVec":
        return (-1.0) * self

    @property
    def vec(self) -> np.ndarray:
        return np.array(self.coeffs, dtype=complex)

    def norm(self) -> float:
        return float(np.linalg.norm(self.vec))


def _trace_ratio(delta: float, sigma: int, tol: Tolerance) -> float:
    """The ratio y = b/a determined by delta and the chirality sigma."""
    if sigma == +1:
        disc = (9.0 - 4.0 * delta) * (delta + 1.0) ** 2
        if disc < -tol.eq_tol:
            raise ChiralityInfeasible(
                f"sigma=+1 has no real trace ratio at delta={delta} (needs delta <= 9/4)"
            )
        r1, r2 = solve_quadratic(delta, -(delta + 3.0), delta * delta - 2.0, tol)
        y = max(r1.real, r2.real)
    else:
        y = (delta - 3.0 + (delta - 1.0) * math.sqrt(4.0 * delta + 9.0)) / (2.0 * delta)
    if y <= 0:
        raise NoPositiveRoot(f"trace ratio {y} not positive at delta={delta}")
    return float(y)


def trace_split(delta: float, sigma: int, tol: Tolerance = DEFAULT_TOL):
    """(y, a, b) with y = b/a, a + b = delta^2 - 1, for the given chirality."""
    y = _trace_ratio(delta, sigma, tol)
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
    """Structure constants of the 2-box spaces at one classification point."""

    delta: float
    a: float
    b: float
    sigma: int
    coproduct_table: np.ndarray = field(init=False, repr=False, compare=False)
    trace_vec: np.ndarray = field(init=False, repr=False, compare=False)
    rotation: np.ndarray = field(init=False, repr=False, compare=False)
    rotation_rows: tuple = field(init=False, repr=False, compare=False)
    cap_rows: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.sigma not in (+1, -1):
            raise ValueError("sigma must be +1 or -1")
        d, a, b = self.delta, self.a, self.b

        cop = np.zeros((3, 3, 3), dtype=complex)
        cop[0, 0] = (1.0 / d, 0.0, 0.0)
        cop[0, 1] = cop[1, 0] = (0.0, 1.0 / d, 0.0)
        cop[0, 2] = cop[2, 0] = (0.0, 0.0, 1.0 / d)
        cop[1, 1] = (a / d, 0.0, (a * a - a) / (d * b))
        cop[1, 2] = cop[2, 1] = (0.0, (a - 1.0) / d, (a * b - a * a + a) / (d * b))
        cop[2, 2] = (
            b / d,
            (b - a + 1.0) / d,
            (b * b - b - a * b + a * a - a) / (d * b),
        )

        s = a + b
        rot = np.array(
            [
                [1.0 / d, a * (d - 1.0 / d) / s, b * (d - 1.0 / d) / s],
                [1.0 / d, (-a / d + self.sigma * b) / s, (-b / d - self.sigma * b) / s],
                [1.0 / d, (-a / d - self.sigma * a) / s, (-b / d + self.sigma * a) / s],
            ],
            dtype=complex,
        )

        trace_vec = np.array([1.0, a, b], dtype=complex)
        object.__setattr__(self, "coproduct_table", cop)
        object.__setattr__(self, "trace_vec", trace_vec)
        object.__setattr__(self, "rotation", rot)
        # The rotation and the trace as rows of Python complex numbers, for
        # the skein engine's per-step arithmetic on coefficient triples;
        # dot(cap_rows[k], x) is the trace of x rotated k clicks (k = 0, 1).
        object.__setattr__(self, "rotation_rows", tuple(tuple(map(complex, row)) for row in rot))
        object.__setattr__(
            self, "cap_rows", (tuple(map(complex, trace_vec)), tuple(map(complex, trace_vec @ rot)))
        )

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

    def basis(self, side: str = PLUS) -> list[BoxVec]:
        return [self.e(side), self.p1(side), self.p2(side)]

    # -- structure operations -------------------------------------------

    def product(self, x: BoxVec, y: BoxVec) -> BoxVec:
        return BoxVec(x.side, product_coeffs(x.side, x.coeffs, y.side, y.coeffs))

    def coproduct(self, x: BoxVec, y: BoxVec) -> BoxVec:
        if x.side != y.side:
            raise SideMismatch("operands live on different shadings")
        out = np.einsum("i,j,ijk->k", x.vec, y.vec, self.coproduct_table)
        return BoxVec(x.side, tuple(out))

    def trace(self, x: BoxVec) -> Scalar:
        return complex(self.trace_vec @ x.vec)

    def rotate(self, x: BoxVec) -> BoxVec:
        """1-click rotation; flips the shading."""
        return BoxVec(other_side(x.side), tuple(self.rotation @ x.vec))

    def rotate_coeffs(self, coeffs, clicks: int) -> tuple:
        """Coefficients of a box rotated by `clicks`, e.g. re-rooted so that
        old dart `clicks` is the new dart 0.  The rotation squares to the
        identity on these coordinates, so only the parity counts."""
        if clicks % 2 == 0:
            return tuple(coeffs)
        return tuple(dot(row, coeffs) for row in self.rotation_rows)

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


def from_classification_data(
    delta: float, sigma: int, tol: Tolerance = DEFAULT_TOL
) -> TwoBoxModel:
    """Model with (a, b) determined by delta and the chirality branch."""
    delta = float(delta)
    if not delta > 1.0:
        raise InadmissibleDelta(f"delta = {delta} must exceed 1")
    if sigma == +1 and abs(delta - DEPTH3_DELTA) > tol.DEPTH3_WINDOW:
        raise ChiralityMismatch(
            f"sigma=+1 forces the depth-3 loop value {DEPTH3_DELTA:.9f}, got {delta}"
        )
    _, a, b = trace_split(delta, sigma, tol)
    return TwoBoxModel(delta, a, b, sigma)


# -- BMW braid elements -------------------------------------------------


@dataclass(frozen=True)
class BraidPair:
    """Bi-invertible braid generator U with inverse V and its parameters."""

    U: BoxVec
    V: BoxVec
    q: Scalar
    r: Scalar
    z1: Scalar
    z2: Scalar

    @classmethod
    def from_qr(cls, q: Scalar, r: Scalar) -> "BraidPair":
        """U = r^-1 e + q P1 - q^-1 P2 and its inverse, unchecked."""
        z1 = 1.0 / r
        U = BoxVec(PLUS, (z1, q, -1.0 / q))
        V = BoxVec(PLUS, (1.0 / z1, 1.0 / q, -q))
        return cls(U=U, V=V, q=q, r=r, z1=z1, z2=-r)


def bmw_two_box_traces(
    q: Scalar, r: Scalar, tol: Tolerance = DEFAULT_TOL
) -> tuple[Scalar, Scalar, Scalar]:
    """(delta', tr(P1), tr(P2)) of BMW at parameters (q, r)."""
    q, r = complex(q), complex(r)
    if abs(r) <= tol.eq_tol:
        raise DegenerateParameters("r must be nonzero")
    for bad in (1.0, -1.0, 1.0j, -1.0j):
        if abs(q - bad) <= tol.eq_tol:
            raise DegenerateParameters(f"q = {bad} makes the trace formulas singular")
    qi, ri = 1.0 / q, 1.0 / r
    dp = (r - ri) / (q - qi) + 1.0
    denom = (q * q - qi * qi) * (q - qi)
    tr1 = (r * q - ri * qi + q * q - qi * qi) * (r - ri) / denom
    tr2 = (r * qi - ri * q + q * q - qi * qi) * (r - ri) / denom
    return dp, tr1, tr2


def unique_braid_check(
    q: Scalar, r: Scalar, tol: Tolerance = DEFAULT_TOL
) -> tuple[Scalar, Scalar]:
    """The unique (c1, c2) in {q, -1/q}^2 solving the closure equation."""
    q, r = complex(q), complex(r)
    if abs(q * q - 1.0) <= tol.match_tol or abs(q * q + 1.0) <= tol.match_tol:
        raise MultipleSolutions("sign candidates coincide at q^4 = 1")
    dp, tr1, tr2 = bmw_two_box_traces(q, r, tol)
    target = dp * r - 1.0 / r
    scale = max(1.0, abs(target), abs(tr1), abs(tr2))
    hits = []
    for c1 in (q, -1.0 / q):
        for c2 in (q, -1.0 / q):
            if abs(c1 * tr1 + c2 * tr2 - target) <= tol.closure_tol * scale:
                hits.append((c1, c2))
    if not hits:
        raise NoSolution(f"no closure solution at q={q}, r={r}")
    if len(hits) > 1:
        raise MultipleSolutions(f"{len(hits)} closure solutions at q={q}, r={r}")
    return hits[0]


def braid_pair(
    model: TwoBoxModel, q: Scalar, r: Scalar, tol: Tolerance = DEFAULT_TOL
) -> BraidPair:
    """U = r^-1 e + q P1 - q^-1 P2 and its inverse, checked against the model.

    The Brauer point q = 1 is admitted through its explicit limit r = 1,
    U = e + P1 - P2.
    """
    q, r = complex(q), complex(r)
    d = model.delta
    if tol.at_brauer_point(q):
        if abs(r - 1.0) > tol.eq_tol:
            raise BrauerDegenerate(f"q = 1 requires r = 1, got r = {r}")
        q, r = 1.0 + 0.0j, 1.0 + 0.0j
        if abs(d - 4.0) > tol.match_tol:
            raise ParameterMismatch(f"Brauer braid needs delta = 4, model has {d}")
    else:
        dp, tr1, tr2 = bmw_two_box_traces(q, r, tol)
        expected_dp = model.sigma * d
        if (
            abs(dp - expected_dp) > tol.match_tol * max(1.0, abs(dp))
            or abs(tr1 - model.a) > tol.match_tol * max(1.0, abs(tr1))
            or abs(tr2 - model.b) > tol.match_tol * max(1.0, abs(tr2))
        ):
            raise ParameterMismatch(
                f"(q, r) = ({q}, {r}) traces do not match model "
                f"(delta={d}, a={model.a}, b={model.b}, sigma={model.sigma})"
            )
    return BraidPair.from_qr(q, r)
