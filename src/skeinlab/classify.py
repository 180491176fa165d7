"""End-to-end classification pipeline for the dim(3-box) = 14 loop values.

Given a loop value delta, decide whether it sits on one of the admissible
loci (the depth-3 cubic point, the root-of-unity series, or the real
continuum delta >= 4), solve for the trace split (y, a, b), recover the
braid parameters (q, r), and verify every defining relation numerically.
The verdict is PASS only when all residuals clear their tolerances;
inadmissible loop values are REJECTED, not errored.

`Stages` is that pipeline, each stage built once on first use: `classify`
reads every stage, each CLI subcommand only the stages it reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

from .errors import (
    DegenerateDenominator,
    InadmissibleDelta,
    NoCanonicalRepresentative,
    NonFiniteScalar,
    SkeinlabError,
    SupportAmbiguous,
)
from .scalar import DEFAULT_TOL, Scalar, Tolerance, is_real, principal_q_from_c
from .threebox import gram, reidemeister_residuals, solve_triangle, ybe_residual
from .twobox import (
    DEPTH3_DELTA,
    BraidPair,
    TwoBoxModel,
    bmw_two_box_traces,
    braid_pair,
    trace_split,
)

# Least l of the series: odd l are not unitary (Wenzl 1990), l = 10 has 3-box rank 13.
L_SERIES_MIN = 12
# Float64 inverts delta_for_l to within _UNIT_ROUNDOFF * l**3 (1/90 of it at
# every even l <= 2e5), which reaches 1/2 at L_SERIES_LIMIT, about 1.65e5.
_UNIT_ROUNDOFF = math.ulp(1.0) / 2
L_SERIES_LIMIT = (2 * _UNIT_ROUNDOFF) ** (-1 / 3)


def delta_for_l(l: int) -> float:
    """Loop value of the root-of-unity point: q = e^{i pi/l}."""
    return 2.0 * math.cos(2.0 * math.pi / l) + 2.0 * math.cos(4.0 * math.pi / l)


@dataclass(frozen=True)
class Admissibility:
    case: str  # "Depth3" | "Sp4" | "Rejected"
    l: int | None = None
    note: str = ""
    delta: float = field(default=math.nan, compare=False)
    """The loop value as the stages read it: a float, +-inf past the float
    range, and the root itself at the depth-3 point."""


def admissible_check(delta: float) -> Admissibility:
    """Locate delta on the classification locus, or reject it.  delta is
    made a float here, once; an integer past the float range is +-inf."""
    try:
        delta = float(delta)
    except OverflowError:  # an integer past the float range
        delta = math.inf if delta > 0 else -math.inf
    if not 0 < delta < math.inf:
        note = "is not positive" if delta <= 0 else "is not finite"
        return Admissibility("Rejected", note=f"delta = {delta} {note}", delta=delta)
    if abs(delta - DEPTH3_DELTA) < Tolerance.DEPTH3_WINDOW:
        # Snap a typed approximation to the root.
        return Admissibility("Depth3", note="cubic depth-3 loop value", delta=DEPTH3_DELTA)
    if delta >= 4.0:
        return Admissibility("Sp4", note="real continuum, q >= 1", delta=delta)
    # delta_for_l(l') = delta at sin(pi/l')^2 = (4 - delta) / (10 + 2 sqrt(4 delta + 9)).
    lp = math.pi / math.asin(math.sqrt((4.0 - delta) / (10.0 + math.sqrt(16.0 * delta + 36.0))))
    l = 2 * round(lp / 2)
    if lp >= L_SERIES_LIMIT:
        why = f"past float64's limit of about {L_SERIES_LIMIT:.6g}, where neighbouring even l merge"
    elif l < L_SERIES_MIN:
        why = f"less than {L_SERIES_MIN}"
    elif abs(lp - l) > _UNIT_ROUNDOFF * lp**3:
        why = f"{abs(lp - l):.2g} off the even l = {l}"
    else:
        return Admissibility("Sp4", l=l, note=f"root-of-unity point l = {l}", delta=delta)
    note = f"delta = {delta} is off the even-l series: l' = {lp:.6g} is {why}"
    return Admissibility("Rejected", note=note, delta=delta)


def recover_qr(delta: float, a: float, b: float, sigma: int = -1) -> tuple[Scalar, Scalar]:
    """Braid parameters (q, r) from (delta, a, b), using delta' = sigma*delta.

    q solves q^2 + q^-2 = (2(d-1)^4 - 4(d-1)^2 + 2(b-a)^2) / ((d-1)^4 - (b-a)^2)
    with d = delta'; r follows from the closure of the twisted strand.  The
    Brauer point q = 1 is returned with its limit r = 1.
    """
    dp = sigma * float(delta)
    try:
        u = (dp - 1.0) ** 2
        w = (b - a) ** 2
    except OverflowError:
        raise NonFiniteScalar(f"(delta'-1)^2 or (b-a)^2 overflows at delta={delta}") from None
    denom = u * u - w
    scale = max(1.0, abs(u * u), abs(w))
    if abs(denom) <= Tolerance.REL_EQ * scale:
        raise DegenerateDenominator(
            f"(delta'-1)^4 - (b-a)^2 = {denom} vanishes at delta={delta}"
        )
    c = (2.0 * u * u - 4.0 * u + 2.0 * w) / denom
    q = principal_q_from_c(c)
    if Tolerance.at_brauer_point(q):
        return complex(1.0), complex(1.0)
    r = (u * (q - 1.0 / q) + (a - b) * (q + 1.0 / q)) / (2.0 * (dp - 1.0))
    # On the unit-circle branch the modulus is exact; snap the float noise.
    if abs(abs(q) - 1.0) <= Tolerance.REL_EQ and abs(abs(r) - 1.0) <= Tolerance.MATCH:
        r /= abs(r)
    if is_real(q) and is_real(r):
        r = complex(r.real, 0.0)
    return q, r


def _bmw_orbit(r: Scalar, q: Scalar) -> list[tuple[Scalar, Scalar]]:
    """Closure of (r, q) under the parameter symmetries
    (r,q) -> (-r,-q), (r^-1,q^-1), (-r^-1,q)."""
    seen = {}
    stack = [(complex(r), complex(q))]
    while stack:
        rr, qq = stack.pop()
        key = (round(rr.real, 12), round(rr.imag, 12), round(qq.real, 12), round(qq.imag, 12))
        if key in seen:
            continue
        seen[key] = (rr, qq)
        stack.extend(
            [(-rr, -qq), (1.0 / rr, 1.0 / qq), (-1.0 / rr, qq)]
        )
        if len(seen) > 16:  # pragma: no cover - the group is small
            break
    return list(seen.values())


def normalize_bmw_params(r: Scalar, q: Scalar) -> tuple[Scalar, Scalar]:
    """Canonical orbit representative: Re q >= 0, Im q >= 0, Re r >= 0 on the
    unit circle, or q >= 1, r >= 0 in the real case."""
    r, q = complex(r), complex(q)
    eps = Tolerance.REL_EQ
    unit = abs(abs(q) - 1.0) <= eps and abs(abs(r) - 1.0) <= eps
    candidates = []
    for rr, qq in _bmw_orbit(r, q):
        if unit:
            ok = qq.real >= -eps and qq.imag >= -eps and rr.real >= -eps
        else:
            ok = is_real(qq) and is_real(rr) and qq.real >= 1.0 - eps and rr.real >= -eps
        if ok:
            candidates.append((rr, qq))
    if not candidates:
        raise NoCanonicalRepresentative(
            f"orbit of (r, q) = ({r}, {q}) misses the normalization region"
        )
    # Deterministic tie-break when the region boundary is hit.
    rr, qq = min(
        candidates, key=lambda p: (round(p[1].real, 12), round(p[1].imag, 12),
                                   round(p[0].real, 12), round(p[0].imag, 12))
    )
    return rr, qq


# -- principal graph prefix ---------------------------------------------


@dataclass(frozen=True)
class PrincipalGraphPrefix:
    """The hat-shaped graph up to depth 3."""

    depth2_weights: dict[str, float]
    depth3_neighbors: dict[str, tuple[str, ...]]
    edge_multiplicities: dict[tuple[str, str], int]
    supports: dict[str, tuple[str, ...]]


_BASIS_NAMES = ("e", "P1", "P2")


def _support(coeffs) -> tuple[str, ...]:
    scale = max(1.0, *map(abs, coeffs))
    lo = Tolerance.REL_EQ * scale
    hi = Tolerance.SUPPORT_BAND * lo
    out = []
    for name, c in zip(_BASIS_NAMES, coeffs):
        mag = abs(c)
        if mag < lo:
            continue
        if mag < hi:
            raise SupportAmbiguous(
                f"coefficient of {name} is {mag:.3e}, inside the ambiguity band"
            )
        out.append(name)
    return tuple(out)


def principal_graph_prefix(model: TwoBoxModel) -> PrincipalGraphPrefix:
    """Depth-3 prefix inferred from the coproduct supports."""
    cop = model.coproduct_table
    supports = {
        "P1*P1": _support(cop[1][1]),
        "P1*P2": _support(cop[1][2]),
        "P2*P2": _support(cop[2][2]),
    }
    expected = {
        "P1*P1": ("e", "P2"),
        "P1*P2": ("P1", "P2"),
        "P2*P2": ("e", "P1", "P2"),
    }
    if supports != expected:
        raise SkeinlabError(
            f"coproduct supports {supports} off the classification pattern"
        )
    # Two depth-3 vertices: w1 shared between P1 and P2, w2 hangs off P2;
    # path counting then gives dim(S_3) = 9 + 4 + 1 = 14.
    neighbors = {"w1": ("P1", "P2"), "w2": ("P2",)}
    mults = {("w1", "P1"): 1, ("w1", "P2"): 1, ("w2", "P2"): 1}
    return PrincipalGraphPrefix(
        depth2_weights={"P1": model.a, "P2": model.b},
        depth3_neighbors=neighbors,
        edge_multiplicities=mults,
        supports=supports,
    )


# -- end-to-end pipeline -------------------------------------------------


class Stages:
    """The pipeline at one loop value, which alone fixes every number in
    it.  The locus (case, sigma, the delta `admissible_check` gives) is
    found up front; each later stage is computed on first read (the
    triangle table only by `evaluate` at a 3-gon).  A rejected loop value
    has no stages: reading one raises InadmissibleDelta."""

    def __init__(self, delta: float):
        self.admissibility = adm = admissible_check(delta)
        self.delta = adm.delta
        self.rejected = adm.case == "Rejected"
        self.sigma = {"Depth3": +1, "Sp4": -1}.get(adm.case, 0)

    @cached_property
    def split(self) -> tuple[float, float, float]:
        if self.rejected:  # every later stage starts from the split
            raise InadmissibleDelta(self.admissibility.note)
        return trace_split(self.delta, self.sigma)

    @cached_property
    def model(self) -> TwoBoxModel:
        _, a, b = self.split
        return TwoBoxModel(self.delta, a, b, self.sigma)

    @cached_property
    def qr(self) -> tuple[Scalar, Scalar]:
        _, a, b = self.split
        return recover_qr(self.delta, a, b, self.sigma)

    @cached_property
    def braid(self) -> BraidPair:
        q, r = self.qr
        return braid_pair(self.model, q, r)

    @cached_property
    def gram(self):
        return gram(self.model)

    @cached_property
    def table(self):
        return solve_triangle(self.model, self.gram)

    def perturbed_braid(self, factor: float) -> BraidPair:
        """The braid generator with q scaled by factor (r kept); any factor
        but 1 is a negative control that must fail the braid relations."""
        return BraidPair.from_qr(self.braid.q * factor, self.braid.r)

    def braid_residuals(self, braid: BraidPair) -> dict[str, float]:
        """Yang-Baxter and Reidemeister residuals of braid; no triangle table."""
        ybe = ybe_residual(self.model, braid, self.gram)
        r1, r2, quad = reidemeister_residuals(self.model, braid)
        return {"ybe": ybe, "r1": r1, "r2": r2, "quad": quad}


@dataclass
class ClassificationResult:
    case: str
    delta: float
    sigma: int = 0
    l: int | None = None
    y: float | None = None
    a: float | None = None
    b: float | None = None
    q: Scalar | None = None
    r: Scalar | None = None
    residuals: dict[str, float] = field(default_factory=dict)
    verdict: str = "REJECTED"
    notes: list[str] = field(default_factory=list)
    graph: PrincipalGraphPrefix | None = None


def classify(delta: float, tol: Tolerance = DEFAULT_TOL) -> ClassificationResult:
    """Every stage at delta, judged against tol's limits: tol moves the
    verdict, never a number."""
    st = Stages(delta)
    delta, sigma, adm = st.delta, st.sigma, st.admissibility
    result = ClassificationResult(case=adm.case, delta=delta, sigma=sigma, l=adm.l, notes=[adm.note])
    if st.rejected:
        return result
    try:
        result.y, result.a, result.b = st.split
        q, r = result.q, result.r = st.qr
        braid = st.braid

        residuals: dict[str, float] = {
            "chirality": st.model.chirality_residual(),
            "gram_psd_min_eigenvalue": st.gram.psd_defect(),
        }
        residuals.update(st.braid_residuals(braid))

        if Tolerance.at_brauer_point(q):
            residuals["qr_roundtrip"] = 0.0
            result.notes.append("Brauer point: roundtrip taken as the q -> 1 limit")
        else:
            dp, t1, t2 = bmw_two_box_traces(q, r)
            scale = max(1.0, delta * delta)
            residuals["qr_roundtrip"] = (
                max(abs(dp - sigma * delta), abs(t1 - result.a), abs(t2 - result.b)) / scale
            )

        result.residuals = residuals
        result.graph = principal_graph_prefix(st.model)
        bad = tol.over_limits(residuals)
        if bad:
            result.verdict = "FAIL"
            result.notes.append(f"residuals over tolerance: {', '.join(bad)}")
        else:
            result.verdict = "PASS"
    except SkeinlabError as exc:
        result.verdict = "FAIL"
        result.notes.append(f"{type(exc).__name__}: {exc}")
    return result
