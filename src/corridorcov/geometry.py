"""Corridor layout, beam-crossing heights, coverage borderlines and the
six-regime classifier.

Geometry convention: base stations sit on the x axis at height 0 (the BS
antenna height is the origin of all heights). BS-1 is at x = 0, BS-2 at
x = d1, BS-3 at x = -d1, BS-4 at x = 2*d1. The corridor cross-section is the
rectangle [h1, h2] in height; by symmetry only the half region
x in [0, d1/2] is analyzed. All angles are radians internally.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from .propagation import LinkBudget

# Tolerance (meters) for resolving equalities at regime boundaries.
CASE_TIE_TOL_M = 1e-9


class GeometryError(ValueError):
    """Base class for geometry-domain failures."""


class TauOutOfRange(GeometryError):
    """SINR threshold <= 1 (<= 0 dB): the borderline construction needs tau > 1."""


class GeometryInfeasible(GeometryError):
    """A borderline discriminant is negative (corridor too tall for the
    linear-borderline construction)."""


class CaseUndefined(GeometryError):
    """No uptilt regime's defining inequalities hold."""


def cot(x):
    return 1.0 / math.tan(x)


@dataclass(frozen=True)
class CorridorScenario:
    """Corridor geometry plus radio parameters; the single source of truth
    for every evaluator.

    d1: BS spacing (m). h1/h2: corridor bottom/top above the BS antenna
    height (m). alpha: antenna uptilt (rad). beta: beamwidth (rad), the main
    lobe spanning [alpha, alpha+beta]. tau: linear SINR threshold.
    """

    d1: float
    h1: float
    h2: float
    alpha: float
    beta: float
    tau: float
    radio: LinkBudget = field(default_factory=LinkBudget)

    def __post_init__(self):
        for name in ("d1", "h1", "h2", "alpha", "beta", "tau"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.d1 <= 0:
            raise ValueError(f"d1 must be positive, got {self.d1}")
        if not (0 < self.h1 < self.h2):
            raise ValueError(f"need 0 < h1 < h2, got h1={self.h1}, h2={self.h2}")
        if self.tau <= 0:
            raise ValueError(f"tau must be positive (linear), got {self.tau}")
        if self.beta <= 0:
            raise ValueError(f"beta must be positive, got {self.beta}")

    @property
    def tau_db(self) -> float:
        return 10.0 * math.log10(self.tau)

    def require_analytic(self) -> None:
        """Preconditions of the borderline/closed-form machinery, checked by
        every geometry function below. The Monte Carlo and heatmap paths do
        not call this and accept alpha <= 0."""
        if not (self.alpha > 0 and self.alpha + self.beta < math.pi / 2):
            raise GeometryError(
                "analytic paths need 0 < alpha and alpha + beta < pi/2 "
                f"(alpha={math.degrees(self.alpha):.3f} deg, "
                f"beta={math.degrees(self.beta):.3f} deg)")
        if self.tau <= 1.0:
            raise TauOutOfRange(
                f"analytic paths need tau > 1 (> 0 dB), got {self.tau}")

    def replace(self, **kwargs) -> "CorridorScenario":
        from dataclasses import replace
        return replace(self, **kwargs)


@dataclass(frozen=True)
class CrossingHeights:
    """Beam-crossing heights between neighbor BSs: h3 at the midpoint
    (lower edges) and h4 at the side (one upper edge, one lower edge)."""

    h3: float
    h4: float


@dataclass(frozen=True)
class BorderlineGeometry:
    """Straight-line coverage borders of the two interference regions.

    The first border runs from (d2, 0) to (d3, h2) and separates BS-1 from
    BS-2 service at threshold; the second runs from (d4, 0) to (d5, h2) and
    separates BS-2 service from BS-3 interference. gamma1/gamma2 are the
    border inclinations.
    """

    d2: float
    d3: float
    d4: float
    d5: float
    gamma1: float
    gamma2: float


class CaseId(enum.IntEnum):
    """The six uptilt regimes, in increasing-uptilt order."""

    CASE_1 = 1
    CASE_2 = 2
    CASE_3 = 3
    CASE_4 = 4
    CASE_5 = 5
    CASE_6 = 6


def crossing_heights(s: CorridorScenario) -> CrossingHeights:
    """Beam-crossing heights h3 (center) and h4 (side)."""
    s.require_analytic()
    h3 = (s.d1 / 2.0) * math.tan(s.alpha)
    h4 = s.d1 / (cot(s.alpha) + cot(s.alpha + s.beta))
    return CrossingHeights(h3=h3, h4=h4)


def _border_chord(s: CorridorScenario, x_serving: float,
                  x_interferer: float) -> tuple[float, float]:
    """Abscissae at z = 0 and z = h2 of the linearized border of a
    (serving, interferer) pair.

    The border is the threshold circle |p - x_i|^2 = tau |p - x_s|^2 around
    the serving BS. At each height it has two crossings; the chord takes the
    branch whose z = 0 crossing lies on the side of the serving BS that faces
    the half corridor [0, d1/2]. With u = x - x_s and D = x_i - x_s a crossing
    solves (tau - 1) u^2 + 2 D u - (D^2 - (tau - 1) z^2) = 0; both roots are
    taken in their cancellation-free forms, so tau -> 1+ stays accurate.
    """
    d = x_interferer - x_serving
    toward_corridor = 1.0 if x_serving < s.d1 / 2.0 else -1.0
    # the near root lies toward the interferer, the far one behind x_s
    near = math.copysign(1.0, d) == toward_corridor
    t1 = s.tau - 1.0
    out = []
    for z in (0.0, s.h2):
        disc = s.tau * d * d - t1 * t1 * z * z
        if disc < 0:
            raise GeometryInfeasible(
                f"border of the BSs at x={x_serving:g} m and x={x_interferer:g} m "
                f"has a negative discriminant ({disc:.6g}): corridor too tall "
                "for the linear borderline")
        q = d + math.copysign(math.sqrt(disc), d)
        out.append(x_serving + ((d * d - t1 * z * z) / q if near else -q / t1))
    return out[0], out[1]


def borderline_geometry(s: CorridorScenario) -> BorderlineGeometry:
    """Border abscissae d2..d5 and inclinations gamma1/gamma2: BS-1 serving
    against BS-2, and BS-2 serving against BS-3."""
    s.require_analytic()
    d2, d3 = _border_chord(s, 0.0, s.d1)
    d4, d5 = _border_chord(s, s.d1, -s.d1)
    gamma1 = math.atan(s.h2 / (d2 - d3))
    gamma2 = math.atan(s.h2 / (d5 - d4))
    return BorderlineGeometry(d2=d2, d3=d3, d4=d4, d5=d5,
                              gamma1=gamma1, gamma2=gamma2)


def classify_case(s: CorridorScenario) -> CaseId:
    """Pick the uptilt regime from the inequalities among h1, h2, h3, h4 and
    h_c4 = d1 tan(alpha), the height of BS-2's lower beam edge above BS-1.
    Conditions are evaluated in order 1..6; equalities within
    CASE_TIE_TOL_M resolve to the lower case id."""
    ch = crossing_heights(s)
    h1, h2, h3, h4 = s.h1, s.h2, ch.h3, ch.h4
    h_c4 = s.d1 * math.tan(s.alpha)
    tol = CASE_TIE_TOL_M

    def gt(a, b):  # a > b with ties counting as true
        return a > b - tol

    def lt(a, b):
        return a < b + tol

    if gt(h1, h3) and gt(h1, h4):
        return CaseId.CASE_1
    if gt(h1, h3) and lt(h1, h4):
        return CaseId.CASE_2
    if lt(h1, h3) and lt(h1, h4) and gt(h2, h_c4):
        return CaseId.CASE_3
    if lt(h1, h3) and lt(h1, h4) and lt(h4, h2) and lt(h2, h_c4):
        return CaseId.CASE_4
    if lt(h1, h3) and lt(h3, h2) and lt(h2, h4):
        return CaseId.CASE_5
    if lt(h2, h3) and lt(h2, h4):
        return CaseId.CASE_6
    raise CaseUndefined(
        f"no uptilt regime matches h1={h1}, h2={h2}, h3={h3:.6g}, "
        f"h4={h4:.6g}, h_c4={h_c4:.6g}")
