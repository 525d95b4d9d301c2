"""The six closed-form outage expressions, dispatched on the classified
uptilt regime.

Each case function is a direct transcription of the final algebraic form
(not re-derived from the region integrals). The expressions implicitly
assume their region boundaries fall inside [h1, h2] in increasing order;
where a computed corner height lands outside, it is clamped onto the chain
and the event is reported in the result diagnostics (the clamped value
equals the region-truncated integral, and equals the printed form whenever
the assumptions hold).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import (
    BorderlineGeometry,
    CaseId,
    CornerHeights,
    CorridorScenario,
    CrossingHeights,
    borderline_geometry,
    classify_case,
    corner_heights,
    cot,
    crossing_heights,
)


@dataclass(frozen=True)
class ClosedFormResult:
    """Outage probability with its classification and audit intermediates.

    p_in + p_out == 1 exactly. raw_p_in keeps the unclamped expression value
    (it can stray outside [0, 1] near approximation-breaking geometries);
    value_clamped flags when it did. clamped lists boundary-height clamps.
    """

    p_out: float
    p_in: float
    case: CaseId
    raw_p_in: float
    value_clamped: bool
    clamped: tuple[str, ...]
    borderline: BorderlineGeometry
    crossing: CrossingHeights
    corners: CornerHeights
    case_forced: bool = False


def _chain_clamp(names_values: list[tuple[str, float]], lo: float,
                 hi: float) -> tuple[list[float], tuple[str, ...]]:
    """Clamp an ordered boundary chain into [lo, hi], keeping it monotone."""
    out: list[float] = []
    events: list[str] = []
    prev = lo
    for name, value in names_values:
        clamped = min(max(value, prev), hi)
        if not math.isclose(clamped, value, rel_tol=0.0, abs_tol=1e-9):
            events.append(f"{name}:{value:.6g}->{clamped:.6g}")
        out.append(clamped)
        prev = clamped
    return out, tuple(events)


def _check_finite(case: CaseId, **terms: float) -> None:
    for name, value in terms.items():
        if not math.isfinite(value):
            raise ValueError(
                f"non-finite intermediate {name}={value!r} while evaluating "
                f"case {int(case)}")


def _evaluate(s: CorridorScenario, case: CaseId, b: BorderlineGeometry,
              ch: CrossingHeights, c: CornerHeights) -> tuple[float, tuple[str, ...]]:
    """Raw coverage value of one case expression plus clamp diagnostics."""
    d1, h1, h2 = s.d1, s.h1, s.h2
    ct_a = cot(s.alpha)
    ct_ab = cot(s.alpha + s.beta)
    ct_g1 = cot(b.gamma1)
    ct_g2 = cot(b.gamma2)
    d2, d4 = b.d2, b.d4
    span = h2 - h1
    den = d1 * span
    _check_finite(case, ct_a=ct_a, ct_ab=ct_ab, ct_g1=ct_g1, ct_g2=ct_g2,
                  h3=ch.h3, h4=ch.h4, h_c3=c.h_c3, h_c4=c.h_c4,
                  h_c5=c.h_c5, h_c6=c.h_c6)

    if case is CaseId.CASE_1:
        if c.h_c4 > h1:
            # The printed case-1 form assumes the neighbor BSs' lower beam
            # edges stay below the corridor (h_c4 <= h1), i.e. that the
            # second interferer reaches every corridor height. When h_c4
            # rises above the floor, an interference-free served strip
            # appears at the bottom; the case-2 region structure with its
            # first region truncated empty is the exact evaluation there.
            p_in, ev = _evaluate(s, CaseId.CASE_2, b, ch, c)
            return p_in, ("case1_low_edge_regions",) + ev
        (hc3,), ev = _chain_clamp([("h_c3", c.h_c3)], h1, h2)
        p_in = ((h1 ** 2 - hc3 ** 2) * ct_ab / den
                - (h1 + h2) / d1 * ct_g1
                + 2.0 * d2 / d1
                + (hc3 ** 2 - h2 ** 2) * ct_g2 / den
                - 2.0 * d4 * (h2 - hc3) / den)
        return p_in, ev

    if case is CaseId.CASE_2:
        (h4, hc4, hc5), ev = _chain_clamp(
            [("h4", ch.h4), ("h_c4", c.h_c4), ("h_c5", c.h_c5)], h1, h2)
        p_out = (1.0
                 - (h1 ** 2 - h4 ** 2) * ct_ab / den
                 + (h1 + h2) / d1 * ct_g1
                 - 2.0 * d2 / d1
                 - (hc4 ** 2 - h4 ** 2) * ct_a / den
                 + 2.0 * (hc4 - h4) / span
                 - (hc4 ** 2 - hc5 ** 2) * ct_a / den
                 - 2.0 * (hc5 - hc4) / span
                 - (hc5 ** 2 - h2 ** 2) * ct_g2 / den
                 + 2.0 * d4 * (h2 - hc5) / den)
        return 1.0 - p_out, ev

    if case is CaseId.CASE_3:
        (h3, hc6, h4, hc4, hc5), ev = _chain_clamp(
            [("h3", ch.h3), ("h_c6", c.h_c6), ("h4", ch.h4),
             ("h_c4", c.h_c4), ("h_c5", c.h_c5)], h1, h2)
        p_out = (1.0
                 - (h3 ** 2 - h1 ** 2) * (-ct_ab + ct_a) / den
                 + (hc6 ** 2 - h3 ** 2) * (ct_ab + ct_a) / den
                 - 2.0 * (hc6 - h3) / span
                 + (h2 ** 2 - hc6 ** 2) * ct_g1 / den
                 - 2.0 * d2 * (h2 - hc6) / den
                 + (h4 ** 2 - hc6 ** 2) * ct_ab / den
                 - (hc4 ** 2 - h4 ** 2) * ct_a / den
                 + 2.0 * (hc4 - h4) / span
                 + (hc5 ** 2 - hc4 ** 2) * ct_a / den
                 - 2.0 * (hc5 - hc4) / span
                 + (h2 ** 2 - hc5 ** 2) * ct_g2 / den
                 + 2.0 * d4 * (h2 - hc5) / den)
        return 1.0 - p_out, ev

    if case is CaseId.CASE_4:
        (h3, hc6, h4), ev = _chain_clamp(
            [("h3", ch.h3), ("h_c6", c.h_c6), ("h4", ch.h4)], h1, h2)
        p_out = (1.0
                 - (h3 ** 2 - h1 ** 2) * (-ct_ab + ct_a) / den
                 + (hc6 ** 2 - h3 ** 2) * (ct_ab + ct_a) / den
                 - 2.0 * (hc6 - h3) / span
                 + (h2 ** 2 - hc6 ** 2) * ct_g1 / den
                 - 2.0 * d2 * (h2 - hc6) / den
                 + (h4 ** 2 - hc6 ** 2) * ct_ab / den
                 - (h2 ** 2 - h4 ** 2) * ct_a / den
                 + 2.0 * (h2 - h4) / span)
        return 1.0 - p_out, ev

    if case is CaseId.CASE_5:
        (h3, hc6), ev = _chain_clamp(
            [("h3", ch.h3), ("h_c6", c.h_c6)], h1, h2)
        p_out = (1.0
                 - (h3 ** 2 - h1 ** 2) * (-ct_ab + ct_a) / den
                 + (hc6 ** 2 - h3 ** 2) * (ct_ab + ct_a) / den
                 - 2.0 * (hc6 - h3) / span
                 + (h2 ** 2 - hc6 ** 2) * (ct_ab + ct_g1) / den
                 - 2.0 * d2 * (h2 - hc6) / den)
        return 1.0 - p_out, ev

    if case is CaseId.CASE_6:
        p_in = (h2 + h1) / d1 * (-ct_ab + ct_a)
        return p_in, ()

    raise ValueError(f"unknown case {case!r}")


def outage(s: CorridorScenario, force_case: CaseId | None = None) -> ClosedFormResult:
    """Classify the scenario, evaluate the matching closed form and return
    the outage probability with intermediates. Deterministic."""
    case = force_case if force_case is not None else classify_case(s)
    b = borderline_geometry(s)
    ch = crossing_heights(s)
    c = corner_heights(s, b)
    raw_p_in, clamp_events = _evaluate(s, case, b, ch, c)
    if not math.isfinite(raw_p_in):
        raise ValueError(f"case {int(case)} expression evaluated non-finite")
    p_in = min(max(raw_p_in, 0.0), 1.0)
    return ClosedFormResult(
        p_out=1.0 - p_in,
        p_in=p_in,
        case=case,
        raw_p_in=raw_p_in,
        value_clamped=(p_in != raw_p_in),
        clamped=clamp_events,
        borderline=b,
        crossing=ch,
        corners=c,
        case_forced=force_case is not None,
    )
