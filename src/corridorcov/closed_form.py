"""Closed-form outage of the linear-border model: one exact band integral.

The model. BS-1..BS-4 sit at x = 0, d1, -d1, 2 d1; inside the half corridor
[0, d1/2] x [h1, h2] that is also their order by distance, because every
perpendicular bisector of two of them lies on x = 0 or x = d1/2. A point is
in a BS's beam when its elevation from that BS lies strictly inside
(alpha, alpha + beta). The cell rule:

- no BS in beam: outage;
- the serving BS is the nearest in-beam BS and the interferer the next
  nearest; a lone in-beam BS covers the point;
- otherwise the point is covered iff it lies on the serving BS's side of the
  pair's border chord.

The chord rule is the same for every (serving, interferer) pair: the chord
joins the z = 0 and z = h2 crossings of the threshold circle
|p - x_i|^2 = tau |p - x_s|^2 on the side of the serving BS that faces the
half corridor (``geometry._border_chord``). BS-1/BS-2 and BS-2/BS-3 give the
paper's borders d2-d3 and d4-d5; the other pairs get the same construction.
Noise is not modelled.

Why the integral is exact. Every boundary is a line x = c + m z: the sides
x = 0 and x = d1/2, the four beam-edge rays x = x_b +- z cot(alpha) and
x = x_b +- z cot(alpha + beta) of each BS, and the six chords. Between two
consecutive event heights (h1, h2 and every crossing of two lines inside
them) the order of the lines is fixed, so every cell between neighbouring
lines keeps its in-beam set, pair and chord side, and its width is linear in
z. The covered length is then linear in z over the band, and its value at
the band's mid-height times the band's height is the band's covered area.

Domain: ``CorridorScenario.require_analytic`` (0 < alpha, alpha + beta <
pi/2, tau > 1) and chords that exist up to h2; a corridor too tall for them
raises ``GeometryInfeasible``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (
    BorderlineGeometry,
    CaseId,
    CorridorScenario,
    CrossingHeights,
    _border_chord,
    borderline_geometry,
    classify_case,
    cot,
    crossing_heights,
)


# the six (serving, interferer) pairs: BS i against a farther BS j > i
_PAIRS = np.triu_indices(4, 1)
# every two of the 24 lines: 2 sides, 4 beam edges of 4 BSs, 6 chords
_LINE_PAIRS = np.triu_indices(2 + 16 + 6, 1)


@dataclass(frozen=True)
class ClosedFormResult:
    """Outage probability with its uptilt case and geometry intermediates.
    p_in + p_out == 1."""

    p_out: float
    p_in: float
    case: CaseId
    borderline: BorderlineGeometry
    crossing: CrossingHeights


def _covered_fraction(s: CorridorScenario) -> float:
    """Covered share of the half corridor under the cell rule."""
    d1, h1, h2 = s.d1, s.h1, s.h2
    half = d1 / 2.0
    bs = np.array([0.0, d1, -d1, 2.0 * d1])  # nearest first
    inner, outer = cot(s.alpha + s.beta), cot(s.alpha)
    # chord[i, j] = (x at z = 0, slope) of BS i serving against BS j
    chord = np.zeros((4, 4, 2))
    for i, j in zip(*_PAIRS):
        x0, x2 = _border_chord(s, bs[i], bs[j])
        chord[i, j] = x0, (x2 - x0) / h2
    c = np.concatenate([[0.0, half], np.repeat(bs, 4), chord[_PAIRS][:, 0]])
    m = np.concatenate([[0.0, 0.0],
                        np.tile([inner, -inner, outer, -outer], 4),
                        chord[_PAIRS][:, 1]])

    a, b = _LINE_PAIRS
    crossing = m[a] != m[b]
    z_cross = (c[b] - c[a])[crossing] / (m[a] - m[b])[crossing]
    # repeated heights only add bands of zero height
    z = np.sort(np.concatenate(
        [[h1, h2], z_cross[(z_cross > h1) & (z_cross < h2)]]))
    z_mid = 0.5 * (z[1:] + z[:-1])

    x = np.sort(np.clip(c + m * z_mid[:, None], 0.0, half), axis=1)
    x_mid = 0.5 * (x[:, 1:] + x[:, :-1])                   # band x cell
    dist = np.abs(x_mid[..., None] - bs)                    # band x cell x BS
    zz = z_mid[:, None, None]
    in_beam = (zz * inner < dist) & (dist < zz * outer)
    rank = in_beam.cumsum(axis=-1)   # reaches k at the k-th nearest in beam
    n_in = rank[..., -1]
    serving = (rank == 1).argmax(axis=-1)
    interferer = (rank == 2).argmax(axis=-1)
    x0, slope = np.moveaxis(chord[serving, interferer], -1, 0)
    border = x0 + slope * z_mid[:, None]
    # each chord crosses z = 0 on its serving BS's corridor side: BS-1 and
    # BS-3 lie left of their chords, BS-2 and BS-4 right of theirs
    serving_side = np.where(bs[serving] < half, x_mid < border, x_mid > border)
    covered = (n_in == 1) | ((n_in > 1) & serving_side)
    length = (np.diff(x, axis=1) * covered).sum(axis=1)
    # min(): rounding in the summed widths must not lift p_in above 1
    return min(float(length @ np.diff(z)) / (half * (h2 - h1)), 1.0)


def outage(s: CorridorScenario) -> ClosedFormResult:
    """Classify the scenario and integrate the linear-border model; returns
    the outage probability with intermediates. Deterministic."""
    case = classify_case(s)
    b = borderline_geometry(s)
    ch = crossing_heights(s)
    p_in = _covered_fraction(s)
    return ClosedFormResult(p_out=1.0 - p_in, p_in=p_in, case=case,
                            borderline=b, crossing=ch)
