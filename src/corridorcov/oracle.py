"""The SINR kernel, and coverage by deterministic 2D midpoint quadrature over
the corridor cross-section.

`evaluate_sinr` is the package's one SINR kernel: the quadrature here, the
Monte Carlo sampler and the heatmap all call it. It works from the raw SINR
definition (per-BS received powers, association rule, interference mode,
optional noise) with no borderline approximation, so it cross-checks the
closed forms.

How the kernel works. For each base station in turn it forms
``h = |x - x_BS|`` and ``r2 = h**2 + z**2`` and passes ``(h, z, r2)`` to the
beam's ``gain`` and the path-loss model's ``loss`` (the protocol is
described in `propagation`), once per BS per call. It never builds a
(base stations x points) power matrix: strongest association keeps a
running (serving, strongest interferer) pair, or a running sum of all
powers under SUM_ALL interference, and nearest association reads the
serving power out of the same pass.

Grids are cut into blocks of whole rows of about BLOCK_POINTS cells (64k),
so that the kernel's temporaries, a few arrays of 512 KiB, stay in cache;
the Monte Carlo chunks have the same size. The quadrature and the heatmap
share that row-block loop.

Decision identity. Against the direct evaluation with ``hypot``,
``arctan2``, an argmax and a masked copy, the kernel's arithmetic differs
only in the last bits of the SINR values. Serving indices and the
``SINR >= tau`` decisions are not proven equal but checked: on point grids
in the test suite (tests/sinr_reference.py keeps the direct evaluation)
and on the pinned quadrature and Monte Carlo outputs of the benchmark.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from . import defaults
from .geometry import CorridorScenario
from .propagation import (
    AirToGroundPathLoss,
    BeamPattern,
    CosineBeam,
    FreeSpacePathLoss,
    InterferenceMode,
    PathLossModel,
    RectangularBeam,
    db_to_linear,
    suggested_element_count,
)

# Cells per block of the row-block loop.
BLOCK_POINTS = 1 << 16


class Association(enum.Enum):
    STRONGEST = "strongest"
    NEAREST = "nearest"


class BeamKind(enum.Enum):
    RECT = "rect"
    COSINE = "cosine"


@dataclass(frozen=True)
class OracleAssumptions:
    """Everything the point evaluator needs beyond the scenario.

    bs_positions defaults to (-d1, 0, d1, 2*d1): the served BS pair plus one
    interferer on each side. The beam is a kind plus its free parameters and
    is built at each scenario's own tilt (`resolve_beam`), so uptilt sweeps
    move the lobe for every kind. peak_gain_db (rectangular) defaults to the
    297.6/beta dB rule; n_elements (cosine) defaults to the element count
    whose lobe spans the beamwidth at that tilt.
    """

    association: Association = Association.STRONGEST
    interference: InterferenceMode = InterferenceMode.DOMINANT_ONLY
    beam: BeamKind = BeamKind.RECT
    peak_gain_db: float | None = None
    n_elements: int | None = None
    pathloss: PathLossModel = field(default_factory=FreeSpacePathLoss)
    include_noise: bool = True
    bs_positions: tuple[float, ...] | None = None

    def resolve_positions(self, s: CorridorScenario) -> tuple[float, ...]:
        pos = self.bs_positions
        if pos is None:
            pos = (-s.d1, 0.0, s.d1, 2.0 * s.d1)
        if len(pos) < 2:
            raise ValueError("need at least two base stations")
        if any(b <= a for a, b in zip(pos, pos[1:])):
            raise ValueError(f"BS positions must be strictly increasing: {pos}")
        return tuple(float(p) for p in pos)

    def resolve_beam(self, s: CorridorScenario) -> BeamPattern:
        if self.beam is BeamKind.COSINE:
            nt = self.n_elements
            if nt is None:
                nt = suggested_element_count(s.alpha, s.beta)
            return CosineBeam(n_elements=nt, alpha=s.alpha, beta=s.beta)
        gain_db = self.peak_gain_db
        if gain_db is None:
            gain_db = defaults.peak_gain_db(s.beta)
        return RectangularBeam(peak_gain=float(db_to_linear(gain_db)),
                               alpha=s.alpha, beta=s.beta)


def _nearest(x, positions):
    """Index of the horizontally nearest BS per point, for strictly
    increasing positions: the number of BS midpoints left of x, so a point
    halfway between two BSs goes to the lower index."""
    nearest = np.zeros(x.size, dtype=np.intp)
    for left, right in zip(positions, positions[1:]):
        nearest += x > (left + right) / 2.0
    return nearest


def evaluate_sinr(x, z, s: CorridorScenario, a: OracleAssumptions,
                  los_uniforms=None):
    """Serving index and linear SINR at points (x, z).

    Serving is the strongest received power (STRONGEST) or the nearest BS
    (NEAREST); ties go to the lowest BS index. Interference is the strongest
    single non-serving power (DOMINANT_ONLY) or their sum (SUM_ALL). With no
    noise and no interference the SINR is +inf. Where no BS delivers any
    power the serving index falls back to the nearest BS and the SINR is 0.
    With `los_uniforms` (n_bs, n_points) and an air-to-ground model, each
    link's LoS state is the Bernoulli draw u < P_LoS instead of the
    expectation mixture.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    z = np.atleast_1d(np.asarray(z, dtype=float))
    x, z = np.broadcast_arrays(x, z)
    x = x.ravel()
    z = z.ravel()
    positions = a.resolve_positions(s)
    beam = a.resolve_beam(s)
    pathloss = a.pathloss
    draw_los = los_uniforms is not None and isinstance(pathloss, AirToGroundPathLoss)
    lam = s.radio.wavelength_m
    p_tx = s.radio.p_tx_w
    strongest = a.association is Association.STRONGEST
    dominant = a.interference is InterferenceMode.DOMINANT_ONLY

    z2 = z * z
    serving = np.zeros(x.size, dtype=np.intp) if strongest else _nearest(x, positions)
    p_serv = np.zeros(x.size)  # under STRONGEST, the strongest power so far
    other = np.zeros(x.size)   # strongest non-serving power, or sum of all
    for i, pos in enumerate(positions):
        h = np.abs(x - pos)
        r2 = h * h
        r2 += z2
        g = beam.gain(h, z, r2)
        if draw_los:
            los = los_uniforms[i] < pathloss.p_los(h, z)
            pl = pathloss.loss(h, z, r2, lam, los_state=los)
        else:
            pl = pathloss.loss(h, z, r2, lam)
        p = p_tx * g
        p /= pl
        if not dominant:
            other += p
        if strongest:
            if dominant:
                # the runner-up is the larger of itself and min(best, p)
                np.maximum(other, np.minimum(p_serv, p), out=other)
            np.copyto(serving, i, where=p > p_serv)
            np.maximum(p_serv, p, out=p_serv)
        else:
            mine = serving == i
            np.copyto(p_serv, p, where=mine)
            if dominant:
                p[mine] = 0.0
                np.maximum(other, p, out=other)
    if not dominant:
        other -= p_serv
    noise = s.radio.noise_w if a.include_noise else 0.0

    with np.errstate(divide="ignore", invalid="ignore"):
        out = p_serv / (other + noise)
    out[np.isnan(out)] = 0.0  # 0/0: no power, no noise, no interference

    if strongest:
        dead = p_serv == 0.0
        if np.any(dead):
            serving[dead] = _nearest(x[dead], positions)
    return serving, out


def _row_blocks(xs, zs):
    """Cut the grid xs x zs into blocks of whole rows, about BLOCK_POINTS
    cells each. Yields (row slice, x, z) with x and z flattened row-major."""
    n_x = xs.size
    rows_per_block = max(1, BLOCK_POINTS // n_x)
    for k0 in range(0, zs.size, rows_per_block):
        zblock = zs[k0:k0 + rows_per_block]
        yield (slice(k0, k0 + zblock.size), np.tile(xs, zblock.size),
               np.repeat(zblock, n_x))


def _corridor_axes(s: CorridorScenario, n_x: int, n_z: int):
    dx = (s.d1 / 2.0) / n_x
    dz = (s.h2 - s.h1) / n_z
    xs = (np.arange(n_x) + 0.5) * dx
    zs = s.h1 + (np.arange(n_z) + 0.5) * dz
    return xs, zs


def coverage_by_quadrature(s: CorridorScenario, a: OracleAssumptions,
                           n_x: int, n_z: int) -> float:
    """Coverage probability by midpoint rule over [0, d1/2] x [h1, h2]:
    the fraction of cell midpoints with SINR >= tau (uniform UAV density,
    equal cell weights). The aggregate is an integer count, so results are
    identical for any work split."""
    if n_x < 64 or n_z < 64:
        raise ValueError(f"need n_x, n_z >= 64, got {n_x} x {n_z}")
    xs, zs = _corridor_axes(s, n_x, n_z)
    covered = 0
    for _, xx, zz in _row_blocks(xs, zs):
        _, val = evaluate_sinr(xx, zz, s, a)
        covered += int(np.count_nonzero(val >= s.tau))
    return covered / float(n_x * n_z)
