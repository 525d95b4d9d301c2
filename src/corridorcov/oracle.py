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
described in `propagation`), once per BS per call. In Bernoulli LoS mode
the caller passes each link's LoS state, drawn and tested against
``p_los`` by the Monte Carlo sampler (`monte_carlo.los_states`); the
kernel only picks each link's excess loss by it. It never builds a
(base stations x points) power matrix: strongest association keeps a
running (serving, strongest interferer) pair, or under SUM_ALL
interference the serving power and a running sum of the powers that lose
to it, and nearest association reads the serving power out of the same
pass. The serving index is formed only for callers that read it (the
heatmap); the quadrature and the sampler ask for the SINR alone.

Broadcast grid. x and z broadcast against each other, and the results take
their broadcast shape. The row-block loop passes a grid's one row of x and
the block's column of z as `np.broadcast_to` views at the block's shape,
never a tiled copy; the kernel cuts them back to the row and the column
(`propagation._compact`), so ``h`` and ``h**2`` cost one row per BS, and
only ``r2`` and what follows it cost one cell each. Every array argument
of the kernel and of the models still has one value per cell.

Lit windows and dark base stations. A BS adds power only where its lobe
reaches, and a zero power changes no step of any reduction (the strongest
pair, the sum, the nearest BS's power). On a grid block the beam names the
columns outside of which no cell of the block can be lit
(`_lit_columns`, from the block's extreme heights and the same rounded
products as its lobe test). ``r2``, the path loss (given LoS states, on
their columns too), the power and the reduction then run on those columns
only, through views of the running state; the beam's ``gain`` still
covers the whole block and writes zeros outside the window. On sample
points, a BS whose gain is zero at every point of the block is skipped
after its gain. The positive-distance check of the path-loss models still
covers every cell and every BS: on a grid it is made once per BS on the
least ``r2`` of the block, ``min(h**2) + min(z**2)``, which is exact
because rounding is monotone, and the loss is told so (``checked=True``)
and does not pass over the window's ``r2`` again.

Blocks and workspaces. Grids are cut into blocks of whole rows, and the
streamed Monte Carlo sampler's samples into runs, by one loop,
`_sum_blocks`, so the cells in flight stay near BLOCK_POINTS (64k) and the
kernel's temporaries stay in cache. The blocks run one after another in
the caller's thread. Samples that the Monte Carlo evaluator of sweeps
holds across uptilts run in blocks of their own
(`monte_carlo.SampleSet`).

Each call evaluates into one `propagation._Workspace`, the one the caller
passes (a new one when None). The kernel and the models write each
block-sized temporary into named buffers of the workspace with numpy
``out=``, so blocks after the first allocate nothing; a window's
temporaries are views into the same buffers. (A block-sized temporary
that is freed goes back to the OS, and its pages fault in again on the
next block.) Callers that evaluate many uptilts (the sweep evaluators,
`validate`) pass one workspace to every quadrature and Monte Carlo call.
The serving indices and SINR that `evaluate_sinr` returns are views into
the workspace it was given, valid until the next call that is given the
same one.

Decision identity. Against the direct evaluation with ``hypot``,
``arctan2``, an argmax and a masked copy, the kernel's arithmetic differs
only in the last bits of the SINR values. Serving indices and the
``SINR >= tau`` decisions are not proven equal but checked: on point grids
in the test suite (tests/sinr_reference.py keeps the direct evaluation)
and on the pinned quadrature and Monte Carlo outputs of the benchmark.
The in-place forms keep every operation's operands and their order, so
the SINR values equal those of the same kernel with a new array per
temporary, which evaluates every BS on every cell, bit for bit
(tests/sinr_reference.py keeps that one too). A cell outside a BS's
window, or a sample of a skipped BS, has gain exactly 0, so the power the
full evaluation gives it, 0 * p_tx / pl, is +0 whenever the path loss is
a positive number, and adding it changes nothing.

Each cell goes through the same elementwise operations whichever block
holds it, and a workspace's earlier contents are overwritten before they
are read. The quadrature and the sampler add integer counts per block,
and the heatmap's blocks fill disjoint rows, so no result depends on the
block size (tests/test_monte_carlo.py checks Monte Carlo blocks that start
off Philox's 4-draw steps).
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
    _compact,
    _require_distance,
    _Workspace,
    db_to_linear,
    suggested_element_count,
)

# Cells in flight in a row-block loop.
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


def _nearest(x, positions, work):
    """Index of the horizontally nearest BS per point, in the shape of x,
    for strictly increasing positions: the number of BS midpoints left of
    x, so a point halfway between two BSs goes to the lower index."""
    nearest = work.take("nearest", x.shape, np.intp)
    right_of = work.take("right_of", x.shape, bool)
    nearest.fill(0)
    for left, right in zip(positions, positions[1:]):
        nearest += np.greater(x, (left + right) / 2.0, out=right_of)
    return nearest


def evaluate_sinr(x, z, s: CorridorScenario, a: OracleAssumptions,
                  los_states=None, work=None, with_serving=True):
    """Serving index and linear SINR at points (x, z), in the shape that x
    and z broadcast to.

    Serving is the strongest received power (STRONGEST) or the nearest BS
    (NEAREST); ties go to the lowest BS index. Interference is the strongest
    single non-serving power (DOMINANT_ONLY) or their sum (SUM_ALL). With no
    noise and no interference the SINR is +inf. Where no BS delivers any
    power the serving index falls back to the nearest BS and the SINR is 0.
    With `los_states`, booleans (n_bs, *shape) as
    `monte_carlo.los_states` forms them, and an air-to-ground model, each
    link takes its drawn LoS or NLoS excess loss instead of the
    expectation mixture. With `with_serving` false the serving index is not
    formed and None stands in its place.

    Every temporary, and both results, live in the buffers of `work` (a
    `_Workspace`; a new one when None), so the results are views that the
    next call with the same workspace overwrites.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    z = np.atleast_1d(np.asarray(z, dtype=float))
    shape = np.broadcast_shapes(x.shape, z.shape)
    x, z = _compact(x), _compact(z)
    work = _Workspace() if work is None else work
    positions = a.resolve_positions(s)
    beam = a.resolve_beam(s)
    pathloss = a.pathloss
    drawn = los_states is not None and isinstance(pathloss, AirToGroundPathLoss)
    lam = s.radio.wavelength_m
    p_tx = s.radio.p_tx_w
    strongest = a.association is Association.STRONGEST
    dominant = a.interference is InterferenceMode.DOMINANT_ONLY
    # a grid block, x one row and z one column: each BS is evaluated on
    # the columns its lobe can reach only
    grid = x.ndim == z.ndim == 2 and x.shape[0] == z.shape[1] == 1

    h = work.take("h", x.shape)
    z2 = np.multiply(z, z, out=work.take("z2", z.shape))
    r2 = work.take("r2", shape)
    p = work.take("p", shape)          # gain, then received power
    pl = work.take("pl", shape)        # path loss, then scratch
    mask = work.take("mask", shape, bool)
    p_serv = work.take("p_serv", shape)  # under STRONGEST, the strongest so far
    other = work.take("other", shape)    # strongest non-serving power, or sum
    # what loses to the serving power joins the interference
    join = np.maximum if dominant else np.add
    p_serv.fill(0.0)
    other.fill(0.0)
    serving = work.take("serving", shape, np.intp) if with_serving else None
    if not strongest:
        nearest = _nearest(x, positions, work)
        mine = work.take("mine", x.shape, bool)
        if with_serving:
            np.copyto(serving, nearest)
    elif with_serving:
        serving.fill(0)
    cols, cells = None, Ellipsis
    for i, pos in enumerate(positions):
        np.subtract(x, pos, out=h)
        np.abs(h, out=h)
        # h*h has h's shape and borrows the head of p
        hh = np.multiply(h, h, out=work.take("p", x.shape))
        if grid:
            # the least r2 of the block: rounding is monotone
            _require_distance(hh.min() + z2.min())
            cols = beam._lit_columns(h, z, work)
            cells = (Ellipsis, cols)
        np.add(hh[cells], z2, out=r2[cells])
        h_cells = np.broadcast_to(h, shape)  # a view: one value per cell
        beam.gain(h_cells, z, r2, out=p, work=work, cols=cols)
        # a BS that lights no cell adds a power of 0, which changes no
        # step below
        if grid:
            if cols.start == cols.stop:
                continue
        elif not p.any():
            _require_distance(r2.min())
            continue
        p_i, pl_i = p[cells], pl[cells]
        # a grid's distances are checked above
        if drawn:
            pathloss.loss(h_cells[cells], z, r2[cells], lam,
                          los_state=los_states[i][cells], out=pl_i,
                          work=work, checked=grid)
        else:
            pathloss.loss(h_cells[cells], z, r2[cells], lam, out=pl_i,
                          work=work, checked=grid)
        p_i *= p_tx
        p_i /= pl_i
        best, rest = p_serv[cells], other[cells]
        if strongest:
            # the smaller of best and p loses to the serving power: the
            # runner-up if above the one so far, or one more summand
            join(rest, np.minimum(best, p_i, out=pl_i), out=rest)
            if with_serving:
                # serving = i where p > best; serving < i so far, so that
                # is max(serving, i * (p > best)), with no branch per
                # point. pl is free again and holds i * (p > best).
                won = np.multiply(np.greater(p_i, best, out=mask[cells]), i,
                                  out=pl_i.view(np.intp))
                np.maximum(serving[cells], won, out=serving[cells])
            np.maximum(best, p_i, out=best)
        else:
            is_mine = np.equal(nearest[cells], i, out=mine[cells])
            np.copyto(best, p_i, where=is_mine)
            np.copyto(p_i, 0.0, where=is_mine)
            join(rest, p_i, out=rest)
    noise = s.radio.noise_w if a.include_noise else 0.0

    sinr = other
    with np.errstate(divide="ignore", invalid="ignore"):
        sinr += noise
        np.divide(p_serv, sinr, out=sinr)
    # 0/0: no power, no noise, no interference
    np.copyto(sinr, 0.0, where=np.isnan(sinr, out=mask))

    if strongest and with_serving:
        dead = np.equal(p_serv, 0.0, out=mask)
        if dead.any():
            np.copyto(serving, _nearest(x, positions, work), where=dead)
    return serving, sinr


def _sum_blocks(n, cells_each, fn):
    """Sum of the integers fn(lo, hi) over the blocks [lo, hi) that cut
    range(n) into runs of BLOCK_POINTS // cells_each items (at least one),
    where each item is `cells_each` cells (a grid row, or one sample). The
    blocks run one after another in the caller's thread; each caller's
    `fn` closes over its own workspace."""
    size = max(1, BLOCK_POINTS // cells_each)
    return sum(fn(lo, min(lo + size, n)) for lo in range(0, n, size))


def _grid_rows(xs, zs, lo, hi):
    """Rows lo..hi of the grid xs x zs as (x, z): x is the grid's one row
    and z the rows' column, each a `np.broadcast_to` view at the block's
    shape (no copy), which the kernel cuts back to the row and the
    column."""
    z = zs[lo:hi, None]
    shape = (z.size, xs.size)
    return np.broadcast_to(xs, shape), np.broadcast_to(z, shape)


def _midpoints(lo: float, hi: float, n: int) -> np.ndarray:
    """Centers of the n equal cells of [lo, hi]."""
    return lo + (np.arange(n) + 0.5) * ((hi - lo) / n)


def coverage_by_quadrature(s: CorridorScenario, a: OracleAssumptions,
                           n_x: int, n_z: int, work=None) -> float:
    """Coverage probability by midpoint rule over [0, d1/2] x [h1, h2]:
    the fraction of cell midpoints with SINR >= tau (uniform UAV density,
    equal cell weights). The aggregate is an integer count, so results are
    identical for any work split. `work` is a `_Workspace` to reuse across
    calls; a new one when None."""
    if n_x < 64 or n_z < 64:
        raise ValueError(f"need n_x, n_z >= 64, got {n_x} x {n_z}")
    xs = _midpoints(0.0, s.d1 / 2.0, n_x)
    zs = _midpoints(s.h1, s.h2, n_z)

    work = _Workspace() if work is None else work

    def covered(lo, hi):
        x, z = _grid_rows(xs, zs, lo, hi)
        _, val = evaluate_sinr(x, z, s, a, work=work, with_serving=False)
        hit = np.greater_equal(val, s.tau,
                               out=work.take("hit", val.shape, bool))
        return int(np.count_nonzero(hit))

    return _sum_blocks(n_z, n_x, covered) / float(n_x * n_z)
