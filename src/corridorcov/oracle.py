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
``p_los`` by the Monte Carlo sampler (`monte_carlo.los_states`), as one
bit per link: the kernel reads BS i's bit of each point and only picks
the link's excess loss by it. It never builds a (base stations x points)
power matrix: strongest association keeps a running (serving, strongest
interferer) pair, or under SUM_ALL interference the serving power and a
running sum of the powers that lose to it, and nearest association reads
the serving power out of the same pass. The serving index is formed only for callers that read it (the
heatmap); the quadrature and the sampler ask for the SINR alone.

Point layouts. The kernel takes three: a grid block (a row of x and a
column of z, below), a slab of held Monte Carlo samples (``slab=True``:
1-D samples sorted by height, see `monte_carlo.SampleSet`), and any other
points, such as a block of streamed samples. Each BS goes through the same
steps on each of them; only the way its lit window is found differs.

Broadcast grid. x and z broadcast against each other, and the results take
their broadcast shape. The row-block loop passes a grid's one row of x and
the block's column of z as `np.broadcast_to` views at the block's shape,
never a tiled copy; the kernel cuts them back to the row and the column
(`propagation._compact`), so ``h`` and ``h**2`` cost one row per BS, and
only ``r2`` and what follows it cost one cell each, of the BS's window on a
grid block (below). The kernel hands ``gain`` the row of ``h`` as a view at
the block's shape and ``loss`` that view cut to the window, so the
benchmark's tracer, which counts a call's points by its first array
argument, counts gain points in block cells and loss points in window
cells.

Lit windows and dark base stations. A BS adds power only where its lobe
reaches, and a zero power changes no step of any reduction (the strongest
pair, the sum, the nearest BS's power). The beam names, for each BS, a
window outside of which no point of the block can be lit, and inside it,
for the rectangular beam, a fully lit core where every point is lit (or
None). On a grid block the window is a run of columns and the core a run
of them (`_lit_columns`, from the row of ``h`` and the block's extreme
heights, with the same rounded products as the lobe test). On a slab the
slab's extreme x bound each BS's distances to its samples, to
``[0, far]`` when the BS lies inside the slab's x range, and the window
and the core are runs of the sorted heights (`_lit_samples`, a search of
the heights for the edge products at those two distances). On other
points the window is the whole block, with no core, and so is every
window of the cosine beam. ``r2``, the gain, the path loss (and the
link's LoS bit) and the power are then formed in buffers of the window's
own shape (a grid's rows by the window's columns), so each of their
passes runs over contiguous memory. Only the running serving and
interference state stays block-wide; the reduction updates it through a
view of the window. ``gain`` fills the peak gain on the core with no test
per cell and tests the cells on either side of it. A BS whose window is
empty, or whose gain is zero at every point of a window with no core, is
skipped after its gain (on a slab, an empty window before it).

Distances. The path-loss models need a positive distance at every point
of every BS, lit or not, and the kernel checks that once per BS on every
layout: the block's extreme x bound the BS's least distance ``near``
(`_h_range`, 0 when the BS lies inside them) and its extreme heights the
least ``z**2``, and every ``r2`` is at least ``near**2 + min(z**2)``
because rounding is monotone. Only where that bound is not positive does
it check every ``r2`` of the block. The loss is told so (``checked=True``)
and does not pass over the window's ``r2`` again.

Blocks and workspaces. Grids are cut into blocks of whole rows, and the
streamed Monte Carlo sampler's samples into runs, by one loop,
`_sum_blocks`, so the cells in flight stay near BLOCK_POINTS (64k) and the
kernel's temporaries stay in cache. The blocks run one after another in
the caller's thread. Samples that the Monte Carlo evaluator of sweeps
holds across uptilts run slab by slab (`monte_carlo.SampleSet`). Each
field and Monte Carlo call resolves the beam and the BS positions once
and passes them to the kernel for every block. The quadrature leaves
that to the kernel, once per block (316 calls in a `validate` at the
defaults, about 4 ms): `perfbench/selftest.py` holds `evaluate_sinr` as
its only traced child.

Each call evaluates into one `propagation._Workspace`, the one the caller
passes (a new one when None). The kernel and the models write each
temporary into named buffers of the workspace with numpy ``out=``, so
blocks after the first allocate nothing. The kernel sizes the window
buffers (``r2``, ``p``, ``pl``) for the whole block once per call and
then takes each window's temporaries as the contiguous head of the same
buffers, so no window allocates either. (A block-sized temporary that is
freed goes back to the OS, and its pages fault in again on the next
block.) Callers that evaluate many uptilts (the sweep evaluators,
`validate`) pass one workspace to every quadrature and Monte Carlo call.
The serving indices and SINR that `evaluate_sinr` returns are views into
the workspace it was given, valid until the next call that is given the
same one. The held Monte Carlo path reserves every buffer of its
workspace at its largest slab (`_Workspace.reserve`), since slabs and
windows come in many sizes.

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


def _h_range(x_lo, x_hi, pos):
    """Least and greatest horizontal distance |x - pos| over x in
    [x_lo, x_hi], formed as the kernel forms h (each rounding is
    monotone): 0 is the least when pos lies in the range."""
    near, far = sorted((abs(x_lo - pos), abs(x_hi - pos)))
    return (0.0 if x_lo <= pos <= x_hi else near), far


def _bit(row, bit, work):
    """Bit `bit` of each byte of `row`, as booleans in a buffer of
    `work`."""
    out = np.bitwise_and(row, 1 << bit,
                         out=work.take("los.bit", row.shape, np.uint8))
    return np.minimum(out, 1, out=out).view(bool)


def evaluate_sinr(x, z, s: CorridorScenario, a: OracleAssumptions,
                  los_states=None, work=None, with_serving=True,
                  beam: BeamPattern | None = None,
                  positions: tuple[float, ...] | None = None, slab=False):
    """Serving index and linear SINR at points (x, z), in the shape that x
    and z broadcast to.

    Serving is the strongest received power (STRONGEST) or the nearest BS
    (NEAREST); ties go to the lowest BS index. Interference is the strongest
    single non-serving power (DOMINANT_ONLY) or their sum (SUM_ALL). With no
    noise and no interference the SINR is +inf. Where no BS delivers any
    power the serving index falls back to the nearest BS and the SINR is 0.
    With `los_states`, bytes (ceil(n_bs / 8), *shape) with bit i % 8 of
    row i // 8 the LoS state of BS i, as `monte_carlo.los_states` forms
    them, and an air-to-ground model, each link takes its drawn LoS or
    NLoS excess loss instead of the expectation mixture. With
    `with_serving` false the serving index is not formed and None stands
    in its place.

    `beam` and `positions` are what `a.resolve_beam(s)` and
    `a.resolve_positions(s)` give, formed here when None; a caller that
    evaluates many blocks of one scenario forms them once. With `slab`,
    x and z are 1-D samples with z ascending (a slab of a
    `monte_carlo.SampleSet`), and each BS is evaluated on the samples its
    lobe can reach only.

    Every temporary, and both results, live in the buffers of `work` (a
    `_Workspace`; a new one when None), so the results are views that the
    next call with the same workspace overwrites.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    z = np.atleast_1d(np.asarray(z, dtype=float))
    shape = np.broadcast_shapes(x.shape, z.shape)
    x, z = _compact(x), _compact(z)
    work = _Workspace() if work is None else work
    positions = a.resolve_positions(s) if positions is None else positions
    beam = a.resolve_beam(s) if beam is None else beam
    pathloss = a.pathloss
    drawn = los_states is not None and isinstance(pathloss, AirToGroundPathLoss)
    lam = s.radio.wavelength_m
    p_tx = s.radio.p_tx_w
    strongest = a.association is Association.STRONGEST
    dominant = a.interference is InterferenceMode.DOMINANT_ONLY
    # a grid block, x one row and z one column: each BS is evaluated on
    # the columns its lobe can reach only
    grid = x.ndim == z.ndim == 2 and x.shape[0] == z.shape[1] == 1

    x_lo, x_hi = float(x.min()), float(x.max())
    # a slab's z ascends
    z_lo, z_hi = ((float(z[0]), float(z[-1])) if slab
                  else (float(z.min()), float(z.max())))
    # the least z**2: at an end, or 0 if z changes sign
    z2_least = (min(z_lo * z_lo, z_hi * z_hi) if z_lo >= 0 or z_hi <= 0
                else 0.0)
    if not slab:
        z2 = np.multiply(z, z, out=work.take("z2", z.shape))
    # r2, p (gain, then received power) and pl (path loss, then scratch)
    # are taken at each window's shape from buffers sized for the block
    for name in ("r2", "p", "pl"):
        work.take(name, shape)
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
    # cells: the window in the block-wide arrays; part: the window in
    # those with the shape of h (a grid's row, or a slab's window itself)
    cols = core = None
    cells = part = Ellipsis
    window = shape
    xw, zw = x, z
    for i, pos in enumerate(positions):
        near, far = _h_range(x_lo, x_hi, pos)
        # every r2 is at least near**2 + min(z**2), rounding being
        # monotone; a bound that is not positive settles nothing
        if not near * near + z2_least > 0:
            h = np.subtract(x, pos, out=work.take("h", x.shape))
            r2 = np.multiply(h, h, out=work.take("r2", shape))
            r2 += np.multiply(z, z, out=work.take("p", z.shape))
            _require_distance(r2.min())
        if slab:
            cells, core = beam._lit_samples(near, far, z)
            if cells.start == cells.stop:
                continue
            xw, zw = x[cells], z[cells]
            window = zw.shape
        h = np.subtract(xw, pos, out=work.take("h", xw.shape))
        np.abs(h, out=h)
        # h*h has h's shape and borrows the head of p
        hh = np.multiply(h, h, out=work.take("p", h.shape))
        if grid:
            cols, core = beam._lit_columns(h, z_lo, z_hi, work)
            cells = part = (Ellipsis, cols)
            window = (shape[0], cols.stop - cols.start)
        if slab:
            # a slab holds no z2 buffer: z*z goes to r2 first
            r2 = np.multiply(zw, zw, out=work.take("r2", window))
            np.add(hh, r2, out=r2)
        else:
            r2 = np.add(hh[part], z2, out=work.take("r2", window))
        # a view: one value per cell
        h_cells = h if slab else np.broadcast_to(h, shape)
        p = beam.gain(h_cells, zw, r2, out=work.take("p", window), work=work,
                      cols=cols, core=core)
        # a BS that lights no cell adds a power of 0, which changes no
        # step below; a fully lit core is lit (or the peak gain is 0, and
        # evaluating it changes nothing either)
        if core is None and not p.any():
            continue
        pl = work.take("pl", window)
        if drawn:
            los = _bit(los_states[i >> 3][cells], i & 7, work)
            pathloss.loss(h_cells[part], zw, r2, lam, los_state=los, out=pl,
                          work=work, checked=True)
        else:
            pathloss.loss(h_cells[part], zw, r2, lam, out=pl, work=work,
                          checked=True)
        p *= p_tx
        p /= pl
        best, rest = p_serv[cells], other[cells]
        if strongest:
            # the smaller of best and p loses to the serving power: the
            # runner-up if above the one so far, or one more summand
            join(rest, np.minimum(best, p, out=pl), out=rest)
            if with_serving:
                # serving = i where p > best; serving < i so far, so that
                # is max(serving, i * (p > best)), with no branch per
                # point. pl is free again and holds i * (p > best).
                won = np.multiply(
                    np.greater(p, best, out=work.take("mask", window, bool)),
                    i, out=pl.view(np.intp))
                np.maximum(serving[cells], won, out=serving[cells])
            np.maximum(best, p, out=best)
        else:
            is_mine = np.equal(nearest[cells], i, out=mine[cells])
            np.copyto(best, p, where=is_mine)
            np.copyto(p, 0.0, where=is_mine)
            join(rest, p, out=rest)
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
