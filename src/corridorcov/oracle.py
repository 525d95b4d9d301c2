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
bit per link: the kernel reads BS i's bit of each point and hands it to
``loss``, which picks the link's excess loss by it (free space has no LoS
state and ignores it), so the kernel calls every model the same way. It
never builds a (base stations x points)
power matrix: strongest association keeps a running (serving, strongest
interferer) pair, or under SUM_ALL interference the serving power and a
running sum of the powers that lose to it, and nearest association reads
the serving power out of the same pass. Given a threshold ``tau`` the
kernel returns the coverage mask ``SINR >= tau``, the package's one
coverage decision, and forms no serving index: the quadrature and the
sampler count the mask, and only the heatmap, which passes no ``tau``,
gets the serving index.

Point layouts. The kernel takes two: slabs (``slab=True``), whose
heights ascend along their first axis, and streamed samples, any other
points. A slab is a slab of held Monte Carlo samples (1-D samples sorted
by height, see `monte_carlo.SampleSet`) or a grid block of whole columns,
whose rows are the grid's heights (below). Each BS goes through the same
steps on both, on a slab's lit window (below), and on streamed samples on
every point.

Broadcast grid. x and z broadcast against each other, and the results take
their broadcast shape. A grid loop passes a grid's block of columns as
the columns' row of x and the grid's column of z, as `np.broadcast_to`
views at the block's shape, never a tiled copy; the kernel cuts them back
to the row and the column (`propagation._compact`), so ``h`` and ``h**2``
cost one row per BS, and only ``r2`` and what follows it cost one cell
each, of the BS's window. The kernel hands ``gain`` the row of ``h`` as a
view at the block's shape, even for an empty window, and ``loss`` as a
view at the window's, so the benchmark's tracer, which counts a call's
points by its first array argument, counts gain points in block cells
and loss points in window cells.

Lit windows and dark base stations. A BS adds power only where its lobe
reaches, and a zero power changes no step of any reduction (the strongest
pair, the sum, the nearest BS's power). On a slab the beam names, for
each BS, a window outside of which no point can be lit and inside it, for
the rectangular beam, a fully lit core where every point is lit (or
None). Both are runs of the first axis, found by one search of the
ascending heights for the edge products at the BS's least and greatest
distance (`_lit_samples`), which the slab's extreme x bound, to
``[0, far]`` when the BS lies inside them. The cosine beam's window is
the whole slab, with no core, and on streamed samples every window is the
whole block. ``r2 = h*h + z2[window]``, the gain, the path loss (and the
link's LoS bit) and the power are then formed in buffers of the window's
own shape (its rows by a grid block's columns), so each of their passes
runs over contiguous memory. Only the running serving and interference
state stays block-wide; the reduction updates it through a view of the
window's rows. ``gain`` fills the peak gain on the core with no test per
cell and tests the rows on either side of it. A BS whose window is
empty, or whose gain is zero at every point of a window with no core, is
skipped after its gain (on held samples, an empty window before it).

Distances. The path-loss models need a positive distance and a finite
loss at every point of every BS, lit or not, and the kernel checks that
once per BS on every layout, before it forms any power: the block's
extreme x bound the BS's least and greatest distance, ``near`` and
``far`` (`_h_range`; near is 0 when the BS lies inside them), and its
extreme heights the least and greatest ``z**2``, and every ``r2`` lies
between ``near**2 + min(z**2)`` and ``far**2 + max(z**2)`` because
rounding is monotone. The loss at the greater bound must be finite (the
free-space loss, times the model's `_excess` bound on its excess loss),
so that no product overflows and reads as a silent outage. Only where
the lesser bound is not positive does the kernel check every ``r2`` of
the block. The loss is told so (``checked=True``) and does not pass over
the window's ``r2`` again. The same check bounds the powers. No BS
delivers more than the transmit power times the beam's peak gain over its
least loss: the free-space loss at the lesser bound, times the model's
`_least`, a lower bound on its excess loss. That bound times the number
of BSs must be finite, and with noise on so must its ratio to the noise
power; otherwise a power, a sum of them or the SINR could overflow and
read as an outage.

Settled tiles. Given ``tau``, the kernel returns the coverage mask
``SINR >= tau`` in place of the SINR, and on a grid block it first bounds
the SINR of each tile of _TILE_ROWS (32) rows (`_settle`), so that only
the rows of tiles whose bounds straddle tau are evaluated. Each bound
follows one step of the kernel, formed from bounds of that step's
operands in the kernel's order, and every step is monotone in its
operands (rounding is monotone), so the bounds hold for the kernel's
rounded values:

- distance: ``near`` and ``far`` of the block (`_h_range`) and the least
  and greatest ``z**2`` of the tile, from its first and last heights,
  bound its ``r2``;
- gain: 0 on a tile outside the BS's lit window, the peak gain on a tile
  inside its fully lit core, and [0, peak] on the rest. The cosine beam
  has no core, so its tiles get [0, peak];
- loss: the free-space loss at the ``r2`` bounds times the model's
  `_least` and `_excess` bounds on its excess loss
  (`propagation._loss_range`, which the distance check calls too): exact
  for free space, loose for air-to-ground. Under Bernoulli LoS states the
  bounds span both excess losses (a ratio of about 123), and still tiles
  that no BS lights settle as outages, and some that one BS lights as
  covered;
- power: the transmit power times the gain bound, over the loss bound;
- association: the kernel's STRONGEST reduction step (`_strongest`), run
  on the lower and on the upper power bounds: the serving power (the
  running maximum) and the interference (the running maximum or sum of
  what loses to it) are monotone in every power. Under NEAREST
  association no tile is settled;
- SINR: the serving bound over the noise plus the other interference
  bound.

A tile counts as covered when its lower bound is at least
tau * (1 + 1e-9), and as an outage when its upper bound is below
tau * (1 - 1e-9). A NaN bound (0/0, with noise off or at ``r2 = 0``)
settles nothing. The margin is a guard on top of the monotone bounds:
after ``h`` each step of the SINR is a product, quotient or sum of
positive numbers, about ten roundings, which move it by less than 1e-14
relatively, five orders of magnitude below the margin. The rows of the
unsettled tiles, one boolean per row, are gathered into one sub-column of
ascending heights, still a slab, on which each BS's lit window is searched
again (`_lit_samples`), and the links' LoS states, if any, are cut to the
same rows. That gives the full column's window cut to the kept
rows: the kept rows at or below an edge product are the rows at or below
it, counted among the kept ones. The mask takes each settled tile's
value and ``SINR >= tau`` on the evaluated rows. At `validate`'s grid
(blocks of 32 columns of 2001 heights, at the reference uptilts) 4.5-6%
of the tiles straddle tau, and the loss runs on about 6% of the cells it
runs on without ``tau``. The gain is still called once per BS and block,
with ``h`` at the block's shape, so the benchmark's tracer counts the
same gain points. The Monte Carlo sampler passes ``tau`` too, but only
grid blocks are tiled: streamed samples are no slab, and a held slab is
1-D, one sample per height, so a tile of its rows would span the slab's
whole x range and x would have to be cut too. Whether that would pay is
unmeasured.

Blocks and workspaces. Every evaluator walks its blocks with a plain
``for`` loop over a generator, one after another in the caller's thread,
and keeps the cells in flight near BLOCK_POINTS (64k), so the kernel's
temporaries stay in cache. Grids (the quadrature and the heatmap) come in
blocks of whole columns from `_column_blocks`, which yields each block's
columns and its broadcast (x, z); the streamed Monte Carlo sampler's
samples come in runs of BLOCK_POINTS from the reader of its random
stream (`monte_carlo._draws`); samples that the Monte Carlo evaluator of
sweeps holds across uptilts come slab by slab (`monte_carlo.SampleSet`).
Each field and Monte Carlo call resolves the beam and the BS positions
once and passes them to the kernel for every block. The quadrature leaves
that to the kernel, once per block: 4 x 63 = 252 times in a `validate`
at the defaults (2001 x 2001 cells in blocks of 32 columns, at four
uptilts), about 2.5 ms. `perfbench/selftest.py` holds `evaluate_sinr` as
the quadrature's only traced child.

Each call evaluates into one `propagation._Workspace`, the one the caller
passes (a new one when None), which holds the buffers that grow with the
block. The kernel and the models write each such temporary into named
buffers of the workspace with numpy ``out=``, so blocks after the first
allocate none of them. The per-tile bounds of `_settle` are plain numpy
arrays of a few hundred floats (2 bounds x 4 BSs x 63 tiles at
`validate`'s grid), and the kept rows' mask and heights hold one value
per row; they are made anew for each block. The kernel sizes the window
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
and the heatmap's blocks fill disjoint columns, so no result depends on
the block size (tests/test_monte_carlo.py checks Monte Carlo blocks that
end inside one of Philox's 4-draw steps).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from . import defaults
from .geometry import CorridorScenario
from .propagation import (
    BeamPattern,
    CosineBeam,
    FreeSpacePathLoss,
    InterferenceMode,
    PathLossModel,
    RectangularBeam,
    _compact,
    _part,
    _loss_range,
    _require_distance,
    _Workspace,
    db_to_linear,
    suggested_element_count,
)

# Cells in flight in a block loop.
BLOCK_POINTS = 1 << 16
# Rows of a grid block whose coverage one SINR bound can settle, and the
# relative margin by which the bound must clear tau (`_settle`).
_TILE_ROWS = 32
_MARGIN = 1e-9


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

    def __post_init__(self):
        pos = self.bs_positions
        if pos is not None and (len(pos) < 2 or any(
                b <= a for a, b in zip(pos, pos[1:]))):
            raise ValueError("need at least two BS positions, strictly "
                             f"increasing, got {pos}")
        if self.beam is BeamKind.COSINE and self.n_elements is not None:
            # the beam's own check of its element count, which no tilt moves
            CosineBeam(n_elements=self.n_elements, alpha=0.0, beta=0.0)

    def resolve_positions(self, s: CorridorScenario) -> tuple[float, ...]:
        pos = self.bs_positions
        if pos is None:
            pos = (-s.d1, 0.0, s.d1, 2.0 * s.d1)
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


def _settle(heights, ranges, lit, beam, s, a, noise, tau):
    """Which tiles of _TILE_ROWS rows of a grid block, whose rows are the
    ascending `heights`, have SINR bounds that clear `tau`: two boolean
    rows, covered and settled (covered or in outage), each with one value
    per tile.

    `ranges` and `lit` are each BS's distance range over the block and lit
    window (`_h_range`, `_lit_samples`). Each step bounds what the kernel
    forms under STRONGEST association, in the kernel's order (see the
    module notes, "Settled tiles"): the lower bounds fill row 0 of each
    array and the upper bounds row 1."""
    n, n_bs = len(heights), len(ranges)
    n_tiles = -(-n // _TILE_ROWS)
    # each tile's first and last height, then the least and greatest z**2
    ends = np.array([heights[::_TILE_ROWS],
                     np.append(heights[_TILE_ROWS - 1:-1:_TILE_ROWS],
                               heights[-1])])
    sq = ends * ends
    z2 = np.array([np.minimum(sq[0], sq[1]), np.maximum(sq[0], sq[1])])
    # a tile whose heights change sign holds z = 0
    z2[0, ends[0] * ends[1] <= 0.0] = 0.0
    # r2, then the loss: the free-space loss times the model's least and
    # greatest excess
    dist = np.array(ranges).T[:, :, None]
    r2 = dist * dist + z2[:, None, :]
    least, most = _loss_range(r2[0], r2[1], s.radio.wavelength_m, a.pathloss)
    # the gain: the peak on tiles inside the fully lit core, 0 outside the
    # window, and between them on the rest
    p = np.zeros((2, n_bs, n_tiles))
    for i, (cells, core) in enumerate(lit):
        if cells.start < cells.stop:
            p[1, i, cells.start // _TILE_ROWS:
              -(-cells.stop // _TILE_ROWS)] = beam._peak
        if core is not None:
            lo, hi = cells.start + core.start, cells.start + core.stop
            p[0, i, -(-lo // _TILE_ROWS):
              n_tiles if hi == n else hi // _TILE_ROWS] = beam._peak
    best, rest = np.zeros((2, n_tiles)), np.zeros((2, n_tiles))
    join = (np.maximum if a.interference is InterferenceMode.DOMINANT_ONLY
            else np.add)
    # 0/0 and x/0 (a bound at r2 = 0) give NaN or inf, which settle nothing
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        p *= s.radio.p_tx_w
        p[0] /= most
        p[1] /= least
        # the kernel's reduction, on each bound
        for i in range(n_bs):
            _strongest(best, rest, p[:, i], join, None)
        sinr = best / (rest[::-1] + noise)
    covered = sinr[0] >= tau * (1.0 + _MARGIN)
    return covered, covered | (sinr[1] < tau * (1.0 - _MARGIN))


def _strongest(best, rest, p, join, scratch):
    """One BS's step of the STRONGEST reduction, in place: the smaller of
    `best`, the strongest power so far, and the BS's power `p` (held in
    `scratch`, or in a new array when None) loses to the serving power and
    joins the interference `rest` by `join` (the runner-up if above the
    one so far, or one more summand); then `best` takes the larger."""
    join(rest, np.minimum(best, p, out=scratch), out=rest)
    np.maximum(best, p, out=best)


def evaluate_sinr(x, z, s: CorridorScenario, a: OracleAssumptions,
                  los_states=None, work=None,
                  beam: BeamPattern | None = None,
                  positions: tuple[float, ...] | None = None, slab=False,
                  tau: float | None = None):
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
    NLoS excess loss instead of the expectation mixture.

    `beam` and `positions` are what `a.resolve_beam(s)` and
    `a.resolve_positions(s)` give, formed here when None; a caller that
    evaluates many blocks of one scenario forms them once. With `slab`,
    the heights ascend along the first axis: x and z are 1-D samples
    sorted by z (a slab of a `monte_carlo.SampleSet`), or a grid block's
    row of x and column of z (`_column_blocks`), and each BS is evaluated
    on the samples or rows its lobe can reach only (`_lit_samples`).
    Without it, each BS is evaluated on every point.

    With `tau` (linear) the second result is the coverage mask
    ``SINR >= tau`` in place of the SINR, and None stands in place of the
    serving index: the serving index is formed exactly when `tau` is
    None. Under STRONGEST association, on a grid block that is a slab,
    tiles of _TILE_ROWS rows whose SINR bounds clear tau are settled
    without evaluating their cells (see the module notes, "Settled
    tiles"); the mask is the same.

    Every block-sized temporary, and both results, live in the buffers of
    `work` (a `_Workspace`; a new one when None), so the results are views
    that the next call with the same workspace overwrites. The per-tile
    bounds, and the kept rows' mask and heights, are plain arrays of a few
    hundred floats or one value per row.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    z = np.atleast_1d(np.asarray(z, dtype=float))
    shape = np.broadcast_shapes(x.shape, z.shape)
    x, z = _compact(x), _compact(z)
    work = _Workspace() if work is None else work
    positions = a.resolve_positions(s) if positions is None else positions
    beam = a.resolve_beam(s) if beam is None else beam
    lam = s.radio.wavelength_m
    p_tx = s.radio.p_tx_w
    noise = s.radio.noise_w if a.include_noise else 0.0
    strongest = a.association is Association.STRONGEST
    dominant = a.interference is InterferenceMode.DOMINANT_ONLY
    # a grid block: x is one row, the same in every row of the block
    grid = x.ndim == 2

    x_lo, x_hi = float(x.min()), float(x.max())
    if slab:
        # a slab's heights ascend: a held slab's samples, or a grid
        # block's column
        heights = z.reshape(len(z))
        z_lo, z_hi = float(heights[0]), float(heights[-1])
    else:
        z_lo, z_hi = float(z.min()), float(z.max())
    # the least z**2 (at an end, or 0 if z changes sign) and the greatest
    z2_least = (min(z_lo * z_lo, z_hi * z_hi) if z_lo >= 0 or z_hi <= 0
                else 0.0)
    z2_most = max(z_lo * z_lo, z_hi * z_hi)
    ranges = [_h_range(x_lo, x_hi, pos) for pos in positions]
    # no sum of received powers exceeds that of every BS at its peak gain
    p_all = len(positions) * beam._peak * p_tx
    for pos, (near, far) in zip(positions, ranges):
        # every r2 lies between these bounds, rounding being monotone. A
        # least bound that is not positive settles nothing: the block's r2
        # are checked then, and cannot overflow below a finite greatest.
        least, most = near * near + z2_least, far * far + z2_most
        if not least > 0 and most < math.inf:
            h = np.subtract(x, pos, out=work.take("h", x.shape))
            r2 = np.multiply(h, h, out=work.take("r2", shape))
            r2 += np.multiply(z, z, out=work.take("p", z.shape))
            least = r2.min()
        _require_distance(least, most, lam, a.pathloss, p_all, noise)
    # every buffer below is sized for the block, and taken at the shape of
    # a window or of the unsettled rows from its head
    for name in ("r2", "p", "pl", "p_serv", "other"):
        work.take(name, shape)
    work.take("mask", shape, bool)
    # cells: the window, rows of the block-wide arrays; _part(a, cells) is
    # the window in an array with the shape of x (a grid's row holds all);
    # core: its fully lit rows, or None
    lit = ([beam._lit_samples(near, far, heights) for near, far in ranges]
           if slab else [(Ellipsis, None)] * len(positions))
    block, keep = shape, None
    if tau is not None and slab and grid and strongest:
        covered, settled = _settle(heights, ranges, lit, beam, s, a, noise,
                                   tau)
        if settled.any():
            # evaluate the rows of the unsettled tiles only: one ascending
            # sub-column, still a slab, with their LoS states
            keep = np.repeat(~settled, _TILE_ROWS)[:len(heights)]
            heights = heights[keep]
            lit = [beam._lit_samples(near, far, heights)
                   for near, far in ranges]
            if los_states is not None:
                los_states = los_states[:, keep]
            z = heights[:, None]
            shape = (len(heights), shape[1])
    z2 = np.multiply(z, z, out=work.take("z2", z.shape))
    mask = work.take("mask", shape, bool)
    p_serv = work.take("p_serv", shape)  # under STRONGEST, the strongest so far
    other = work.take("other", shape)    # strongest non-serving power, or sum
    # what loses to the serving power joins the interference
    join = np.maximum if dominant else np.add
    p_serv.fill(0.0)
    other.fill(0.0)
    serving = work.take("serving", shape, np.intp) if tau is None else None
    if not strongest:
        nearest = _nearest(x, positions, work)
        mine = work.take("mine", x.shape, bool)
        if serving is not None:
            np.copyto(serving, nearest)
    elif serving is not None:
        serving.fill(0)
    window = shape
    for i, (pos, (cells, core)) in enumerate(zip(positions, lit)):
        if slab:
            window = (cells.stop - cells.start, *shape[1:])
            # a grid's gain is called on an empty window too: the
            # benchmark's tracer counts its points in block cells
            if not (window[0] or grid):
                continue
        xw = _part(x, cells)
        h = np.subtract(xw, pos, out=work.take("h", xw.shape))
        np.abs(h, out=h)
        # h*h has h's shape and borrows the head of p
        hh = np.multiply(h, h, out=work.take("p", h.shape))
        r2 = np.add(hh, z2[cells], out=work.take("r2", window))
        zw = z[cells]
        # on a grid, h as a view with one value per cell: of the block to
        # the gain, and of the window to the loss
        p = beam.gain(np.broadcast_to(h, block) if grid else h, zw, r2,
                      out=work.take("p", window), work=work, core=core)
        # a BS that lights no cell adds a power of 0, which changes no
        # step below; a fully lit core is lit (or the peak gain is 0, and
        # evaluating it changes nothing either)
        if core is None and not p.any():
            continue
        pl = work.take("pl", window)
        los = (None if los_states is None
               else _bit(los_states[i >> 3][cells], i & 7, work))
        a.pathloss.loss(np.broadcast_to(h, window) if grid else h, zw, r2,
                        lam, los_state=los, out=pl, work=work, checked=True)
        p *= p_tx
        p /= pl
        best, rest = p_serv[cells], other[cells]
        if strongest:
            if serving is not None:
                # serving = i where p > best, read before best takes p;
                # serving < i so far, so that is max(serving,
                # i * (p > best)), with no branch per point. pl is free
                # and holds i * (p > best).
                won = np.multiply(
                    np.greater(p, best, out=work.take("mask", window, bool)),
                    i, out=pl.view(np.intp))
                np.maximum(serving[cells], won, out=serving[cells])
            _strongest(best, rest, p, join, pl)
        else:
            is_mine = np.equal(_part(nearest, cells), i,
                               out=_part(mine, cells))
            np.copyto(best, p, where=is_mine)
            np.copyto(p, 0.0, where=is_mine)
            join(rest, p, out=rest)

    sinr = other
    with np.errstate(divide="ignore", invalid="ignore"):
        sinr += noise
        np.divide(p_serv, sinr, out=sinr)
    # 0/0: no power, no noise, no interference
    np.copyto(sinr, 0.0, where=np.isnan(sinr, out=mask))

    if tau is None:
        if strongest:
            dead = np.equal(p_serv, 0.0, out=mask)
            if dead.any():
                np.copyto(serving, _nearest(x, positions, work), where=dead)
        return serving, sinr
    hit = np.greater_equal(sinr, tau, out=mask)
    if keep is None:
        return None, hit
    # the block's mask: each settled tile's value, the evaluated rows' hits
    out = work.take("covered", block, bool)
    out[...] = np.repeat(covered, _TILE_ROWS)[:block[0], None]
    out[keep] = hit
    return None, out


def _column_blocks(xs, zs):
    """The grid xs x zs in blocks of whole columns, BLOCK_POINTS // zs.size
    of them (at least one) a block: for each block in turn, its columns as
    a slice of xs, and (x, z), the columns' row of x and the grid's column
    of heights, each a `np.broadcast_to` view at the block's shape (no
    copy), which the kernel cuts back to the row and the column. Ascending
    heights make each block a slab."""
    size = max(1, BLOCK_POINTS // zs.size)
    for lo in range(0, xs.size, size):
        cols = slice(lo, lo + size)
        x = xs[cols]
        shape = (zs.size, x.size)
        yield (cols, np.broadcast_to(x, shape),
               np.broadcast_to(zs[:, None], shape))


def _require_grid(n_x: int, n_z: int) -> None:
    """Raise unless the quadrature grid has at least 64 cells a side."""
    if n_x < 64 or n_z < 64:
        raise ValueError(f"need n_x, n_z >= 64, got {n_x} x {n_z}")


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
    _require_grid(n_x, n_z)
    work = _Workspace() if work is None else work
    covered = 0
    for _, x, z in _column_blocks(_midpoints(0.0, s.d1 / 2.0, n_x),
                                  _midpoints(s.h1, s.h2, n_z)):
        _, hit = evaluate_sinr(x, z, s, a, work=work, slab=True, tau=s.tau)
        covered += int(np.count_nonzero(hit))
    return covered / float(n_x * n_z)
