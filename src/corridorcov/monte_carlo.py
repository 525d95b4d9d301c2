"""Monte Carlo outage estimation with uniform UAV sampling.

Reproducibility contract: the random stream is the counter-based Philox
generator keyed by the seed, read from its start in sample order, and
sample i consumes the draws [i * k, (i + 1) * k) of it, where k = 2
position draws (x, then z) plus, in Bernoulli LoS mode with the
air-to-ground model, one LoS draw per base station. Free-space loss has
no LoS state, so Bernoulli and expectation mode draw the same stream with
it and give the same result.

Each pass over the samples (a streamed call, or a held draw) opens one
generator and reads it block after block through one reader, `_draws`;
numpy hands out a generator's doubles in order however many each read
takes, so the blocks' draws are the stream's, whatever the block size. `_samples` scales x and z to the half corridor and in
Bernoulli mode turns each link's uniform u into its LoS state,
u < p_los(|x - x_BS|, z) (`los_states`, the package's one LoS test). The
states are bits, one byte a sample with bit i the state of BS i
(ceil(n_bs / 8) bytes with more than eight base stations), the one layout
the SINR kernel reads; it takes the states, not the uniforms. Each
block's outage count is an integer, so the result depends only on
(scenario, config), not on the block size or the order in which the
samples are evaluated.

The samples come from one of two sources, with the same result bit for
bit:

- Streamed (`estimate_outage` without a sample set; the `mc` and
  `validate` commands): each block of `oracle.BLOCK_POINTS` samples is
  drawn as it is evaluated, in the caller's thread. The draws, the
  scaled positions, the LoS states and the kernel's temporaries live in
  one workspace that every block reuses, and that the caller may reuse
  across calls; what it held before cannot change a result. Nothing
  outlives the call.
- Held (`estimate_outage` with a `SampleSet`; the Monte Carlo evaluator of
  `sweep` and `optimize`, which evaluates one sample set at many
  uptilts): the samples are drawn once into the set, which keeps x and z
  as floats and, in Bernoulli mode, the LoS bytes: 17 B a sample with
  four base stations. The draw reads the stream once, from its start, in
  blocks of DRAW_BLOCK, and copies each block's samples to their places
  in the stream, so the set holds them in stream order; it keeps the
  least and greatest x and z of the set too. Every uptilt is then
  evaluated in blocks of `oracle.BLOCK_POINTS`, in the caller's thread,
  each handed to the kernel as a streamed block is, with no box map. The
  set draws again only when the sample key changes: (seed, sample count,
  draws per sample, d1, h1, h2, the resolved BS positions, the path-loss
  model). The uptilt, beamwidth, threshold, link budget, beam,
  association, interference and noise take no part in the draws.

The lit-set table. Under the rectangular beam with at most four base
stations (_TABLE_BS), a held set decides each sample once per set of lit
BSs instead of once per uptilt (see `oracle`, "Lit-set tables"): at the
first uptilt it builds one 16-bit word a sample (2 B a sample, beside
the 17 B of its draws), whose bit L is the kernel's coverage decision
when exactly the BSs in bitmask L are lit at the peak gain, over the
whole set (`oracle._lit_set_table`, after the kernel's checks of the
set) in chunks of DRAW_BLOCK samples. Each uptilt then finds each
sample's lit set (`oracle._lit_sets`): a BS that lights every sample of
the set, or none, by one gain bound over the set's extent, takes its bit
with no test, and every other BS runs the lobe test on every sample; it
counts the set bits, with no kernel call. The table depends on the
sample key, tau, the link budget, the resolved peak gain, the
association, the interference and the noise, and is built again from the
held samples when any of them changes; a build that raises leaves none.
The cosine beam, and layouts of more than four BSs, are evaluated by the
kernel at every uptilt.

Each call resolves the beam and the BS positions once and hands them to
the kernel for every block. Within a block, a base station that can
light no sample of it, by one gain bound over the block's extent, is
skipped before its gain is formed (see `oracle`). The
kernel is given tau and returns its coverage mask, ``SINR >= tau``, and
the block's outages are the mask's misses. The LoS states are formed for
every base station, lit or not, since a held set serves every uptilt.

The box map. A streamed call under STRONGEST association with two draws
a sample (free space, or air-to-ground in expectation mode) first bounds
the SINR over each box of a _BOXES x _BOXES (128 x 128) grid of the
uniforms, [i, i + 1) / 128 in x times [j, j + 1) / 128 in z
(`_box_map`), in strips of _STRIP (16) box columns, and marks each box
covered, outage or open by the kernel's own bound (`oracle`, "Settled
tiles and boxes"). The edges are the samples formed from the uniforms
j / 128 (`_box_edges`), so each box's x and z bounds come from the same
roundings that form its samples, and rounding is monotone. A sample's box
is (floor(u_x * 128), floor(u_z * 128)), read from its uniforms as one
16-bit map index (`_box_index`), which is exact since 128 is a power of
two. Each block then hands the kernel every sample with its box's
(covered, open) pair, and the kernel evaluates the open samples only
(`evaluate_sinr(..., boxes=)`), some 3% of them at `validate`'s uptilts,
after its distance and power checks on the whole block. A map that
settles no box (the cosine beam's, say) is dropped, and every sample is
evaluated. Nearest association settles nothing, and with Bernoulli LoS
states a map costs more than it saves, since the states are formed for
every sample; held sets, which keep no uniforms, are never mapped. The
result is the same bit for bit; `McResult.evaluated` counts the samples
the kernel evaluated (a held set's, all of them).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import CorridorScenario
from . import oracle
from .oracle import OracleAssumptions, evaluate_sinr
from .propagation import AirToGroundPathLoss, RectangularBeam, _Workspace

# Samples per block of a held set's draw, and per chunk of its lit-set
# table's build. Their buffers grow with it, on top of the held samples.
DRAW_BLOCK = 1 << 13
# Boxes a side of the streamed sampler's map (`_box_map`), a power of two
# so that a sample's box, read from its uniforms, is exact; and the box
# columns bounded at a time while the map is built.
_BOXES = 128
_STRIP = 16
# The most BSs a held set's lit-set table serves: 2**4 sets, one bit each
# in a 16-bit word a sample.
_TABLE_BS = 4


class LosMode(enum.Enum):
    EXPECTATION = "expectation"   # mixture weights applied analytically
    BERNOULLI = "bernoulli"       # LoS/NLoS drawn per link


@dataclass(frozen=True)
class McConfig:
    n_samples: int = 1_000_000
    seed: int = 0
    assumptions: OracleAssumptions = field(default_factory=OracleAssumptions)
    los_mode: LosMode = LosMode.EXPECTATION

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples}")


@dataclass(frozen=True)
class McResult:
    p_out: float
    std_err: float
    ci95: tuple[float, float]
    n: int
    seed: int
    # samples whose decision was formed, by the kernel or, for a held set,
    # in its lit-set table, the rest being settled by the box map (None
    # where not counted); it takes no part in eq, which compares
    # estimates
    evaluated: int | None = field(default=None, compare=False)


def _draws_per_sample(m: McConfig, positions) -> int:
    if (m.los_mode is LosMode.BERNOULLI
            and isinstance(m.assumptions.pathloss, AirToGroundPathLoss)):
        return 2 + len(positions)
    return 2


def los_states(x, z, positions, pathloss: AirToGroundPathLoss, u,
               work=None):
    """LoS state of the link from each BS to each point (x, z), as bytes
    (ceil(n_bs / 8), *shape): bit i % 8 of row i // 8 is
    u[i] < p_los(|x - positions[i]|, z), with u[i] the link's uniform
    draw, and the bits past the last BS are 0. `work` is a `_Workspace`
    that the states and the scratch arrays are taken from (a new one when
    None)."""
    shape = np.broadcast_shapes(np.shape(x), np.shape(z))
    work = _Workspace() if work is None else work
    out = work.take("los", (-(-len(positions) // 8), *shape), np.uint8)
    h = work.take("los.h", np.shape(x))
    p = work.take("los.p", shape)
    state = work.take("los.state", shape, bool)
    bit = work.take("los.shifted", shape, np.uint8)
    out.fill(0)
    for i, pos in enumerate(positions):
        np.subtract(x, pos, out=h)
        np.abs(h, out=h)
        np.less(u[i], pathloss.p_los(h, z, out=p), out=state)
        out[i >> 3] |= np.left_shift(state.view(np.uint8), i & 7, out=bit)
    return out


def _draws(m: McConfig, dps, size, w):
    """The draws of the samples of `m` in sample order, one row of `dps`
    a sample, read from one Philox generator keyed by the seed: for each
    block of `size` samples in turn (the last one shorter), its rows, in
    a buffer of the workspace `w` that the next block overwrites."""
    rng = np.random.Generator(np.random.Philox(key=m.seed))
    n = m.n_samples
    for lo in range(0, n, size):
        yield rng.random(out=w.take("u", (min(size, n - lo), dps)))


def _samples(s: CorridorScenario, m: McConfig, u, w, positions):
    """x, z and the LoS states (None with two draws per sample) of the
    samples whose draws are the rows of `u`, in buffers of `w`."""
    size, dps = u.shape
    d_x = np.multiply(u[:, 0], s.d1 / 2.0, out=w.take("d_x", (size,)))
    h_x = np.multiply(u[:, 1], s.h2 - s.h1, out=w.take("h_x", (size,)))
    h_x += s.h1
    if dps == 2:
        return d_x, h_x, None
    return d_x, h_x, los_states(d_x, h_x, positions, m.assumptions.pathloss,
                                u[:, 2:].T, work=w)


def _box_edges(s: CorridorScenario, m: McConfig, positions):
    """The least and greatest x of each box column and z of each box row
    of the streamed sampler's map: the samples of the uniforms j / _BOXES,
    ascending since d1 > 0 and h1 < h2. Rounding being monotone, every
    sample whose uniforms lie in a box lies between its edges."""
    u = np.repeat(np.arange(_BOXES + 1) / _BOXES, 2).reshape(-1, 2)
    xs, zs, _ = _samples(s, m, u, _Workspace(), positions)
    return xs[:-1], xs[1:], zs[:-1], zs[1:]


def _box_map(s: CorridorScenario, m: McConfig, dps, beam, positions):
    """The map of a streamed call's boxes of uniforms
    [i, i + 1) / _BOXES x [j, j + 1) / _BOXES, flat at i * _BOXES + j: one
    byte a box, whose bit 0 is set where the box is open (neither all
    covered nor all in outage) and bit 1 where its samples are all
    covered; None where the map settles no box (see the module notes)."""
    a = m.assumptions
    if dps != 2 or a.association is not oracle.Association.STRONGEST:
        return None
    x_lo, x_hi, z_lo, z_hi = _box_edges(s, m, positions)
    # each BS's least and greatest distance over each box column
    ranges = np.array([[oracle._h_range(lo, hi, pos)
                        for lo, hi in zip(x_lo.tolist(), x_hi.tolist())]
                       for pos in positions])
    noise = s.radio.noise_w if a.include_noise else 0.0
    covered = np.empty((_BOXES, _BOXES), bool)
    settled = np.empty_like(covered)
    # a bound leaves the float range only where a sample's squared
    # distance or power does too, which the kernel's checks reject with
    # their own error
    with np.errstate(over="ignore", invalid="ignore"):
        z2 = oracle._z2_range(z_lo, z_hi)[:, None, None, :]
        for lo in range(0, _BOXES, _STRIP):
            cols = slice(lo, lo + _STRIP)
            # (least, greatest) x BS x box column x 1
            dist = np.moveaxis(ranges[:, cols], 2, 0)[..., None]
            gain = np.array(beam._box_gain(*dist, z_lo, z_hi))
            covered[cols], settled[cols] = oracle._settle_bounds(
                dist * dist + z2, gain, s, a, noise, s.tau)
    if not settled.any():
        return None
    return (2 * covered + ~settled).astype(np.uint8).ravel()


def _box_index(u, w):
    """The flat map index of each sample whose draws are the rows of `u`,
    _BOXES * floor(u_x * _BOXES) + floor(u_z * _BOXES) from its uniforms
    (the products are exact), as 16-bit integers in a buffer of `w`."""
    size = len(u)
    box = w.take("box", (size,), np.uint16)
    # u_x * _BOXES**2 lies below 2**14; the cast to an integer rounds
    # toward zero, which is floor, and clearing the low bits leaves
    # _BOXES * floor(u_x * _BOXES)
    np.multiply(u[:, 0], _BOXES * _BOXES, out=box, casting="unsafe")
    box &= ~np.uint16(_BOXES - 1)
    row = w.take("box.z", (size,), np.uint16)
    box += np.multiply(u[:, 1], _BOXES, out=row, casting="unsafe")
    return box


def _boxes_of(u, box_map, w):
    """Whether each sample whose draws are the rows of `u` is covered, and
    whether it is open, read from the map of `_box_map` into buffers of
    `w`."""
    box = _box_index(u, w)
    # indices in range: "clip" writes to `out` unbuffered
    bits = np.take(box_map, box, mode="clip",
                   out=w.take("box.bits", box.shape, np.uint8))
    covered = np.right_shift(bits, 1, out=w.take("box.covered", box.shape,
                                                 np.uint8))
    return covered.view(bool), np.bitwise_and(bits, 1, out=bits).view(bool)


class SampleSet:
    """The samples of one Monte Carlo config, held to be evaluated at many
    uptilts. `estimate_outage` draws them into it when its sample key
    changes, in the order of the random stream: x and z as floats and, in
    Bernoulli mode, the LoS states as one byte a sample with a bit per BS
    (17 B a sample with up to eight base stations), and the extent of x
    and z; under the rectangular beam with at most four BSs, it builds
    their lit-set table too (see the module notes)."""

    def __init__(self):
        self._key = self._x = self._z = self._los = self._extent = None
        self._table_key = self._table = None

    def _draw(self, s: CorridorScenario, m: McConfig, dps, positions):
        """Draw the samples of (s, m) unless they are held already."""
        a = m.assumptions
        key = (m.seed, m.n_samples, dps, s.d1, s.h1, s.h2, positions,
               a.pathloss)
        if key == self._key:
            return
        # one set at a time, and none after a draw that fails
        self._key = self._x = self._z = self._los = self._extent = None
        self._table_key = self._table = None
        n = m.n_samples
        x, z = np.empty(n), np.empty(n)
        los = np.empty((-(-(dps - 2) // 8), n), np.uint8) if dps > 2 else None
        work = _Workspace()
        for lo, u in zip(range(0, n, DRAW_BLOCK),
                         _draws(m, dps, DRAW_BLOCK, work)):
            part = slice(lo, lo + len(u))
            x[part], z[part], drawn = _samples(s, m, u, work, positions)
            if los is not None:
                los[:, part] = drawn
        self._key, self._x, self._z, self._los = key, x, z, los
        self._extent = (float(x.min()), float(x.max()), float(z.min()),
                        float(z.max()))

    def _blocks(self):
        """x, z and the LoS bytes (or None) of each block of
        oracle.BLOCK_POINTS held samples in turn."""
        size = oracle.BLOCK_POINTS
        for lo in range(0, len(self._x), size):
            part = slice(lo, lo + size)
            yield (self._x[part], self._z[part],
                   None if self._los is None else self._los[:, part])

    def _tabulate(self, s: CorridorScenario, a: OracleAssumptions, beam,
                  positions):
        """Build the lit-set table of the held samples (see the module
        notes) unless it is built already for the same decision: the
        sample key, tau, the link budget, the peak gain, the association,
        the interference and the noise."""
        key = (self._key, s.tau, s.radio, beam._peak, a.association,
               a.interference, a.include_noise)
        if key == self._table_key:
            return
        # none after a build that fails
        self._table_key = self._table = None
        table = np.empty(len(self._x), np.uint16)
        oracle._lit_set_table(self._x, self._z, self._los, s, a, beam,
                              positions, table, _Workspace(), DRAW_BLOCK)
        self._table_key, self._table = key, table

    def _hits(self, beam, positions, work):
        """The number of held samples covered at the beam's tilt: each
        sample's bit of the table at the set of BSs that light it
        (`oracle._lit_sets`)."""
        hits = 0
        for part, lit in oracle._lit_sets(self._x, self._z, self._extent,
                                          beam, positions, work):
            covered = np.right_shift(
                self._table[part], lit,
                out=work.take("covered", lit.shape, np.uint16))
            hits += int(np.count_nonzero(np.bitwise_and(covered, 1,
                                                        out=covered)))
        return hits


def estimate_outage(s: CorridorScenario, m: McConfig, work=None,
                    samples: SampleSet | None = None) -> McResult:
    """Estimated outage probability with binomial standard error and a 95%
    confidence interval (Wilson score, `_wilson`). `work` is a
    `_Workspace` to reuse across calls; a new one when None. Without
    `samples` each block of BLOCK_POINTS samples draws them as it is
    evaluated; with a `SampleSet`, the samples are drawn into it unless it
    holds them already, and evaluated in blocks of BLOCK_POINTS, or read
    from its lit-set table. Either way the blocks run one after another in the
    caller's thread, and the result is the same bit for bit."""
    a = m.assumptions
    positions = a.resolve_positions(s)
    beam = a.resolve_beam(s)
    dps = _draws_per_sample(m, positions)
    n = m.n_samples
    work = _Workspace() if work is None else work
    if samples is None:
        box_map = _box_map(s, m, dps, beam, positions)
        # the block size is read at each call, where oracle sets it
        blocks = ((*_samples(s, m, u, work, positions),
                   None if box_map is None else _boxes_of(u, box_map, work))
                  for u in _draws(m, dps, oracle.BLOCK_POINTS, work))
    else:
        samples._draw(s, m, dps, positions)
        if (isinstance(beam, RectangularBeam)
                and len(positions) <= _TABLE_BS):
            samples._tabulate(s, a, beam, positions)
            return _result(n - samples._hits(beam, positions, work), m, n)
        blocks = ((*held, None) for held in samples._blocks())
    missed = evaluated = 0
    for x, z, los, boxes in blocks:
        _, hit = evaluate_sinr(x, z, s, a, los_states=los, work=work,
                               beam=beam, positions=positions, tau=s.tau,
                               boxes=boxes)
        missed += hit.size - int(np.count_nonzero(hit))
        evaluated += (hit.size if boxes is None
                      else int(np.count_nonzero(boxes[1])))
    return _result(missed, m, evaluated)


def _result(missed, m: McConfig, evaluated):
    """The estimate from `missed` outages among the samples of `m`."""
    n = m.n_samples
    p = missed / n
    se = math.sqrt(p * (1.0 - p) / n)
    return McResult(p_out=p, std_err=se, ci95=_wilson(p, n), n=n,
                    seed=m.seed, evaluated=evaluated)


def _wilson(p, n, z=1.96):
    """Wilson score interval of a binomial proportion p over n trials.
    Unlike p +- z * std_err, it keeps a width where p is 0 or 1. In exact
    arithmetic it contains p; the clamps keep that true under rounding."""
    zz = z * z / n
    center = (p + zz / 2.0) / (1.0 + zz)
    half = z / (1.0 + zz) * math.sqrt(p * (1.0 - p) / n + zz / (4.0 * n))
    return (max(0.0, min(p, center - half)), min(1.0, max(p, center + half)))
