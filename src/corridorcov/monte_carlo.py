"""Monte Carlo outage estimation with uniform UAV sampling.

Reproducibility contract: the random stream is the counter-based Philox
generator keyed by the seed, read from its start in sample order, and
sample i consumes the draws [i * k, (i + 1) * k) of it, where k = 2
position draws (x, then z) plus, in Bernoulli LoS mode with the
air-to-ground model, one LoS draw per base station. Free-space loss has
no LoS state, so Bernoulli and expectation mode draw the same stream with
it and give the same result.

Each pass over the samples (a streamed call, or either pass of a held
draw) opens one generator and reads it block after block through one
reader, `_draws`; numpy hands out a generator's doubles in order however
many each read takes, so the blocks' draws are the stream's, whatever the
block size. `_samples` scales x and z to the half corridor and in
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
  four base stations. The set holds them in K = ceil(n / HELD_BLOCK)
  slabs of x, the samples whose x draw u has min(floor(u * K), K - 1) = j
  in slab j, each slab sorted by z. The draw reads the stream twice, from
  its start, in blocks of DRAW_BLOCK (`_draw_slabs`): the first pass
  counts the samples of each slab, the second writes each sample straight
  to its slab's next free place; then each slab is sorted (`_z_order`).
  So no permutation of the whole set and no second copy of it exist at
  any time. Every uptilt is then evaluated slab by slab, in the caller's
  thread, where the kernel evaluates each base station on the samples
  its lobe can reach only (`evaluate_sinr(..., slab=True)`): x bounds
  the slab's distances to the BS, and its lit window is a run of the
  sorted heights. The set draws again only when the sample key changes:
  (seed, sample count, draws per sample, d1, h1, h2, the resolved BS
  positions, the path-loss model). The uptilt, beamwidth, threshold, link
  budget, beam, association, interference and noise take no part in the
  draws.

Each call resolves the beam and the BS positions once and hands them to
the kernel for every block. Within a block, a base station whose lobe
reaches none of the block's samples is skipped (see `oracle`). The
kernel is given tau and returns its coverage mask, ``SINR >= tau``, and
the block's outages are the mask's misses. The LoS states are formed for
every base station, lit or not, since a held set serves every uptilt.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import CorridorScenario
from . import oracle
from .oracle import OracleAssumptions, evaluate_sinr
from .propagation import AirToGroundPathLoss, _Workspace

# Samples, on average, per slab of a held sample set (`SampleSet`). The
# kernel's temporaries grow with it, on top of the held samples; they are
# sized once for the largest slab (`_Workspace.reserve`), since a slab's
# windows come in many sizes.
HELD_BLOCK = 1 << 14
# Samples per block of a held set's draw. The draw's buffers grow with it,
# on top of the held samples, which are all written by the draw's last
# block.
DRAW_BLOCK = 1 << 13


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


def _slab_index(u_x, k, w):
    """The x-slab of each sample of a held set of `k` slabs,
    min(floor(u_x * k), k - 1) from its uniform x draw `u_x`, in a buffer
    of `w`. Below 2**16 slabs the indices are 16-bit, which numpy sorts
    by radix."""
    slab = w.take("slab", u_x.shape, np.uint16 if k < 1 << 16 else np.intp)
    # u_x * k lies in [0, k], and the cast to an integer rounds toward
    # zero, which is floor
    np.multiply(u_x, k, out=slab, casting="unsafe")
    return np.minimum(slab, k - 1, out=slab)


def _z_order(z):
    """The order that sorts the heights `z`, all positive, by a stable
    radix sort of their bits, 16 at a time from the lowest: positive
    floats order as their bit patterns do. The 16-bit sort is the one the
    slab indices use, where a float sort would map another 256 KiB of
    numpy's code into the process, which its peak RSS counts."""
    digits = z.astype("<f8", copy=False).view("<u2").reshape(-1, 4)
    order = np.argsort(digits[:, 0], kind="stable")
    for d in (1, 2, 3):
        order = order[np.argsort(digits[order, d], kind="stable")]
    return order


def _draw_slabs(s: CorridorScenario, m: McConfig, dps, positions):
    """x, z, the LoS bytes (None with two draws per sample) and the slab
    starts of the samples of (s, m), in K = ceil(n / HELD_BLOCK) slabs of
    x; slab j holds samples [starts[j], starts[j + 1]) in no set order.
    The samples are drawn twice, in blocks of DRAW_BLOCK: the first pass
    counts the samples of each slab, the second writes each one to its
    slab's next free place. The draws' buffers are freed on return."""
    n = m.n_samples
    k = -(-n // HELD_BLOCK)
    work = _Workspace()
    starts = np.zeros(k + 1, np.intp)
    for u in _draws(m, dps, DRAW_BLOCK, work):
        starts[1:] += np.bincount(_slab_index(u[:, 0], k, work), minlength=k)
    np.cumsum(starts, out=starts)
    x, z = np.empty(n), np.empty(n)
    los = np.empty((-(-(dps - 2) // 8), n), np.uint8) if dps > 2 else None
    free = starts[:-1].copy()   # the next free place of each slab
    for u in _draws(m, dps, DRAW_BLOCK, work):
        slab = _slab_index(u[:, 0], k, work)
        d_x, h_x, drawn = _samples(s, m, u, work, positions)
        counts = np.bincount(slab, minlength=k)
        # in slab order, the block's p-th sample is the (p - first[j])-th
        # of its slab j, and goes to free[j] plus that
        first = np.cumsum(counts) - counts
        places = np.repeat(free - first, counts)
        places += np.arange(len(u))
        dest = work.take("dest", slab.shape, np.intp)
        dest[np.argsort(slab, kind="stable")] = places
        x[dest] = d_x
        z[dest] = h_x
        if los is not None:
            for row, bits in zip(los, drawn):
                row[dest] = bits
        free += counts
    return x, z, los, starts


class SampleSet:
    """The samples of one Monte Carlo config, held to be evaluated at many
    uptilts. `estimate_outage` draws them into it when its sample key
    changes: x and z as floats and, in Bernoulli mode, the LoS states as
    one byte a sample with a bit per BS (17 B a sample with up to eight
    base stations), in K = ceil(n / HELD_BLOCK) slabs of x, each sorted by
    z (see the module notes)."""

    def __init__(self):
        self._key = None
        self._x = self._z = self._los = self._starts = self._largest = None

    def _draw(self, s: CorridorScenario, m: McConfig, dps, positions):
        """Draw the samples of (s, m) unless they are held already."""
        a = m.assumptions
        key = (m.seed, m.n_samples, dps, s.d1, s.h1, s.h2, positions,
               a.pathloss)
        if key == self._key:
            return
        # one set at a time, and none after a draw that fails
        self._key = self._x = self._z = self._los = self._starts = None
        x, z, los, starts = _draw_slabs(s, m, dps, positions)
        # then each slab is sorted by z, which moves its x and LoS bytes
        largest = int((starts[1:] - starts[:-1]).max())
        buf = np.empty(largest)
        for lo, hi in zip(starts[:-1], starts[1:]):
            order = _z_order(z[lo:hi])
            for held in (x, z) if los is None else (x, z, *los):
                part = buf.view(held.dtype)[:hi - lo]
                # indices in range: "clip" writes to `part` unbuffered
                np.take(held[lo:hi], order, out=part, mode="clip")
                held[lo:hi] = part
        self._key, self._x, self._z, self._los = key, x, z, los
        self._starts, self._largest = starts, largest

    def _slabs(self):
        """x, z and the LoS bytes (or None) of each non-empty slab."""
        los = self._los
        for lo, hi in zip(self._starts[:-1], self._starts[1:]):
            if lo < hi:
                yield (self._x[lo:hi], self._z[lo:hi],
                       None if los is None else los[:, lo:hi])


def estimate_outage(s: CorridorScenario, m: McConfig, work=None,
                    samples: SampleSet | None = None) -> McResult:
    """Estimated outage probability with binomial standard error and a 95%
    confidence interval (Wilson score, `_wilson`). `work` is a
    `_Workspace` to reuse across calls; a new one when None. Without
    `samples` each block of BLOCK_POINTS samples draws them as it is
    evaluated; with a `SampleSet`, the samples are drawn into it unless it
    holds them already, and evaluated slab by slab. Either way the blocks
    run one after another in the caller's thread, and the result is the
    same bit for bit."""
    a = m.assumptions
    positions = a.resolve_positions(s)
    beam = a.resolve_beam(s)
    dps = _draws_per_sample(m, positions)
    n = m.n_samples
    work = _Workspace() if work is None else work
    if samples is None:
        # the block size is read at each call, where oracle sets it
        blocks = (_samples(s, m, u, work, positions)
                  for u in _draws(m, dps, oracle.BLOCK_POINTS, work))
    else:
        samples._draw(s, m, dps, positions)
        # every window fits the largest slab
        work.reserve(samples._largest)
        blocks = samples._slabs()
    missed = 0
    for x, z, los in blocks:
        _, hit = evaluate_sinr(x, z, s, a, los_states=los, work=work,
                               beam=beam, positions=positions,
                               slab=samples is not None, tau=s.tau)
        missed += hit.size - int(np.count_nonzero(hit))
    p = missed / n
    se = math.sqrt(p * (1.0 - p) / n)
    return McResult(p_out=p, std_err=se, ci95=_wilson(p, n), n=n,
                    seed=m.seed)


def _wilson(p, n, z=1.96):
    """Wilson score interval of a binomial proportion p over n trials.
    Unlike p +- z * std_err, it keeps a width where p is 0 or 1. In exact
    arithmetic it contains p; the clamps keep that true under rounding."""
    zz = z * z / n
    center = (p + zz / 2.0) / (1.0 + zz)
    half = z / (1.0 + zz) * math.sqrt(p * (1.0 - p) / n + zz / (4.0 * n))
    return (max(0.0, min(p, center - half)), min(1.0, max(p, center + half)))
