"""Monte Carlo outage estimation with uniform UAV sampling.

Reproducibility contract: the random stream is the counter-based Philox
generator keyed by the seed, and sample i consumes the draws
[i * k, (i + 1) * k) of it, where k = 2 position draws (x, then z) plus,
in Bernoulli LoS mode with the air-to-ground model, one LoS draw per base
station. Free-space loss has no LoS state, so Bernoulli and expectation
mode draw the same stream with it and give the same result.

One helper, `_draw_block`, draws the samples [lo, hi): it opens its own
Philox generator at the counter step that holds draw lo * k (Philox yields
four draws per step) and throws away the draws of that step before it,
scales x and z to the half corridor, and in Bernoulli mode turns each
link's uniform u into its LoS state, u < p_los(|x - x_BS|, z)
(`los_states`, the package's one LoS test). The SINR kernel takes the
states, not the uniforms. So each sample reads its own draws whatever the
block size or the order in which blocks run, and each block's outage
count is an integer: the result depends only on (scenario, config).

The samples come from one of two sources, with the same result bit for
bit:

- Streamed (`estimate_outage` without a sample set; the `mc` and
  `validate` commands): each block of BLOCK_POINTS samples draws them as
  it is evaluated, in the caller's thread (`oracle._sum_blocks`). The
  draws, the scaled positions and the kernel's temporaries live in one
  workspace that every block reuses, and that the caller may reuse across
  calls; what it held before cannot change a result. Nothing outlives
  the call.
- Held (`estimate_outage` with a `SampleSet`; the Monte Carlo evaluator of
  `sweep` and `optimize`, which evaluates one sample set at many
  uptilts): the samples are drawn once, block by block, into the set,
  which keeps x and z as floats and the LoS states packed to bits, 16.5 B
  a sample with four base stations. Every uptilt is then evaluated from
  them in blocks of HELD_BLOCK, in the caller's thread. The set draws
  again only when the sample key changes: (seed, sample count, draws per
  sample, d1, h1, h2, the resolved BS positions, the path-loss model).
  The uptilt, beamwidth, threshold, link budget, beam, association,
  interference and noise take no part in the draws.

Within a block, a base station whose lobe reaches none of the block's
samples is skipped after its gain (see `oracle`), and the serving index is
not formed. The LoS states are formed for every base station, lit or not,
since a held set serves every uptilt.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import CorridorScenario
from .oracle import OracleAssumptions, _sum_blocks, evaluate_sinr
from .propagation import AirToGroundPathLoss, _Workspace

# Samples per block of a held sample set (`SampleSet`). The kernel's
# temporaries grow with it, on top of the held samples: the peak RSS of
# the benchmark's 500k-sample Bernoulli optimizer is 44.8 MiB at 16k,
# 46.1 MiB at 32k and 48.7 MiB at 64k, against 45.1 MiB when every uptilt
# streams its draws.
HELD_BLOCK = 1 << 14


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


def _draws_per_sample(s: CorridorScenario, m: McConfig) -> int:
    if (m.los_mode is LosMode.BERNOULLI
            and isinstance(m.assumptions.pathloss, AirToGroundPathLoss)):
        return 2 + len(m.assumptions.resolve_positions(s))
    return 2


def los_states(x, z, positions, pathloss: AirToGroundPathLoss, u,
               out=None, work=None):
    """LoS state of the link from each BS to each point (x, z), as booleans
    (n_bs, *shape): u[i] < p_los(|x - positions[i]|, z), with u[i] the
    link's uniform draw. `out` receives them (a new array when None);
    `work` is a `_Workspace` for the scratch arrays."""
    shape = np.broadcast_shapes(np.shape(x), np.shape(z))
    out = np.empty((len(positions), *shape), bool) if out is None else out
    work = _Workspace() if work is None else work
    h = work.take("los.h", np.shape(x))
    p = work.take("los.p", shape)
    for i, pos in enumerate(positions):
        np.subtract(x, pos, out=h)
        np.abs(h, out=h)
        np.less(u[i], pathloss.p_los(h, z, out=p), out=out[i])
    return out


def _draw_block(s: CorridorScenario, m: McConfig, dps, lo, hi, w):
    """x, z and the LoS states (None with two draws per sample) of samples
    [lo, hi), in buffers of the workspace `w`."""
    # Philox yields 4 draws per counter step: start at the step that holds
    # draw lo * dps and throw away the draws before it
    start = lo * dps
    bits = np.random.Philox(key=m.seed, counter=start // 4)
    bits.random_raw(start % 4)
    size = hi - lo
    u = np.random.Generator(bits).random(out=w.take("u", (size, dps)))
    d_x = np.multiply(u[:, 0], s.d1 / 2.0, out=w.take("d_x", (size,)))
    h_x = np.multiply(u[:, 1], s.h2 - s.h1, out=w.take("h_x", (size,)))
    h_x += s.h1
    if dps == 2:
        return d_x, h_x, None
    a = m.assumptions
    los = los_states(d_x, h_x, a.resolve_positions(s), a.pathloss, u[:, 2:].T,
                     out=w.take("los", (dps - 2, size), bool), work=w)
    return d_x, h_x, los


def _outages(s: CorridorScenario, a: OracleAssumptions, x, z, los, w) -> int:
    """Number of the samples (x, z), with LoS states `los`, in outage."""
    _, val = evaluate_sinr(x, z, s, a, los_states=los, work=w,
                           with_serving=False)
    missed = np.less(val, s.tau, out=w.take("missed", val.shape, bool))
    return int(np.count_nonzero(missed))


class SampleSet:
    """The samples of one Monte Carlo config, held to be evaluated at many
    uptilts. `estimate_outage` draws them into it when its sample key
    changes: x and z as floats, and in Bernoulli mode each link's LoS state
    packed to one bit (16.5 B a sample with four base stations)."""

    def __init__(self):
        self._key = None
        self._x = self._z = self._los = None

    def _draw(self, s: CorridorScenario, m: McConfig, dps):
        """Draw the samples of (s, m) unless they are held already."""
        a = m.assumptions
        key = (m.seed, m.n_samples, dps, s.d1, s.h1, s.h2,
               a.resolve_positions(s), a.pathloss)
        if key == self._key:
            return
        # one set at a time, and none after a draw that fails
        self._key = self._x = self._z = self._los = None
        n = m.n_samples
        x, z = np.empty(n), np.empty(n)
        los = np.empty((dps - 2, -(-n // 8)), np.uint8) if dps > 2 else None
        # the draws' own buffers, freed before the samples are evaluated
        work = _Workspace()
        for lo in range(0, n, HELD_BLOCK):
            hi = min(lo + HELD_BLOCK, n)
            x[lo:hi], z[lo:hi], drawn = _draw_block(s, m, dps, lo, hi, work)
            if los is not None:
                los[:, lo // 8:-(-hi // 8)] = np.packbits(drawn, axis=1)
        self._key, self._x, self._z, self._los = key, x, z, los

    def _block(self, lo, hi):
        """x, z and the LoS states (or None) of samples [lo, hi), where lo
        is a multiple of 8."""
        los = self._los
        if los is not None:
            los = np.unpackbits(los[:, lo // 8:-(-hi // 8)], axis=1,
                                count=hi - lo).view(bool)
        return self._x[lo:hi], self._z[lo:hi], los


def estimate_outage(s: CorridorScenario, m: McConfig, work=None,
                    samples: SampleSet | None = None) -> McResult:
    """Estimated outage probability with binomial standard error and a 95%
    confidence interval. `work` is a `_Workspace` to reuse across calls; a
    new one when None. Without `samples` each block of BLOCK_POINTS
    samples draws them as it is evaluated; with a `SampleSet`, the samples
    are drawn into it unless it holds them already, and read from it in
    blocks of HELD_BLOCK. Either way the blocks run one after another in
    the caller's thread, and the result is the same bit for bit."""
    dps = _draws_per_sample(s, m)
    n = m.n_samples
    a = m.assumptions
    work = _Workspace() if work is None else work
    if samples is None:
        def block_outages(lo, hi):
            return _outages(s, a, *_draw_block(s, m, dps, lo, hi, work), work)
        missed = _sum_blocks(n, 1, block_outages)
    else:
        samples._draw(s, m, dps)
        missed = sum(
            _outages(s, a, *samples._block(lo, min(lo + HELD_BLOCK, n)), work)
            for lo in range(0, n, HELD_BLOCK))
    p = missed / n
    se = math.sqrt(p * (1.0 - p) / n)
    ci = (max(0.0, p - 1.96 * se), min(1.0, p + 1.96 * se))
    return McResult(p_out=p, std_err=se, ci95=ci, n=n, seed=m.seed)
