"""Monte Carlo outage estimation with uniform UAV sampling.

Reproducibility contract: the random stream is the counter-based Philox
generator keyed by the seed, and sample i consumes the draws
[i * k, (i + 1) * k) of it, where k = 2 position draws (x, then z) plus,
in Bernoulli LoS mode with the air-to-ground model, one LoS draw per base
station. Free-space loss has no LoS state, so Bernoulli and expectation
mode draw the same stream with it and give the same result.

Samples are evaluated in blocks (`oracle._sum_blocks`), on one thread per
CPU (two at most): unlike the grid loops of the quadrature and the
heatmap, which stay on the caller's thread, the Philox draws scale over a
second core. Within a block, a base station whose lobe reaches none of the
block's samples is skipped after its gain (see `oracle`), and the serving
index is not formed. A block does not read on from where the block before
it stopped: the block of samples [lo, hi) opens its own Philox generator
at the counter step that holds draw lo * k (Philox yields four draws per
step) and throws away the draws of that step before it. So each sample
reads its own draws whatever the block size, the worker count or the order
in which blocks run, and each block's outage count is an integer: the
result depends only on (scenario, config). Each thread keeps its draws,
the scaled positions and the kernel's temporaries in a workspace that
every block it runs reuses, and that the caller may reuse across calls;
what it held before cannot change a result.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import CorridorScenario
from .oracle import OracleAssumptions, _sum_blocks, evaluate_sinr
from .propagation import AirToGroundPathLoss, _Workspace


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


def estimate_outage(s: CorridorScenario, m: McConfig, work=None) -> McResult:
    """Estimated outage probability with binomial standard error and a 95%
    confidence interval. `work` is a `_Workspace` to reuse across calls; a
    new one when None."""
    dps = _draws_per_sample(s, m)

    def block_outages(lo, hi, w):
        # Philox yields 4 draws per counter step: start at the step that
        # holds draw lo * dps and throw away the draws before it
        start = lo * dps
        bits = np.random.Philox(key=m.seed, counter=start // 4)
        bits.random_raw(start % 4)
        size = hi - lo
        u = np.random.Generator(bits).random(out=w.take("u", (size, dps)))
        d_x = np.multiply(u[:, 0], s.d1 / 2.0, out=w.take("d_x", (size,)))
        h_x = np.multiply(u[:, 1], s.h2 - s.h1, out=w.take("h_x", (size,)))
        h_x += s.h1
        los_uniforms = u[:, 2:].T if dps > 2 else None
        _, val = evaluate_sinr(d_x, h_x, s, m.assumptions,
                               los_uniforms=los_uniforms, work=w,
                               with_serving=False)
        missed = np.less(val, s.tau, out=w.take("missed", (size,), bool))
        return int(np.count_nonzero(missed))

    n = m.n_samples
    work = _Workspace() if work is None else work
    p = _sum_blocks(n, 1, block_outages, work, threaded=True) / n
    se = math.sqrt(p * (1.0 - p) / n)
    ci = (max(0.0, p - 1.96 * se), min(1.0, p + 1.96 * se))
    return McResult(p_out=p, std_err=se, ci95=ci, n=n, seed=m.seed)
