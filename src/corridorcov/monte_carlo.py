"""Monte Carlo outage estimation with uniform UAV sampling.

Reproducibility contract: the random stream is the counter-based Philox
generator keyed by the seed, drawn in order, and sample i consumes the
draws [i * k, (i + 1) * k) of it, where k = 2 position draws (x, then z)
plus, in Bernoulli LoS mode, one LoS draw per base station. Samples are
evaluated in blocks of BLOCK_POINTS, and each block's outage count is an
integer, so the result depends only on (scenario, config), never on the
block size.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import CorridorScenario
from .oracle import BLOCK_POINTS, OracleAssumptions, evaluate_sinr


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
    if m.los_mode is LosMode.BERNOULLI:
        return 2 + len(m.assumptions.resolve_positions(s))
    return 2


def estimate_outage(s: CorridorScenario, m: McConfig) -> McResult:
    """Estimated outage probability with binomial standard error and a 95%
    confidence interval."""
    dps = _draws_per_sample(s, m)
    rng = np.random.Generator(np.random.Philox(key=m.seed))
    buf = np.empty((min(BLOCK_POINTS, m.n_samples), dps))
    outages = 0
    for lo in range(0, m.n_samples, BLOCK_POINTS):
        u = buf[:min(BLOCK_POINTS, m.n_samples - lo)]
        rng.random(out=u)
        d_x = (s.d1 / 2.0) * u[:, 0]
        h_x = s.h1 + (s.h2 - s.h1) * u[:, 1]
        los_uniforms = u[:, 2:].T if dps > 2 else None
        _, val = evaluate_sinr(d_x, h_x, s, m.assumptions,
                               los_uniforms=los_uniforms)
        outages += int(np.count_nonzero(val < s.tau))
        del _, val  # free them before the next block's kernel call
    n = m.n_samples
    p = outages / n
    se = math.sqrt(p * (1.0 - p) / n)
    ci = (max(0.0, p - 1.96 * se), min(1.0, p + 1.96 * se))
    return McResult(p_out=p, std_err=se, ci95=ci, n=n, seed=m.seed)
