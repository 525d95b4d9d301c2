"""The Monte Carlo estimate from one in-order Philox stream, kept as the
reference for `corridorcov.monte_carlo.estimate_outage`, which opens each
block's generator at its own counter step.

Row i of ``Generator(Philox(key=seed)).random((n, k))`` is sample i: x, z,
then, in Bernoulli LoS mode, one uniform per base station, which
`los_states` turns into the links' LoS states. The whole sample goes
through the kernel at once, with no blocks and no threads.
"""

import numpy as np

from corridorcov.monte_carlo import los_states
from corridorcov.oracle import evaluate_sinr


def outage_of_one_stream(s, cfg, dps):
    """p_out of cfg (an McConfig) at scenario s, with dps draws per
    sample."""
    n = cfg.n_samples
    u = np.random.Generator(np.random.Philox(key=cfg.seed)).random((n, dps))
    x = (s.d1 / 2.0) * u[:, 0]
    z = s.h1 + (s.h2 - s.h1) * u[:, 1]
    a = cfg.assumptions
    los = (los_states(x, z, a.resolve_positions(s), a.pathloss, u[:, 2:].T)
           if dps > 2 else None)
    _, val = evaluate_sinr(x, z, s, a, los_states=los)
    return np.count_nonzero(val < s.tau) / n
