"""Brute-force reference of the closed form's linear-border model.

Evaluates the cell rule point by point on a midpoint grid over the half
corridor [0, d1/2] x [h1, h2], with its own arithmetic: elevations from
arctan2, serving and interferer from sorting the in-beam distances, and each
chord from the textbook quadratic root. Its error is the grid's, about
1e-4 at 600 x 600.
"""

from __future__ import annotations

import numpy as np


def _chord_x(s, x_s, x_i, z):
    """Border abscissa of serving BS x_s against interferer x_i at height z:
    the threshold circle |p - x_i|^2 = tau |p - x_s|^2 is crossed at the
    two heights 0 and h2 on the branch facing the half corridor, and the
    chord between those crossings is evaluated at z."""
    sigma = np.sign(s.d1 / 4.0 - x_s)
    d = x_i - x_s

    def crossing(h):
        root = np.sqrt(s.tau * d * d - (s.tau - 1.0) ** 2 * h * h)
        return x_s + (-d + sigma * root) / (s.tau - 1.0)

    x0, x2 = crossing(0.0), crossing(s.h2)
    return x0 + (x2 - x0) * z / s.h2, sigma


def linear_model_coverage(s, n: int = 600) -> float:
    """Covered fraction p_in of the half corridor on an n x n midpoint grid."""
    x = (np.arange(n) + 0.5) * (s.d1 / 2.0) / n
    z = s.h1 + (np.arange(n) + 0.5) * (s.h2 - s.h1) / n
    xx, zz = (a.ravel() for a in np.meshgrid(x, z))
    bs = np.array([-s.d1, 0.0, s.d1, 2.0 * s.d1])
    dist = np.abs(xx[:, None] - bs)
    elev = np.arctan2(zz[:, None], dist)
    in_beam = (elev > s.alpha) & (elev < s.alpha + s.beta)

    order = np.argsort(dist, axis=1, kind="stable")
    in_order = np.take_along_axis(in_beam, order, axis=1)
    n_in = in_order.sum(axis=1)
    rank = np.cumsum(in_order, axis=1)
    serving = bs[order[np.arange(len(xx)), np.argmax(rank == 1, axis=1)]]
    interferer = bs[order[np.arange(len(xx)), np.argmax(rank == 2, axis=1)]]

    covered = n_in == 1
    for x_s in bs:
        for x_i in bs:
            pick = (n_in > 1) & (serving == x_s) & (interferer == x_i)
            if pick.any():
                border, sigma = _chord_x(s, x_s, x_i, zz[pick])
                covered[pick] = sigma * (border - xx[pick]) > 0
    return float(covered.mean())
