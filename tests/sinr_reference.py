"""The direct SINR evaluation, kept as the reference for the kernel in
`corridorcov.oracle`.

`received_powers` and `evaluate_sinr` are the package's earlier per-point
path: per BS a `hypot` distance and an `arctan2` elevation, beam gain and
path loss as functions of that elevation, an (n_bs, n_points) power matrix,
then an argmax, a masked copy and a second max for the reduction.
`beam_gain`, `p_los` and `path_loss` are the earlier elevation-angle forms
of the models in `corridorcov.propagation`. `covered_count` is the earlier
quadrature row loop with its 2M-point blocks.
"""

import math

import numpy as np

from corridorcov.oracle import Association
from corridorcov.propagation import (
    AirToGroundPathLoss,
    InterferenceMode,
    RectangularBeam,
    db_to_linear,
)


def beam_gain(beam, theta):
    theta = np.asarray(theta, dtype=float)
    if isinstance(beam, RectangularBeam):
        inside = (theta > beam.alpha) & (theta < beam.alpha + beam.beta)
        return np.where(inside, beam.peak_gain, 0.0)
    x = (np.cos(theta) - math.cos(beam.alpha + beam.beta / 2.0)) / 2.0
    inside = np.abs(x) <= 1.0 / beam.n_elements
    g = beam.n_elements * np.cos(math.pi * beam.n_elements * x / 2.0) ** 2
    return np.where(inside, g, 0.0)


def p_los(model, theta):
    theta_deg = np.degrees(np.asarray(theta, dtype=float))
    return 1.0 / (1.0 + model.a * np.exp(-model.b * (theta_deg - model.a)))


def path_loss(model, distance_m, theta, wavelength_m, los_state=None):
    distance_m = np.asarray(distance_m, dtype=float)
    if np.any(distance_m <= 0):
        raise ValueError("path loss requires a positive distance")
    pl_fs = (4.0 * math.pi * distance_m / wavelength_m) ** 2
    if not isinstance(model, AirToGroundPathLoss):
        return pl_fs
    eta_los = float(db_to_linear(model.eta_los_db))
    eta_nlos = float(db_to_linear(model.eta_nlos_db))
    if los_state is not None:
        eta = np.where(los_state, eta_los, eta_nlos)
        return eta * pl_fs
    p = p_los(model, theta)
    return (p * eta_los + (1.0 - p) * eta_nlos) * pl_fs


def received_powers(x, z, s, a, los_uniforms=None):
    """Per-BS received power in watts at points (x, z).

    Returns (powers, distances), both shaped (n_bs, n_points). With
    `los_uniforms` (n_bs, n_points) and an air-to-ground model, each link's
    LoS state is the Bernoulli draw u < P_LoS(theta) instead of the
    expectation mixture.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    z = np.atleast_1d(np.asarray(z, dtype=float))
    x, z = np.broadcast_arrays(x, z)
    positions = a.resolve_positions(s)
    beam = a.resolve_beam(s)
    lam = s.radio.wavelength_m
    p_tx = s.radio.p_tx_w

    n_bs = len(positions)
    powers = np.empty((n_bs, x.size), dtype=float)
    dists = np.empty((n_bs, x.size), dtype=float)
    xf = x.ravel()
    zf = z.ravel()
    for i, pos in enumerate(positions):
        horiz = np.abs(xf - pos)
        r = np.hypot(horiz, zf)
        theta = np.arctan2(zf, horiz)
        g = beam_gain(beam, theta)
        if los_uniforms is not None and isinstance(a.pathloss, AirToGroundPathLoss):
            los = los_uniforms[i] < p_los(a.pathloss, theta)
            pl = path_loss(a.pathloss, r, theta, lam, los_state=los)
        else:
            pl = path_loss(a.pathloss, r, theta, lam)
        powers[i] = p_tx * g / pl
        dists[i] = r
    return powers, dists


def evaluate_sinr(x, z, s, a, los_uniforms=None):
    """Serving index and linear SINR at points (x, z).

    Serving is argmax received power (STRONGEST) or min distance (NEAREST);
    ties go to the lowest BS index. Interference is the strongest single
    non-serving power (DOMINANT_ONLY) or their sum (SUM_ALL). Where no BS
    delivers any power the serving index falls back to the nearest BS and
    the SINR is 0.
    """
    powers, dists = received_powers(x, z, s, a, los_uniforms=los_uniforms)
    n = powers.shape[1]
    cols = np.arange(n)
    nearest = np.argmin(dists, axis=0)
    if a.association is Association.STRONGEST:
        serving = np.argmax(powers, axis=0)
    else:
        serving = nearest

    p_serv = powers[serving, cols]
    if a.interference is InterferenceMode.DOMINANT_ONLY:
        masked = powers.copy()
        masked[serving, cols] = -np.inf
        interference = np.max(masked, axis=0)
    else:
        interference = powers.sum(axis=0) - p_serv
    noise = s.radio.noise_w if a.include_noise else 0.0
    denom = interference + noise

    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(denom > 0.0, p_serv / denom,
                       np.where(p_serv > 0.0, np.inf, 0.0))

    dead = powers.max(axis=0) == 0.0
    if np.any(dead):
        serving = serving.copy()
        serving[dead] = nearest[dead]
        out[dead] = 0.0
    return serving, out


def covered_count(s, a, n_x, n_z):
    """Midpoints of the n_x x n_z corridor grid with SINR >= tau."""
    dx = (s.d1 / 2.0) / n_x
    dz = (s.h2 - s.h1) / n_z
    xs = (np.arange(n_x) + 0.5) * dx
    zs = s.h1 + (np.arange(n_z) + 0.5) * dz
    covered = 0
    rows_per_block = max(1, 2_000_000 // n_x)
    for k0 in range(0, n_z, rows_per_block):
        zblock = zs[k0:k0 + rows_per_block]
        xx = np.broadcast_to(xs, (zblock.size, n_x)).ravel()
        zz = np.repeat(zblock, n_x)
        _, val = evaluate_sinr(xx, zz, s, a)
        covered += int(np.count_nonzero(val >= s.tau))
    return covered
