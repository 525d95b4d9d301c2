"""The direct SINR evaluation, kept as the reference for the kernel in
`corridorcov.oracle`.

`received_powers` and `evaluate_sinr` are the package's earlier per-point
path: per BS a `hypot` distance and an `arctan2` elevation, beam gain and
path loss as functions of that elevation, an (n_bs, n_points) power matrix,
then an argmax, a masked copy and a second max for the reduction.
`beam_gain`, `p_los` and `path_loss` are the earlier elevation-angle forms
of the models in `corridorcov.propagation`. `covered_count` is the earlier
quadrature row loop with its 2M-point blocks.

`allocating_evaluate_sinr` is the `(h, z, r2)` kernel as it was before it
took a reusable workspace: the same operations on flattened points, each
temporary a new array. It is kept verbatim but for its SUM_ALL
interference, which sums the powers that lose to the serving one as the
kernel now does (not total - serving, which cancels), so the workspace
kernel must match it bit for bit. `allocating_gain`, `allocating_loss` and
`allocating_p_los` are the model methods of that kernel, verbatim.
"""

import math

import numpy as np

from corridorcov.geometry import CorridorScenario
from corridorcov.oracle import Association, OracleAssumptions
from corridorcov.propagation import (
    HALF_PI,
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
    masked = powers.copy()
    if a.interference is InterferenceMode.DOMINANT_ONLY:
        masked[serving, cols] = -np.inf
        interference = np.max(masked, axis=0)
    else:
        masked[serving, cols] = 0.0
        interference = masked.sum(axis=0)
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


def allocating_gain(beam, h, z, r2):
    if isinstance(beam, RectangularBeam):
        h = np.asarray(h, dtype=float)
        z = np.asarray(z, dtype=float)
        lo, hi = beam.alpha, beam.alpha + beam.beta
        shape = np.broadcast(h, z).shape
        if lo >= HALF_PI or hi <= -HALF_PI:
            return np.zeros(shape)
        if lo >= -HALF_PI:
            inside = z > math.tan(lo) * h
        else:
            inside = np.ones(shape, dtype=bool)
        if hi <= HALF_PI:
            inside &= z < math.tan(hi) * h
        return np.where(inside, beam.peak_gain, 0.0)
    cos_theta = np.asarray(h, dtype=float) / np.sqrt(r2)
    x = (cos_theta - math.cos(beam.alpha + beam.beta / 2.0)) / 2.0
    inside = np.abs(x) <= 1.0 / beam.n_elements
    g = beam.n_elements * np.cos(math.pi * beam.n_elements * x / 2.0) ** 2
    return np.where(inside, g, 0.0)


def _fspl(r2, wavelength_m):
    r2 = np.asarray(r2, dtype=float)
    if np.any(r2 <= 0):
        raise ValueError("path loss requires a positive distance")
    return (4.0 * math.pi / wavelength_m) ** 2 * r2


def allocating_p_los(model, h, z):
    theta_deg = np.degrees(np.arctan2(z, h))
    return 1.0 / (1.0 + model.a * np.exp(-model.b * (theta_deg - model.a)))


def allocating_loss(model, h, z, r2, wavelength_m, los_state=None):
    if not isinstance(model, AirToGroundPathLoss):
        return _fspl(r2, wavelength_m)
    pl_fs = _fspl(r2, wavelength_m)
    eta_los = float(db_to_linear(model.eta_los_db))
    eta_nlos = float(db_to_linear(model.eta_nlos_db))
    if los_state is not None:
        eta = np.where(los_state, eta_los, eta_nlos)
        return eta * pl_fs
    p = allocating_p_los(model, h, z)
    return (p * eta_los + (1.0 - p) * eta_nlos) * pl_fs


def _nearest(x, positions):
    """Index of the horizontally nearest BS per point, for strictly
    increasing positions: the number of BS midpoints left of x, so a point
    halfway between two BSs goes to the lower index."""
    nearest = np.zeros(x.size, dtype=np.intp)
    for left, right in zip(positions, positions[1:]):
        nearest += x > (left + right) / 2.0
    return nearest


def allocating_evaluate_sinr(x, z, s: CorridorScenario, a: OracleAssumptions,
                             los_uniforms=None):
    """Serving index and linear SINR at points (x, z).

    Serving is the strongest received power (STRONGEST) or the nearest BS
    (NEAREST); ties go to the lowest BS index. Interference is the strongest
    single non-serving power (DOMINANT_ONLY) or their sum (SUM_ALL). With no
    noise and no interference the SINR is +inf. Where no BS delivers any
    power the serving index falls back to the nearest BS and the SINR is 0.
    With `los_uniforms` (n_bs, n_points) and an air-to-ground model, each
    link's LoS state is the Bernoulli draw u < P_LoS instead of the
    expectation mixture.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    z = np.atleast_1d(np.asarray(z, dtype=float))
    x, z = np.broadcast_arrays(x, z)
    x = x.ravel()
    z = z.ravel()
    positions = a.resolve_positions(s)
    beam = a.resolve_beam(s)
    pathloss = a.pathloss
    draw_los = los_uniforms is not None and isinstance(pathloss, AirToGroundPathLoss)
    lam = s.radio.wavelength_m
    p_tx = s.radio.p_tx_w
    strongest = a.association is Association.STRONGEST
    dominant = a.interference is InterferenceMode.DOMINANT_ONLY

    z2 = z * z
    serving = np.zeros(x.size, dtype=np.intp) if strongest else _nearest(x, positions)
    p_serv = np.zeros(x.size)  # under STRONGEST, the strongest power so far
    other = np.zeros(x.size)   # strongest non-serving power, or their sum
    join = np.maximum if dominant else np.add
    for i, pos in enumerate(positions):
        h = np.abs(x - pos)
        r2 = h * h
        r2 += z2
        g = beam.gain(h, z, r2)
        if draw_los:
            los = los_uniforms[i] < pathloss.p_los(h, z)
            pl = pathloss.loss(h, z, r2, lam, los_state=los)
        else:
            pl = pathloss.loss(h, z, r2, lam)
        p = p_tx * g
        p /= pl
        if strongest:
            # the smaller of the strongest so far and p is not served
            join(other, np.minimum(p_serv, p), out=other)
            np.copyto(serving, i, where=p > p_serv)
            np.maximum(p_serv, p, out=p_serv)
        else:
            mine = serving == i
            np.copyto(p_serv, p, where=mine)
            p[mine] = 0.0
            join(other, p, out=other)
    noise = s.radio.noise_w if a.include_noise else 0.0

    with np.errstate(divide="ignore", invalid="ignore"):
        out = p_serv / (other + noise)
    out[np.isnan(out)] = 0.0  # 0/0: no power, no noise, no interference

    if strongest:
        dead = p_serv == 0.0
        if np.any(dead):
            serving[dead] = _nearest(x[dead], positions)
    return serving, out

