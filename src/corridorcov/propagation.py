"""Antenna beam patterns, path-loss models and noise power.

Beams and path-loss models share one call protocol: they take the geometry
of a BS-to-point link as ``(h, z, r2)``, where ``h = |x - x_BS| >= 0`` is the
horizontal distance, ``z`` the height above the BS antenna and
``r2 = h**2 + z**2`` the squared link distance. Each model derives only what
it needs from them:

- ``RectangularBeam.gain`` tests its lobe edges in tan space,
  ``tan(alpha)*h < z < tan(alpha + beta)*h``, with no angle computed;
- ``CosineBeam.gain`` takes ``cos(theta) = h / sqrt(r2)``;
- ``FreeSpacePathLoss.loss`` is ``(4 pi / lambda)**2 * r2``, no square root;
- ``AirToGroundPathLoss`` spends an ``arctan2`` on its LoS probability
  only, in both the expectation and the Bernoulli mode.

The SINR kernel (``oracle.evaluate_sinr``) calls ``gain`` and ``loss`` once
per base station with arrays of equal shape. All powers are combined in
linear watts; dB/dBm conversions happen only at I/O boundaries. Angles are
radians. Every function accepts scalars or numpy arrays and is pure (no
shared mutable state), so everything here is safe to call concurrently.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s
HALF_PI = math.pi / 2.0


def db_to_linear(x_db):
    return 10.0 ** (np.asarray(x_db, dtype=float) / 10.0)


def linear_to_db(x_lin):
    return 10.0 * np.log10(x_lin)


def dbm_to_watts(p_dbm):
    return 10.0 ** ((np.asarray(p_dbm, dtype=float) - 30.0) / 10.0)


def watts_to_dbm(p_w):
    return 10.0 * np.log10(p_w) + 30.0


def noise_power_dbm(thermal_noise_dbm_hz: float, bandwidth_hz: float,
                    noise_figure_db: float) -> float:
    """Receiver noise power: TN + 10*log10(BW) + NF, in dBm."""
    if bandwidth_hz <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth_hz}")
    return thermal_noise_dbm_hz + 10.0 * math.log10(bandwidth_hz) + noise_figure_db


@dataclass(frozen=True)
class LinkBudget:
    """Transmit power, carrier and receiver noise parameters."""

    p_tx_dbm: float = 30.0
    carrier_hz: float = 3e9
    bandwidth_hz: float = 20e6
    noise_figure_db: float = 9.0
    thermal_noise_dbm_hz: float = -174.0

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_hz

    @property
    def p_tx_w(self) -> float:
        return float(dbm_to_watts(self.p_tx_dbm))

    @property
    def noise_dbm(self) -> float:
        return noise_power_dbm(self.thermal_noise_dbm_hz, self.bandwidth_hz,
                               self.noise_figure_db)

    @property
    def noise_w(self) -> float:
        return float(dbm_to_watts(self.noise_dbm))

    @property
    def power_constant(self) -> float:
        """P_tx * wavelength^2 / (16 pi^2), in W*m^2.

        Received power under free-space loss is this constant divided by the
        squared link distance (times the antenna gain).
        """
        return self.p_tx_w * self.wavelength_m ** 2 / (16.0 * math.pi ** 2)


@dataclass(frozen=True)
class RectangularBeam:
    """Idealized sector beam: constant gain inside [alpha, alpha+beta], zero outside."""

    peak_gain: float  # linear
    alpha: float      # rad, lower edge of the main lobe
    beta: float       # rad, lobe width

    def gain(self, h, z, r2):
        """Peak gain where the elevation atan2(z, h) lies strictly between
        alpha and alpha + beta, zero elsewhere (edges excluded).

        The edges are tested in tan space, tan(alpha)*h < z and
        z < tan(alpha + beta)*h. Elevations seen from a BS (h >= 0) lie in
        [-90, 90] degrees, so an edge beyond that range never binds, and a
        lobe entirely beyond it is empty. `r2` is not needed.
        """
        h = np.asarray(h, dtype=float)
        z = np.asarray(z, dtype=float)
        lo, hi = self.alpha, self.alpha + self.beta
        shape = np.broadcast(h, z).shape
        if lo >= HALF_PI or hi <= -HALF_PI:
            return np.zeros(shape)
        if lo >= -HALF_PI:
            inside = z > math.tan(lo) * h
        else:
            inside = np.ones(shape, dtype=bool)
        if hi <= HALF_PI:
            inside &= z < math.tan(hi) * h
        return np.where(inside, self.peak_gain, 0.0)


@dataclass(frozen=True)
class CosineBeam:
    """Cosine-squared main lobe of an N-element array, boresight at alpha + beta/2.

    g(theta) = N_t * cos^2(pi*N_t*x/2) for |x| <= 1/N_t with
    x = (cos(theta) - cos(alpha + beta/2)) / 2 (half-wavelength spacing),
    zero elsewhere. Peak gain is exactly N_t.
    """

    n_elements: int
    alpha: float
    beta: float

    def __post_init__(self):
        if self.n_elements < 2:
            raise ValueError(f"element count must be >= 2, got {self.n_elements}")

    def gain(self, h, z, r2):
        """Gain at the elevation whose cosine is h / sqrt(r2); `z` is not
        needed."""
        cos_theta = np.asarray(h, dtype=float) / np.sqrt(r2)
        x = (cos_theta - math.cos(self.alpha + self.beta / 2.0)) / 2.0
        inside = np.abs(x) <= 1.0 / self.n_elements
        g = self.n_elements * np.cos(math.pi * self.n_elements * x / 2.0) ** 2
        return np.where(inside, g, 0.0)


BeamPattern = RectangularBeam | CosineBeam


def suggested_element_count(alpha: float, beta: float) -> int:
    """Element count whose cosine lobe spans roughly the beamwidth beta."""
    span = math.cos(alpha) - math.cos(alpha + beta)
    if span <= 0:
        raise ValueError("beamwidth does not subtend a positive cos-space span")
    return max(2, math.ceil(2.0 / span))


@dataclass(frozen=True)
class FreeSpacePathLoss:
    """PL = (4 pi R / lambda)^2 = (4 pi / lambda)^2 * R^2; independent of
    elevation."""

    def loss(self, h, z, r2, wavelength_m):
        """Linear path loss from the squared distance `r2`; `h` and `z` are
        not needed."""
        r2 = np.asarray(r2, dtype=float)
        if np.any(r2 <= 0):
            raise ValueError("path loss requires a positive distance")
        return (4.0 * math.pi / wavelength_m) ** 2 * r2


@dataclass(frozen=True)
class AirToGroundPathLoss:
    """Probabilistic-LoS air-to-ground loss: sigmoid LoS probability in the
    elevation angle, mixing LoS/NLoS excess losses over free space.

    Defaults are the common suburban parameter set; all four are exposed
    because deployments differ.
    """

    a: float = 4.88
    b: float = 0.43
    eta_los_db: float = 0.1
    eta_nlos_db: float = 21.0

    def p_los(self, h, z):
        """LoS probability at elevation atan2(z, h); the sigmoid takes the
        elevation in degrees."""
        theta_deg = np.degrees(np.arctan2(z, h))
        return 1.0 / (1.0 + self.a * np.exp(-self.b * (theta_deg - self.a)))

    def loss(self, h, z, r2, wavelength_m, los_state=None):
        """Linear path loss. If `los_state` (boolean, broadcastable) is given,
        each link uses its drawn LoS/NLoS state instead of the expectation
        mixture, and the LoS probability is not computed again."""
        pl_fs = FreeSpacePathLoss().loss(h, z, r2, wavelength_m)
        eta_los = float(db_to_linear(self.eta_los_db))
        eta_nlos = float(db_to_linear(self.eta_nlos_db))
        if los_state is not None:
            eta = np.where(los_state, eta_los, eta_nlos)
            return eta * pl_fs
        p = self.p_los(h, z)
        return (p * eta_los + (1.0 - p) * eta_nlos) * pl_fs


PathLossModel = FreeSpacePathLoss | AirToGroundPathLoss


class InterferenceMode(enum.Enum):
    DOMINANT_ONLY = "dominant"
    SUM_ALL = "sum"
