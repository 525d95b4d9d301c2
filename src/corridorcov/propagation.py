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

The SINR kernel (``oracle.evaluate_sinr``) calls ``gain`` once per base
station, and ``loss`` once per base station whose lobe can reach a cell
of the block (on a grid, on its lit window only; see below). ``h``,
``z`` and ``r2`` broadcast against each other. On a grid ``h`` varies
along the row and ``z`` down the column only: the kernel passes ``h`` as a
`np.broadcast_to` view of one row, at the block's shape to ``gain`` and
cut to the window to ``loss``, and ``z`` as one column. A model that does
arithmetic on ``h`` or ``z`` alone first cuts such a view back to its row
(`_compact`), so that work costs one row per block.

Lit windows. Each beam has a private ``_lit_columns(h, z, work)``: for a
grid block with row ``h`` and column ``z`` it returns the slice of columns
outside of which no cell can be lit. It is formed from the block's
extreme heights with the same rounded operations as the lobe test, so it
is a guarantee, not an estimate. The kernel passes that slice to ``gain``
as ``cols``. ``h`` stays the block-shaped row view, while ``r2`` and
``out`` have the window's shape (the block's rows by the columns of
``cols``), and ``gain`` evaluates the lobe there and writes nothing
outside the window. The kernel forms ``r2`` and calls ``loss`` on the
window alone. The rectangular beam also finds the window's fully lit
columns (``_lit_core``), where every height of the block lies strictly
between the edge products of the lobe test: it fills the peak gain there
and tests cell by cell only on the fringe columns on either side, when
those fully lit columns are contiguous (a BS inside the row can split
them in two; then every window column is tested). Called without
``cols``, ``gain`` evaluates every cell.

Buffers. Every model method takes an optional ``out``, a float array of the
broadcast shape (the window's, given ``cols``) that receives the result
and is returned, and an optional ``work``, a `_Workspace` that its scratch
arrays are taken from at the shape they are needed in, so a window's
scratch is contiguous as well. The kernel passes buffers it reuses from
block to block, so a block allocates no temporaries; a model called on its
own allocates what it is not given. ``loss`` raises a ValueError unless
every ``r2`` is positive; a caller that has made that check already (the
kernel, on a grid block's least ``r2``) passes ``checked=True``, and the
model does not pass over ``r2`` again. The in-place forms keep every
operation's operands and order, so their values are bit-identical to the
plain expressions in the docstrings; the peak gain filled on fully lit
columns is the value the lobe test gives them, 1.0 times the peak gain.

All powers are combined in linear watts; dB/dBm conversions happen only at
I/O boundaries. Angles are radians. Every function accepts scalars or numpy
arrays and keeps no shared mutable state.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s
HALF_PI = math.pi / 2.0


class _Workspace:
    """Named flat buffers reused from call to call. `take` views a buffer
    in the shape asked for; a buffer is made anew only when a call asks
    for more cells than it holds or for another dtype. Each role has its
    own name, so buffers in use at the same time do not overlap."""

    def __init__(self):
        self._buffers = {}

    def take(self, name, shape, dtype=float):
        n = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < n or buf.dtype != dtype:
            buf = self._buffers[name] = np.empty(n, dtype)
        return buf[:n].reshape(shape)


def _compact(a):
    """Array `a` with each broadcast axis (stride 0, as `np.broadcast_to`
    makes them) cut to length 1: the same values, each held once, so
    arithmetic on it costs one row instead of one block."""
    if 0 not in a.strides:
        return a
    return a[tuple(slice(None, 1) if step == 0 else slice(None)
                   for step in a.strides)]


def _cut(a, cols):
    """The columns `cols` of `a`, all of it when None."""
    return a if cols is None else a[..., cols]


def _span(dark):
    """The slice from the first to past the last False of a one-row
    boolean array; empty if every entry is True."""
    dark = dark.reshape(-1)
    first = int(dark.argmin())
    if dark[first]:
        return slice(0, 0)
    return slice(first, dark.size - int(dark[::-1].argmin()))


def _buffer(buf, shape):
    """`buf`, or a new float array of `shape` if it is None."""
    return np.empty(shape) if buf is None else buf


def _require_distance(r2_min):
    """Raise the path-loss models' error if the least squared distance is
    not positive (NaN passes, as it does ``r2 <= 0``)."""
    if r2_min <= 0:
        raise ValueError("path loss requires a positive distance")


def db_to_linear(x_db):
    """Linear ratio of x_db decibels; +inf past the float range, which the
    caller's finite checks reject."""
    with np.errstate(over="ignore"):
        return 10.0 ** (np.asarray(x_db, dtype=float) / 10.0)


def dbm_to_watts(p_dbm):
    """Watts of p_dbm; +inf past the float range, as in `db_to_linear`."""
    with np.errstate(over="ignore"):
        return 10.0 ** ((np.asarray(p_dbm, dtype=float) - 30.0) / 10.0)


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
    # the linear values, formed once; they follow from the fields above,
    # so they take no part in eq and hash
    wavelength_m: float = field(init=False, repr=False, compare=False)
    p_tx_w: float = field(init=False, repr=False, compare=False)
    noise_w: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if value <= 0 and name in ("carrier_hz", "bandwidth_hz"):
                raise ValueError(f"{name} must be positive, got {value}")
        # finite inputs whose linear values leave the float range: an
        # infinite power or loss, or a zero one, turns SINR into NaN
        wavelength_m = SPEED_OF_LIGHT / self.carrier_hz
        per_m = 4.0 * math.pi / wavelength_m
        linear = {"wavelength_m": wavelength_m,
                  "free-space loss at 1 m": per_m * per_m,
                  "p_tx_w": float(dbm_to_watts(self.p_tx_dbm)),
                  "noise_w": float(dbm_to_watts(self.noise_dbm))}
        for name, value in linear.items():
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, "
                                 f"got {value}")
        for name in ("wavelength_m", "p_tx_w", "noise_w"):
            object.__setattr__(self, name, linear[name])

    @property
    def noise_dbm(self) -> float:
        return noise_power_dbm(self.thermal_noise_dbm_hz, self.bandwidth_hz,
                               self.noise_figure_db)


@dataclass(frozen=True)
class RectangularBeam:
    """Idealized sector beam: constant gain inside [alpha, alpha+beta], zero outside."""

    peak_gain: float  # linear
    alpha: float      # rad, lower edge of the main lobe
    beta: float       # rad, lobe width

    def __post_init__(self):
        if not (math.isfinite(self.peak_gain) and self.peak_gain >= 0.0):
            raise ValueError(f"peak gain must be finite and >= 0, got {self.peak_gain}")

    def gain(self, h, z, r2, out=None, work=None, cols=None):
        """Peak gain where the elevation atan2(z, h) lies strictly between
        alpha and alpha + beta, zero elsewhere (edges excluded).

        The edges are tested in tan space, tan(alpha)*h < z and
        z < tan(alpha + beta)*h. Elevations seen from a BS (h >= 0) lie in
        [-90, 90] degrees, so an edge beyond that range never binds, and a
        lobe entirely beyond it is empty. `r2` is not needed. The products
        tan(edge)*h have the shape of `h`, one row on a grid. The gain is
        the 0/1 lobe indicator times the peak gain, exact for a finite one.

        With `cols` (from `_lit_columns`), `h` is a grid block's row (or
        its view at the block's shape) and `z` its column, and `out` has
        the window's shape: the block's rows by the columns of `cols`.
        Nothing outside the window is written. The window's fully lit
        columns (`_lit_core`) take the peak gain with no test per cell.
        """
        h = _cut(_compact(np.asarray(h, dtype=float)), cols)
        z = _compact(np.asarray(z, dtype=float))
        out = _buffer(out, np.broadcast_shapes(h.shape, z.shape))
        lo, hi = self.alpha, self.alpha + self.beta
        if lo >= HALF_PI or hi <= -HALF_PI:
            out.fill(0.0)
            return out
        work = _Workspace() if work is None else work
        if cols is None:
            return self._lobe(h, z, out, work)
        if out.size == 0:
            return out
        core = self._lit_core(h, z, work)
        out[..., core] = self.peak_gain
        for fringe in (slice(0, core.start), slice(core.stop, h.shape[-1])):
            if fringe.start < fringe.stop:
                self._lobe(h[..., fringe], z, out[..., fringe], work)
        return out

    def _lobe(self, h, z, out, work):
        """The lobe test of `gain`, cell by cell, written to `out`."""
        lo, hi = self.alpha, self.alpha + self.beta
        edge = work.take("beam.edge", h.shape)
        inside = work.take("beam.inside", out.shape, bool)
        if lo >= -HALF_PI:
            np.greater(z, np.multiply(h, math.tan(lo), out=edge), out=inside)
        else:
            inside.fill(True)
        if hi <= HALF_PI:
            below = work.take("beam.below", out.shape, bool)
            np.less(z, np.multiply(h, math.tan(hi), out=edge), out=below)
            inside &= below
        return np.multiply(inside, self.peak_gain, out=out)

    def _unlit(self, h, top, bottom, work):
        """Booleans in the shape of row `h`: True where a height `top` is
        not above the lower edge product or `bottom` not below the upper
        one, the products formed as the lobe test forms them."""
        lo, hi = self.alpha, self.alpha + self.beta
        edge = work.take("beam.edge", h.shape)
        unlit = work.take("beam.unlit", h.shape, bool)
        unlit.fill(False)
        if lo >= -HALF_PI:
            np.less_equal(top, np.multiply(h, math.tan(lo), out=edge),
                          out=unlit)
        if hi <= HALF_PI:
            unlit |= np.greater_equal(
                bottom, np.multiply(h, math.tan(hi), out=edge),
                out=work.take("beam.past", h.shape, bool))
        return unlit

    def _lit_columns(self, h, z, work):
        """Columns of the grid block with row `h` and column `z` outside
        of which no cell is lit, as a slice. A column is dark if no z of
        the block lies above its lower edge product or none below its
        upper one."""
        lo, hi = self.alpha, self.alpha + self.beta
        if lo >= HALF_PI or hi <= -HALF_PI:
            return slice(0, 0)
        return _span(self._unlit(h, z.max(), z.min(), work))

    def _lit_core(self, h, z, work):
        """Columns of the grid block with row `h` and column `z` where
        every cell is lit, as a slice; empty unless those columns are
        contiguous. A column is fully lit if every z of the block lies
        above its lower edge product and below its upper one."""
        part = self._unlit(h, z.min(), z.max(), work)
        core = _span(part)
        return slice(0, 0) if part[..., core].any() else core


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

    def gain(self, h, z, r2, out=None, work=None, cols=None):
        """Gain at the elevation whose cosine is h / sqrt(r2); `z` is not
        needed. With `cols` (from `_lit_columns`), `h` is a grid block's
        row (or its view at the block's shape), and `r2` and `out` have
        the window's shape: the block's rows by the columns of `cols`.
        Nothing outside the window is written."""
        h = _cut(_compact(np.asarray(h, dtype=float)), cols)
        r2 = np.asarray(r2, dtype=float)
        x = _buffer(out, np.broadcast_shapes(h.shape, r2.shape))
        work = _Workspace() if work is None else work
        self._offset(h, r2, out=x)
        inside = np.less_equal(np.abs(x, out=work.take("beam.abs_x", x.shape)),
                               1.0 / self.n_elements,
                               out=work.take("beam.inside", x.shape, bool))
        x *= math.pi * self.n_elements
        x /= 2.0
        g = np.cos(x, out=x)
        np.square(g, out=g)
        g *= self.n_elements
        np.copyto(g, 0.0, where=np.logical_not(inside, out=inside))
        return g

    def _offset(self, h, r2, out):
        """x = (h / sqrt(r2) - cos(alpha + beta/2)) / 2, written to `out`."""
        np.sqrt(r2, out=out)
        np.divide(h, out, out=out)               # cos(theta)
        out -= math.cos(self.alpha + self.beta / 2.0)
        out /= 2.0
        return out

    def _lit_columns(self, h, z, work):
        """Columns of the grid block with row `h` and column `z` outside
        of which no cell is lit, as a slice. Each rounding in x of
        r2 = h*h + z*z is monotone, so x does not grow with z*z, and a
        column's x lie between its values at the block's largest and
        smallest z*z. The column is dark if x is below -1/N at the
        smallest z*z or above 1/N at the largest."""
        z2 = np.multiply(z, z, out=work.take("beam.z2", z.shape))
        hh = np.multiply(h, h, out=work.take("beam.hh", h.shape))
        x = work.take("beam.x", h.shape)
        bound = 1.0 / self.n_elements
        dark = work.take("beam.dark", h.shape, bool)
        self._offset(h, np.add(hh, z2.min(), out=x), out=x)
        np.less(x, -bound, out=dark)
        self._offset(h, np.add(hh, z2.max(), out=x), out=x)
        dark |= np.greater(x, bound, out=work.take("beam.past", h.shape, bool))
        return _span(dark)


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

    def loss(self, h, z, r2, wavelength_m, out=None, work=None,
             checked=False):
        """Linear path loss from the squared distance `r2`; `h`, `z` and
        `work` are not needed."""
        r2 = np.asarray(r2, dtype=float)
        if r2.size and not checked:
            _require_distance(r2.min())
        return np.multiply(r2, (4.0 * math.pi / wavelength_m) ** 2, out=out)


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
    # the linear excess losses, formed once; they follow from the dB
    # fields, so they take no part in eq and hash
    _eta_los: float = field(init=False, repr=False, compare=False)
    _eta_nlos: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        eta_los = float(db_to_linear(self.eta_los_db))
        eta_nlos = float(db_to_linear(self.eta_nlos_db))
        if not (math.isfinite(eta_los) and math.isfinite(eta_nlos)):
            raise ValueError("excess loss must be finite, got "
                             f"{self.eta_los_db} and {self.eta_nlos_db} dB")
        object.__setattr__(self, "_eta_los", eta_los)
        object.__setattr__(self, "_eta_nlos", eta_nlos)

    def p_los(self, h, z, out=None, work=None):
        """LoS probability at elevation atan2(z, h); the sigmoid takes the
        elevation in degrees:
        1 / (1 + a * exp(-b * (degrees(atan2(z, h)) - a))). `work` is not
        needed."""
        p = _buffer(out, np.broadcast_shapes(np.shape(h), np.shape(z)))
        np.arctan2(z, h, out=p)
        p *= 180.0 / math.pi  # np.degrees, bit for bit
        p -= self.a
        p *= -self.b
        np.exp(p, out=p)
        p *= self.a
        p += 1.0
        return np.divide(1.0, p, out=p)

    def loss(self, h, z, r2, wavelength_m, los_state=None, out=None,
             work=None, checked=False):
        """Linear path loss, (p * eta_los + (1 - p) * eta_nlos) * pl_fs with
        p = p_los(h, z). If `los_state` (boolean, broadcastable) is given,
        each link uses its drawn LoS/NLoS state instead,
        where(los_state, eta_los, eta_nlos) * pl_fs, and the LoS probability
        is not computed again."""
        shape = np.broadcast_shapes(np.shape(h), np.shape(z), np.shape(r2),
                                    np.shape(los_state))
        out = _buffer(out, shape)
        work = _Workspace() if work is None else work
        tmp = work.take("a2g.tmp", shape)
        eta_los, eta_nlos = self._eta_los, self._eta_nlos
        fspl = FreeSpacePathLoss()
        if los_state is not None:
            # where(los_state, eta_los, eta_nlos) as f * eta_los
            # + (1 - f) * eta_nlos with f = los_state in {0, 1}: exact for
            # finite etas, and no branch per link on a random state
            eta = out
            np.copyto(eta, los_state)
            np.subtract(1.0, eta, out=tmp)
            tmp *= eta_nlos
            eta *= eta_los
            eta += tmp
            pl_fs = fspl.loss(h, z, r2, wavelength_m, out=tmp, checked=checked)
            return np.multiply(eta, pl_fs, out=out)
        p = self.p_los(h, z, out=out)
        np.subtract(1.0, p, out=tmp)
        tmp *= eta_nlos
        p *= eta_los
        p += tmp
        pl_fs = fspl.loss(h, z, r2, wavelength_m, out=tmp, checked=checked)
        return np.multiply(p, pl_fs, out=out)


PathLossModel = FreeSpacePathLoss | AirToGroundPathLoss


class InterferenceMode(enum.Enum):
    DOMINANT_ONLY = "dominant"
    SUM_ALL = "sum"
