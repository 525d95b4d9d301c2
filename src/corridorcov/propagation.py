"""Antenna beam patterns, path-loss models and noise power.

Beams and path-loss models share one call protocol: they take the geometry
of a BS-to-point link as ``(h, z, r2)``, where ``h = |x - x_BS| >= 0`` is the
horizontal distance, ``z`` the height above the BS antenna and
``r2 = h**2 + z**2`` the squared link distance. Each model derives only what
it needs from them:

- ``RectangularBeam.gain`` tests its lobe edges in tan space,
  ``tan(alpha)*h < z < tan(alpha + beta)*h``, each tan formed once per
  beam and no angle computed;
- ``CosineBeam.gain`` takes ``cos(theta) = h / sqrt(r2)``;
- ``FreeSpacePathLoss.loss`` is ``(4 pi / lambda)**2 * r2``, no square root;
- ``AirToGroundPathLoss`` spends an ``arctan2`` on its LoS probability
  only, in both the expectation and the Bernoulli mode.

Both path-loss models take the links' drawn LoS states as ``los_state``
(None in expectation mode); free space has no LoS state and ignores it.

The SINR kernel (``oracle.evaluate_sinr``) calls ``gain`` once per base
station (on streamed samples, once per base station whose lobe can reach
one of them, by ``_box_gain`` below), and ``loss`` once per base station
whose lobe does reach a point of the block, each on the BS's lit window
only (see below), and given a threshold, on the grid rows or streamed
samples whose coverage an SINR bound leaves open only (see `oracle`,
"Settled tiles and boxes").
``h``, ``z`` and ``r2`` broadcast against each other. On a grid block
``h`` varies along the row and ``z`` down the column only: the kernel
passes ``h`` as a `np.broadcast_to` view of one row, at the block's shape
to ``gain`` and at the window's to ``loss``, and ``z`` as the window's
column. A model that does arithmetic on ``h`` or ``z`` alone first cuts
such a view back to its row (`_compact`), so that work costs one row per
block.

Lit windows. The kernel evaluates windows of grid blocks of whole
columns, whose rows are the grid's ascending heights. For such a block,
``_lit_samples(h_near, h_far, z)`` takes its column of heights ``z`` and
the bounds ``[h_near, h_far]`` of its distances to a BS, and gives
``(window, core)``: the run of rows outside of which no point can be
lit, and the run inside it where every point is lit (counted from the
window's start), or None. The rectangular beam finds both by a search of
``z`` for its edge products at the two distances, formed as its lobe
test forms them, so they are guarantees, not estimates. The cosine beam
names the whole block and no core. From the same edge products,
``_box_gain(h_near, h_far, z_lo, z_hi)`` bounds the gain over boxes of
points (the SINR box map of streamed Monte Carlo samples, a block of
streamed samples, a held set): the peak where a box is lit at every
point, 0 where no point of it can be lit, and [0, peak] between them and
everywhere on the cosine beam.

The kernel passes ``z``, ``r2`` and ``out`` to ``gain`` at the window's
shape, ``h`` as the block-shaped view of its row on a grid, and the core
as ``core``: the rectangular beam fills the peak gain on the core's rows
and tests cell by cell only on either side of them, and every cell when
``core`` is None. The lit sets of held samples (`oracle._lit_sets`) run
the lobe test with a BS's bit in place of the peak gain
(`RectangularBeam._mark`), so that a sample is lit exactly where
``gain`` gives it the peak.

Buffers. Every model method takes an optional ``out``, a float array of
the broadcast shape that receives the result and is returned, and an
optional ``work``, a `_Workspace` that its scratch arrays are taken from
at the shape they are needed in, so a window's scratch is contiguous as
well. The kernel passes buffers it reuses from block to block, so a block
allocates no temporaries; a model called on its own allocates what it is
not given. ``loss`` raises a ValueError unless every ``r2`` is positive
and its free-space loss finite; the kernel, which checks that for every
block (see `oracle`), passes ``checked=True``, and the model does not pass
over ``r2`` again. The in-place forms keep every operation's operands and
order, so their values are bit-identical to the plain expressions in the
docstrings; the peak gain filled on fully lit cells is the value the
lobe test gives them, 1.0 times the peak gain.

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


def _part(a, part):
    """The slice `part` of the first axis of `a`, or all of `a` if that
    axis has length 1 (a grid's row of distances, which broadcasts)."""
    return a if a.shape[0] == 1 else a[part]


def _buffer(buf, *arrays):
    """`buf`, or if it is None a new float array of the shape that
    `arrays` broadcast to."""
    if buf is not None:
        return buf
    return np.empty(np.broadcast_shapes(*(np.shape(a) for a in arrays)))


def _per_m2(wavelength_m):
    """Free-space loss per square metre of squared distance,
    (4 pi / lambda)**2."""
    return (4.0 * math.pi / wavelength_m) ** 2


def _loss_range(r2_least, r2_most, wavelength_m, pathloss):
    """Least and greatest loss of `pathloss` over the squared distances
    from `r2_least` to `r2_most` (floats, or arrays of them): the
    free-space loss at each, times the model's `_least` and `_excess`
    bounds on its excess loss."""
    per_m2 = _per_m2(wavelength_m)
    return (r2_least * per_m2 * pathloss._least,
            r2_most * per_m2 * pathloss._excess)


def _require_distance(r2_least, r2_most, wavelength_m, pathloss, p_peak=0.0,
                      noise=0.0):
    """Raise the path-loss models' error unless the squared distances
    from `r2_least` to `r2_most` are positive and their loss under
    `pathloss` is finite (NaN passes, as it does ``r2 <= 0``); and unless
    `p_peak` (W), the transmit power times the beam's peak gain summed
    over the base stations, over the least loss, and that over `noise`
    (W) when it is positive, are finite. Then no received power, no sum
    of them and no SINR over that noise leaves the float range."""
    floor, most = _loss_range(r2_least, r2_most, wavelength_m, pathloss)
    if most == math.inf:
        raise ValueError("path loss requires a finite loss, but squared "
                         f"distances reach {r2_most:g} m^2")
    if floor <= 0:
        raise ValueError("path loss requires a positive distance")
    # with no noise, or 1 W or more of it, the power alone is bounded
    if p_peak / floor / min(noise or 1.0, 1.0) == math.inf:
        raise ValueError(f"received power must be finite: {p_peak:g} W over "
                         f"a path loss of {floor:g}, noise {noise:g} W")


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
    # tan of each edge, None where the edge lies beyond 90 degrees and so
    # never binds, and whether the lobe lies entirely beyond 90 degrees;
    # formed once, they follow from alpha and beta, so they take no part in
    # eq and hash
    _t_lo: float | None = field(init=False, repr=False, compare=False)
    _t_hi: float | None = field(init=False, repr=False, compare=False)
    _dark: bool = field(init=False, repr=False, compare=False)
    # the greatest gain at any point, as on the cosine beam
    _peak: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (math.isfinite(self.peak_gain) and self.peak_gain >= 0.0):
            raise ValueError(f"peak gain must be finite and >= 0, got {self.peak_gain}")
        lo, hi = self.alpha, self.alpha + self.beta
        object.__setattr__(self, "_t_lo",
                           math.tan(lo) if lo >= -HALF_PI else None)
        object.__setattr__(self, "_t_hi",
                           math.tan(hi) if hi <= HALF_PI else None)
        object.__setattr__(self, "_dark", lo >= HALF_PI or hi <= -HALF_PI)
        object.__setattr__(self, "_peak", self.peak_gain)

    def gain(self, h, z, r2, out=None, work=None, core=None):
        """Peak gain where the elevation atan2(z, h) lies strictly between
        alpha and alpha + beta, zero elsewhere (edges excluded).

        The edges are tested in tan space, tan(alpha)*h < z and
        z < tan(alpha + beta)*h. Elevations seen from a BS (h >= 0) lie in
        [-90, 90] degrees, so an edge beyond that range never binds, and a
        lobe entirely beyond it is empty. `r2` is not needed. The products
        tan(edge)*h have the shape of `h`, one row on a grid. The gain is
        the 0/1 lobe indicator times the peak gain, exact for a finite one.

        With `core` (from `_lit_samples`), the rows `core` (a slice of the
        first axis) are fully lit: they take the peak gain, and only the
        rows on either side of them are tested. With `core` None, every
        cell is tested.
        """
        h = _compact(np.asarray(h, dtype=float))
        z = _compact(np.asarray(z, dtype=float))
        out = _buffer(out, h, z)
        if self._dark:
            out.fill(0.0)
            return out
        return self._mark(h, z, out, self.peak_gain, work, core)

    def _mark(self, h, z, out, value, work=None, core=None):
        """`value` where the lobe test of `gain` passes and 0 elsewhere,
        written to `out` (of any dtype that holds `value`), for a beam
        that is not dark: `gain` with `value` the peak gain, or a BS's bit
        of the lit sets of held samples (`oracle._lit_sets`). With `core`,
        the rows `core` take `value` and only the rows on either side of
        them are tested."""
        work = _Workspace() if work is None else work
        if core is None:
            return self._lobe(h, z, out, value, work)
        out[core] = value
        for fringe in (slice(0, core.start), slice(core.stop, len(out))):
            if fringe.start < fringe.stop:
                self._lobe(_part(h, fringe), _part(z, fringe), out[fringe],
                           value, work)
        return out

    def _lobe(self, h, z, out, value, work):
        """The lobe test of `gain`, cell by cell: `value` where it passes,
        written to `out`."""
        # the edge products have the shape of h; when that is a float
        # out's, out holds them until the result is written
        edge = (out if out.shape == h.shape and out.dtype == float
                else work.take("beam.edge", h.shape))
        inside = work.take("beam.inside", out.shape, bool)
        if self._t_lo is None:
            inside.fill(True)
        else:
            np.greater(z, np.multiply(h, self._t_lo, out=edge), out=inside)
        if self._t_hi is not None:
            below = work.take("beam.below", out.shape, bool)
            np.less(z, np.multiply(h, self._t_hi, out=edge), out=below)
            inside &= below
        return np.multiply(inside, value, out=out)

    def _lit_samples(self, h_near, h_far, z):
        """Points of a block, whose heights `z` ascend along its first
        axis, that the lobe can reach from a BS whose horizontal distance
        to each of them lies in [h_near, h_far], as a slice of that axis;
        and the slice of that window where every point is lit, counted
        from the window's start, or None if there is none. `z` is 1-D, a
        grid block's column of heights.

        The edge product h * tan(edge) is monotone in h, each rounding
        being monotone, so over the block it lies between its values at
        h_near and h_far, formed as the lobe test forms them (a tan below
        zero, downtilt, swaps the two). A point can be lit only above the
        lesser lower product and below the greater upper one, and is lit
        above the greater lower product and below the lesser upper one;
        an edge beyond 90 degrees does not bind."""
        if self._dark:
            return slice(0, 0), None
        start = core_start = 0
        stop = core_stop = len(z)
        if self._t_lo is not None:
            ends = (h_near * self._t_lo, h_far * self._t_lo)
            start = int(z.searchsorted(min(ends), side="right"))
            core_start = int(z.searchsorted(max(ends), side="right"))
        if self._t_hi is not None:
            ends = (h_near * self._t_hi, h_far * self._t_hi)
            stop = int(z.searchsorted(max(ends), side="left"))
            core_stop = int(z.searchsorted(min(ends), side="left"))
        if stop <= start:
            return slice(0, 0), None
        if core_stop <= core_start:
            return slice(start, stop), None
        return slice(start, stop), slice(core_start - start,
                                         core_stop - start)

    def _box_gain(self, h_near, h_far, z_lo, z_hi):
        """Least and greatest gain over boxes of points whose horizontal
        distances to a BS lie in [h_near, h_far] and whose heights lie in
        [z_lo, z_hi] (arrays that broadcast, one value per box), from the
        edge products of `_lit_samples`: a box can be lit only if z_hi
        lies above the lesser lower product and z_lo below the greater
        upper one, and it is lit at every point if z_lo lies above the
        greater lower product and z_hi below the lesser upper one. Unlike a
        lit window, this holds for a lobe that lies wholly inside a box."""
        shape = np.broadcast_shapes(*(np.shape(v) for v in
                                      (h_near, h_far, z_lo, z_hi)))
        lit = np.full(shape, not self._dark)
        full = lit.copy()
        if self._t_lo is not None:
            ends = (h_near * self._t_lo, h_far * self._t_lo)
            lit &= z_hi > np.minimum(*ends)
            full &= z_lo > np.maximum(*ends)
        if self._t_hi is not None:
            ends = (h_near * self._t_hi, h_far * self._t_hi)
            lit &= z_lo < np.maximum(*ends)
            full &= z_hi < np.minimum(*ends)
        return full * self.peak_gain, lit * self.peak_gain


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
    # the greatest gain at any point, N_t; it follows from n_elements, so
    # it takes no part in eq and hash
    _peak: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_elements < 2:
            raise ValueError(f"element count must be >= 2, got {self.n_elements}")
        object.__setattr__(self, "_peak", float(self.n_elements))

    def gain(self, h, z, r2, out=None, work=None, core=None):
        """Gain at the elevation whose cosine is h / sqrt(r2); `z` is not
        needed. Its windows hold no fully lit core, so `core` is None (as
        `_lit_samples` gives it) and every cell is evaluated."""
        h = _compact(np.asarray(h, dtype=float))
        r2 = np.asarray(r2, dtype=float)
        x = _buffer(out, h, r2)
        work = _Workspace() if work is None else work
        np.sqrt(r2, out=x)
        np.divide(h, x, out=x)                   # cos(theta)
        x -= math.cos(self.alpha + self.beta / 2.0)
        x /= 2.0
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

    def _lit_samples(self, h_near, h_far, z):
        """The window of a block whose heights `z` ascend along its first
        axis (see `RectangularBeam._lit_samples`): the whole block, and no
        fully lit core."""
        return slice(0, len(z)), None

    def _box_gain(self, h_near, h_far, z_lo, z_hi):
        """Least and greatest gain over boxes of points (see
        `RectangularBeam._box_gain`): 0 and the peak gain on every box."""
        shape = np.broadcast_shapes(*(np.shape(v) for v in
                                      (h_near, h_far, z_lo, z_hi)))
        return np.zeros(shape), np.full(shape, self._peak)


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

    # bounds on loss / free-space loss (see `AirToGroundPathLoss`)
    _excess = _least = 1.0

    def loss(self, h, z, r2, wavelength_m, los_state=None, out=None,
             work=None, checked=False):
        """Linear path loss from the squared distance `r2`; `h`, `z` and
        `work` are not needed, and free space has no LoS state, so
        `los_state` is not read."""
        r2 = np.asarray(r2, dtype=float)
        if r2.size and not checked:
            _require_distance(r2.min(), r2.max(), wavelength_m, self)
        return np.multiply(r2, _per_m2(wavelength_m), out=out)


# the free-space part of the air-to-ground loss
_FREE_SPACE = FreeSpacePathLoss()


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
    # bounds on loss / free-space loss: the free-space loss is formed
    # first, and the mixture of the etas passes the greater, or the
    # lesser, by a few ulps at most
    _excess: float = field(init=False, repr=False, compare=False)
    _least: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        eta_los = float(db_to_linear(self.eta_los_db))
        eta_nlos = float(db_to_linear(self.eta_nlos_db))
        # the kernel's power bound divides by the lesser
        if not (0.0 < eta_los < math.inf and 0.0 < eta_nlos < math.inf):
            raise ValueError("excess loss must be finite and positive, got "
                             f"{self.eta_los_db} and {self.eta_nlos_db} dB")
        object.__setattr__(self, "_eta_los", eta_los)
        object.__setattr__(self, "_eta_nlos", eta_nlos)
        object.__setattr__(self, "_excess",
                           max(1.0, 2.0 * max(eta_los, eta_nlos)))
        object.__setattr__(self, "_least", min(eta_los, eta_nlos) / 2.0)

    def p_los(self, h, z, out=None, work=None):
        """LoS probability at elevation atan2(z, h); the sigmoid takes the
        elevation in degrees:
        1 / (1 + a * exp(-b * (degrees(atan2(z, h)) - a))). `work` is not
        needed."""
        p = _buffer(out, h, z)
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
        out = _buffer(out, h, z, r2, los_state)
        work = _Workspace() if work is None else work
        tmp = work.take("a2g.tmp", out.shape)
        if los_state is None:
            p = self.p_los(h, z, out=out)
        else:
            # the drawn states as p in {0, 1}: the mixture below is then
            # where(los_state, eta_los, eta_nlos), exact for finite etas,
            # with no branch per link on a random state
            p = out
            np.copyto(p, los_state)
        np.subtract(1.0, p, out=tmp)
        tmp *= self._eta_nlos
        p *= self._eta_los
        p += tmp
        pl_fs = _FREE_SPACE.loss(h, z, r2, wavelength_m, out=tmp,
                                 checked=checked)
        return np.multiply(p, pl_fs, out=out)


PathLossModel = FreeSpacePathLoss | AirToGroundPathLoss


class InterferenceMode(enum.Enum):
    DOMINANT_ONLY = "dominant"
    SUM_ALL = "sum"
