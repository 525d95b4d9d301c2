"""SINR field over the half-corridor cross-section and CSV/portable-pixmap
export."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import CorridorScenario
from .oracle import (
    OracleAssumptions,
    _grid_rows,
    _midpoints,
    _sum_blocks,
    evaluate_sinr,
)
from .propagation import _Workspace

# Fixed dB clamp of the image color ramp, for reproducible bytes.
DB_CLAMP = (-20.0, 40.0)

# Cells per write_csv block: its byte matrix and mask, about 32 bytes per
# cell each, stay near 0.25 MiB.
CSV_BLOCK_CELLS = 8192


@dataclass
class SinrField:
    """Cell-centered SINR samples (dB) with the serving BS index per cell.

    sinr_db and serving are (nz, nx) row-major arrays, row k at height
    z_centers[k]; cells with no received power hold -inf and the
    nearest-by-distance serving index. corridor_band is carried as metadata
    for overlays (the field's z range may start below the corridor).
    """

    x_min: float
    x_max: float
    z_min: float
    z_max: float
    nx: int
    nz: int
    sinr_db: np.ndarray
    serving: np.ndarray
    scenario: CorridorScenario
    assumptions: OracleAssumptions

    @property
    def x_centers(self) -> np.ndarray:
        return _midpoints(self.x_min, self.x_max, self.nx)

    @property
    def z_centers(self) -> np.ndarray:
        return _midpoints(self.z_min, self.z_max, self.nz)


def sinr_field(s: CorridorScenario, a: OracleAssumptions, nx: int, nz: int,
               x_range: tuple[float, float] | None = None,
               z_range: tuple[float, float] | None = None) -> SinrField:
    """Evaluate the SINR field on cell centers in blocks of whole rows (the
    row-block loop the quadrature uses, in the caller's thread); each block
    fills its own rows.

    Defaults cover the half corridor width and the full height from the BS
    antenna level: x in [0, d1/2], z in [0, h2].
    """
    x_min, x_max = x_range if x_range is not None else (0.0, s.d1 / 2.0)
    z_min, z_max = z_range if z_range is not None else (0.0, s.h2)
    if not (x_max > x_min and z_max > z_min and nx > 0 and nz > 0):
        raise ValueError("field ranges must be positive and counts > 0")
    xs = _midpoints(x_min, x_max, nx)
    zs = _midpoints(z_min, z_max, nz)

    sinr_db = np.empty((nz, nx), dtype=float)
    serving = np.empty((nz, nx), dtype=np.int64)

    work = _Workspace()
    beam, positions = a.resolve_beam(s), a.resolve_positions(s)

    def fill(lo, hi):
        x, z = _grid_rows(xs, zs, lo, hi)
        idx, val = evaluate_sinr(x, z, s, a, work=work, beam=beam,
                                 positions=positions)
        db = sinr_db[lo:hi]
        with np.errstate(divide="ignore"):
            np.log10(val, out=db)
        db *= 10.0
        serving[lo:hi] = idx
        return 0

    _sum_blocks(nz, nx, fill)
    return SinrField(x_min=x_min, x_max=x_max, z_min=z_min, z_max=z_max,
                     nx=nx, nz=nz, sinr_db=sinr_db, serving=serving,
                     scenario=s, assumptions=a)


def _field_meta(field: SinrField, extra: dict | None = None) -> dict[str, str]:
    s = field.scenario
    a = field.assumptions
    meta = {
        "d1_m": f"{s.d1:g}", "h1_m": f"{s.h1:g}", "h2_m": f"{s.h2:g}",
        "alpha_deg": f"{math.degrees(s.alpha):g}",
        "beta_deg": f"{math.degrees(s.beta):g}",
        "tau_db": f"{s.tau_db:g}",
        "p_tx_dbm": f"{s.radio.p_tx_dbm:g}",
        "carrier_hz": f"{s.radio.carrier_hz:g}",
        "bandwidth_hz": f"{s.radio.bandwidth_hz:g}",
        "noise_figure_db": f"{s.radio.noise_figure_db:g}",
        "thermal_noise_dbm_hz": f"{s.radio.thermal_noise_dbm_hz:g}",
        "association": a.association.value,
        "interference": a.interference.value,
        "include_noise": str(a.include_noise).lower(),
        "pathloss": type(a.pathloss).__name__,
        "beam": type(a.resolve_beam(s)).__name__,
        "x_range_m": f"{field.x_min:g}..{field.x_max:g}",
        "z_range_m": f"{field.z_min:g}..{field.z_max:g}",
        "nx": str(field.nx), "nz": str(field.nz),
        "corridor_band_m": f"{s.h1:g}..{s.h2:g}",
    }
    if extra:
        meta.update({k: str(v) for k, v in extra.items()})
    return meta


def _text_matrix(strings: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """ASCII strings as a NUL-padded (n, width) byte matrix and the mask of
    its real bytes."""
    m = np.array(strings, dtype=bytes)
    m = m.view(np.uint8).reshape(m.size, m.itemsize)
    return m, m != 0


def _put_digits(line: np.ndarray, shown: np.ndarray, col: int, n: np.ndarray,
                width: int, always: int) -> None:
    """Write the `width` lowest decimal digits of the non-negative integers
    `n`, most significant first, into columns col.. of `line`. A digit is
    shown if it is not a leading zero or is one of the last `always`."""
    for i in range(width):
        place = 10 ** (width - 1 - i)
        line[:, col + i] = n // place % 10 + 48
        shown[:, col + i] = (n >= place) if i < width - always else True


def write_csv(field: SinrField, path: str, extra_meta: dict | None = None) -> None:
    """Row-major cell dump: header `x_m,z_m,sinr_db,serving_bs`, one row per
    cell (z rows outer, x inner), each the text of
    f"{x:.6g},{z:.6g},{sinr_db:.4f},{serving}" (a -inf cell reads "-inf").
    The resolved configuration is embedded as leading '#' comment lines.

    The rows are built in blocks of whole field rows of about
    CSV_BLOCK_CELLS cells: a byte matrix with one fixed column layout per
    line and a mask of the bytes shown, compacted and written at once. The
    x and z strings are formatted once each. `sinr_db` is formatted from
    q = rint(v * 1e4) by integer digits, with the sign of v, so values that
    round to zero keep Python's "-0.0000".

    Exactness: for |v| < 1e5 the product v * 1e4 is below 1e9 < 2**30, so
    its rounding error is at most 2**-24 < 6e-8. Unless the product lies
    within 1e-6 of a half-integer, the exact decimal value rounds the same
    way, and q is what Python's correctly rounded `.4f` prints. A cell falls
    back to Python's f"{v:.4f}" if it is not finite, if |v| >= 1e5 or if
    v * 1e4 lies within 1e-6 of a half-integer.
    """
    nx = field.nx
    x_txt, x_shown = _text_matrix([f"{x:.6g}," for x in field.x_centers.tolist()])
    z_txt, z_shown = _text_matrix([f"{z:.6g}," for z in field.z_centers.tolist()])
    srv_width = len(str(int(field.serving.max())))
    c_z = x_txt.shape[1]
    c_sinr = c_z + z_txt.shape[1]
    rows_per_block = max(1, CSV_BLOCK_CELLS // nx)
    with open(path, "wb") as fh:
        for key, value in _field_meta(field, extra_meta).items():
            fh.write(f"# {key}={value}\n".encode("ascii"))
        fh.write(b"x_m,z_m,sinr_db,serving_bs\n")
        for k0 in range(0, field.nz, rows_per_block):
            rows = slice(k0, k0 + rows_per_block)
            v = field.sinr_db[rows].ravel()
            with np.errstate(invalid="ignore", over="ignore"):
                t = v * 1e4
                exact = (np.abs(v) < 1e5) & (np.abs(t - np.floor(t) - 0.5) >= 1e-6)
            # |q| <= 1e9 fits int32, whose divisions cost half of int64's
            q = np.abs(np.rint(np.where(exact, t, 0.0))).astype(np.int32)
            slow = np.flatnonzero(~exact)
            fb_txt, fb_shown = _text_matrix([f"{u:.4f}" for u in v[slow].tolist()])
            # sinr_db columns: sign, 6 integer digits, '.', 4 decimals, and
            # room for the widest fallback text of the block
            w_sinr = max(12, fb_txt.shape[1])
            c_srv = c_sinr + w_sinr
            width = c_srv + srv_width + 2
            text = np.empty((v.size // nx, nx, width), dtype=np.uint8)
            shown = np.empty(text.shape, dtype=bool)
            text[:, :, :c_z] = x_txt
            shown[:, :, :c_z] = x_shown
            text[:, :, c_z:c_sinr] = z_txt[rows, None]
            shown[:, :, c_z:c_sinr] = z_shown[rows, None]
            line = text.reshape(v.size, width)
            ok = shown.reshape(v.size, width)
            line[:, c_sinr] = ord("-")
            ok[:, c_sinr] = np.signbit(v)
            _put_digits(line, ok, c_sinr + 1, q // 10_000, 6, 1)
            line[:, c_sinr + 7] = ord(".")
            ok[:, c_sinr + 7] = True
            _put_digits(line, ok, c_sinr + 8, q % 10_000, 4, 4)
            ok[:, c_sinr + 12:c_srv] = False
            if slow.size:
                ok[slow, c_sinr:c_srv] = False
                line[slow, c_sinr:c_sinr + fb_txt.shape[1]] = fb_txt
                ok[slow, c_sinr:c_sinr + fb_txt.shape[1]] = fb_shown
            line[:, c_srv] = ord(",")
            ok[:, c_srv] = True
            _put_digits(line, ok, c_srv + 1, field.serving[rows].ravel(),
                        srv_width, 1)
            line[:, -1] = ord("\n")
            ok[:, -1] = True
            fh.write(line[ok].tobytes())


def _color_ramp() -> np.ndarray:
    """Fixed 256-entry RGB ramp; index 0 is reserved for -inf cells."""
    anchors = np.array([
        [20, 20, 60],     # deep blue
        [0, 90, 200],     # blue
        [0, 180, 120],    # green
        [240, 220, 40],   # yellow

        [210, 30, 30],    # red
    ], dtype=float)
    lut = np.empty((256, 3), dtype=np.uint8)
    lut[0] = (40, 40, 40)  # reserved: no signal
    pos = np.linspace(0.0, 1.0, 255)
    seg = np.minimum((pos * (len(anchors) - 1)).astype(int), len(anchors) - 2)
    frac = pos * (len(anchors) - 1) - seg
    lut[1:] = np.clip(anchors[seg] * (1 - frac[:, None])
                      + anchors[seg + 1] * frac[:, None], 0, 255).astype(np.uint8)
    return lut


def write_ppm(field: SinrField, path: str, extra_meta: dict | None = None) -> None:
    """Binary portable pixmap (P6) of the field, top row = highest z.

    Values, +inf included, clamp to DB_CLAMP and map to ramp indices
    1..255; -inf (no received power) maps to the reserved index 0. The
    resolved configuration goes into PPM comment lines, so identical runs
    produce identical bytes."""
    lut = _color_ramp()
    lo, hi = DB_CLAMP
    level = np.clip(field.sinr_db, lo, hi)
    level -= lo
    level /= hi - lo
    level *= 254
    np.rint(level, out=level)
    level += 1
    index = level.astype(np.uint8)
    index[np.isneginf(field.sinr_db)] = 0
    rgb = lut[index[::-1]]  # flip so the image reads height-up
    with open(path, "wb") as fh:
        fh.write(b"P6\n")
        for key, value in _field_meta(field, extra_meta).items():
            fh.write(f"# {key}={value}\n".encode("ascii"))
        fh.write(f"{field.nx} {field.nz}\n255\n".encode("ascii"))
        fh.write(rgb.tobytes())
