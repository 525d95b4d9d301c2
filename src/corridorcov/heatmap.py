"""SINR field over the half-corridor cross-section and CSV/portable-pixmap
export.

Both writers walk the field in blocks of whole rows and build no temporary
the size of the whole field: the CSV in blocks of about CSV_BLOCK_CELLS
cells, the image in blocks of about BLOCK_POINTS cells, top image row
first. A run's peak memory is the field's and one block's.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import CorridorScenario
from .oracle import (
    BLOCK_POINTS,
    OracleAssumptions,
    _column_blocks,
    _midpoints,
    evaluate_sinr,
)
from .propagation import _Workspace

# Fixed dB clamp of the image color ramp, for reproducible bytes.
DB_CLAMP = (-20.0, 40.0)

# Cells per write_csv block: its text matrix, about 32 bytes per cell, and
# the mask of its shown bytes stay near 0.25 MiB each.
CSV_BLOCK_CELLS = 8192


@dataclass
class SinrField:
    """Cell-centered SINR samples (dB) with the serving BS index per cell.

    sinr_db and serving are (nz, nx) row-major arrays, row k at height
    z_centers[k]; cells with no received power hold -inf and the
    nearest-by-distance serving index. sinr_field stores serving in the
    narrowest unsigned integer type that holds every BS index (uint8 up to
    256 base stations).
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
    """Evaluate the SINR field on cell centers in blocks of whole columns
    (the block loop the quadrature uses, in the caller's thread); each
    block fills its own columns.

    Defaults cover the half corridor width and the full height from the BS
    antenna level: x in [0, d1/2], z in [0, h2].
    """
    x_min, x_max = x_range if x_range is not None else (0.0, s.d1 / 2.0)
    z_min, z_max = z_range if z_range is not None else (0.0, s.h2)
    if not (x_max > x_min and z_max > z_min and nx > 0 and nz > 0):
        raise ValueError("field ranges must be positive and counts > 0")
    beam, positions = a.resolve_beam(s), a.resolve_positions(s)
    sinr_db = np.empty((nz, nx), dtype=float)
    serving = np.empty((nz, nx), dtype=np.min_scalar_type(len(positions) - 1))
    work = _Workspace()
    for cols, x, z in _column_blocks(_midpoints(x_min, x_max, nx),
                                     _midpoints(z_min, z_max, nz)):
        idx, val = evaluate_sinr(x, z, s, a, work=work, beam=beam,
                                 positions=positions)
        db = sinr_db[:, cols]
        with np.errstate(divide="ignore"):
            np.log10(val, out=db)
        db *= 10.0
        serving[:, cols] = idx
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


def _words(strings: list[str], width: int = 0) -> np.ndarray:
    """ASCII strings as rows of 4-byte words, NUL-padded to at least
    `width` bytes: an (n, words) uint32 array."""
    m = np.array(strings, dtype=bytes)
    w = -(-max(m.itemsize, width) // 4) * 4
    return m.astype(f"S{w}").view(np.uint32).reshape(m.size, w // 4)


@functools.cache
def _digit_words() -> tuple[np.ndarray, np.ndarray, np.uint32]:
    """The word tables of write_csv, built on its first call: the integer
    parts 0..999 as "ddd." right-aligned after NUL padding, the decimals
    0..9999 as "dddd", and the sign word "-" after three NULs."""
    ints = _words([f"{n}.".rjust(4, "\0") for n in range(1000)])[:, 0]
    decimals = _words([f"{n:04d}" for n in range(10_000)])[:, 0]
    return ints, decimals, _words(["\0\0\0-"])[0, 0]


def write_csv(field: SinrField, path: str, extra_meta: dict | None = None) -> None:
    """Row-major cell dump: header `x_m,z_m,sinr_db,serving_bs`, one row per
    cell (z rows outer, x inner), each the text of
    f"{x:.6g},{z:.6g},{sinr_db:.4f},{serving}" (a -inf cell reads "-inf").
    The resolved configuration is embedded as leading '#' comment lines.

    The rows are built in blocks of whole field rows of about
    CSV_BLOCK_CELLS cells, one line of 4-byte words per cell: the x words
    (written once per layout, not once per block), the z words, a sign
    word, an integer word "ddd.", a decimal word "dddd" and the serving
    words ",k\\n". Every text is padded with NUL bytes, so the bytes shown
    are the non-NUL ones, and a block is compacted and written at once.
    The integer, decimal and serving words are gathered from tables (the
    integer part right-aligned after its NULs). `sinr_db` is printed from
    q = rint(t), t = |v| * 1e4, as q // 10**4 and q % 10**4 with the sign
    of v, so values that round to zero keep Python's "-0.0000".

    Exactness: t is v's exact product with 10**4 rounded once, by at most
    half an ulp, which is 2**-30 < 1e-9 for t < 1e7 < 2**24; t - floor(t)
    and its distance to 0.5 are exact where that distance is small. Unless
    t lies within 1e-6 of a half-integer, the exact |v| * 10**4 then rounds
    the same way, and q is what Python's correctly rounded `.4f` prints. A
    cell falls back to Python's f"{v:.4f}" if it is not finite, if
    t >= 9999999.5 (its text has four or more integer digits, from about
    |v| = 1000 on) or if t lies within 1e-6 of a half-integer; the sinr_db
    words widen to hold the widest fallback text met.
    """
    ints, decimals, minus = _digit_words()
    nx = field.nx
    x_words = _words([f"{x:.6g}," for x in field.x_centers.tolist()])
    z_words = _words([f"{z:.6g}," for z in field.z_centers.tolist()])
    srv_words = _words([f",{k}\n" for k in range(int(field.serving.max()) + 1)])
    c_z = x_words.shape[1]
    c_sinr = c_z + z_words.shape[1]
    rows_per_block = max(1, CSV_BLOCK_CELLS // nx)
    text, w_sinr = None, 3
    with open(path, "wb") as fh:
        for key, value in _field_meta(field, extra_meta).items():
            fh.write(f"# {key}={value}\n".encode("ascii"))
        fh.write(b"x_m,z_m,sinr_db,serving_bs\n")
        for k0 in range(0, field.nz, rows_per_block):
            rows = slice(k0, k0 + rows_per_block)
            v = field.sinr_db[rows].ravel()
            t = np.abs(v)
            with np.errstate(invalid="ignore", over="ignore"):
                t *= 1e4
                exact = (t < 9_999_999.5) & (np.abs(t - np.floor(t) - 0.5) >= 1e-6)
            # q < 1e7 fits int32, whose divisions cost half of int64's
            ip, dec = np.divmod(np.rint(np.where(exact, t, 0.0)).astype(np.int32),
                                10_000)
            slow = np.flatnonzero(~exact)
            fallback = [f"{u:.4f}" for u in v[slow].tolist()]
            wide = -(-max(map(len, fallback), default=0) // 4)
            if text is None or wide > w_sinr:
                w_sinr = max(w_sinr, wide)
                c_srv = c_sinr + w_sinr
                text = np.zeros((rows_per_block, nx, c_srv + srv_words.shape[1]),
                                dtype=np.uint32)
                text[:, :, :c_z] = x_words
            block = text[:v.size // nx]
            block[:, :, c_z:c_sinr] = z_words[rows, None]
            line = block.reshape(v.size, -1)
            line[:, c_sinr] = np.where(np.signbit(v), minus, 0)
            line[:, c_sinr + 1] = ints[ip]
            line[:, c_sinr + 2] = decimals[dec]
            line[slow, c_sinr:c_srv] = _words(fallback, 4 * w_sinr)
            line[:, c_srv:] = srv_words[field.serving[rows].ravel()]
            byte = line.view(np.uint8)
            fh.write(byte[byte != 0])
            # fallback words past the third are not rewritten by the next block
            line[slow, c_sinr + 3:c_srv] = 0


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
    1..255; -inf (no received power) and NaN map to the reserved index 0.
    The image is mapped and written in blocks of whole rows of about
    BLOCK_POINTS cells, top image row (the field's last row) first. The
    resolved configuration goes into PPM comment lines, so identical runs
    produce identical bytes."""
    lut = _color_ramp()
    lo, hi = DB_CLAMP
    rows_per_block = max(1, BLOCK_POINTS // field.nx)
    with open(path, "wb") as fh:
        fh.write(b"P6\n")
        for key, value in _field_meta(field, extra_meta).items():
            fh.write(f"# {key}={value}\n".encode("ascii"))
        fh.write(f"{field.nx} {field.nz}\n255\n".encode("ascii"))
        for k1 in range(field.nz, 0, -rows_per_block):
            v = field.sinr_db[max(0, k1 - rows_per_block):k1][::-1]
            level = np.clip(v, lo, hi)
            level -= lo
            level /= hi - lo
            level *= 254
            np.rint(level, out=level)
            level += 1
            level[np.isneginf(v) | np.isnan(v)] = 0
            fh.write(lut[level.astype(np.uint8)])
