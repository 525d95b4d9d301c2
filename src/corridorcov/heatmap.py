"""SINR field over the half-corridor cross-section, coverage-contour
extraction and CSV/portable-pixmap export."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import CorridorScenario
from .oracle import OracleAssumptions, _row_blocks, evaluate_sinr

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
        dx = (self.x_max - self.x_min) / self.nx
        return self.x_min + (np.arange(self.nx) + 0.5) * dx

    @property
    def z_centers(self) -> np.ndarray:
        dz = (self.z_max - self.z_min) / self.nz
        return self.z_min + (np.arange(self.nz) + 0.5) * dz

    @property
    def corridor_band(self) -> tuple[float, float]:
        return (self.scenario.h1, self.scenario.h2)


def sinr_field(s: CorridorScenario, a: OracleAssumptions, nx: int, nz: int,
               x_range: tuple[float, float] | None = None,
               z_range: tuple[float, float] | None = None) -> SinrField:
    """Evaluate the SINR field on cell centers in blocks of whole rows (the
    row-block loop the quadrature uses); deterministic row fill.

    Defaults cover the half corridor width and the full height from the BS
    antenna level: x in [0, d1/2], z in [0, h2].
    """
    x_min, x_max = x_range if x_range is not None else (0.0, s.d1 / 2.0)
    z_min, z_max = z_range if z_range is not None else (0.0, s.h2)
    if not (x_max > x_min and z_max > z_min and nx > 0 and nz > 0):
        raise ValueError("field ranges must be positive and counts > 0")
    dx = (x_max - x_min) / nx
    dz = (z_max - z_min) / nz
    xs = x_min + (np.arange(nx) + 0.5) * dx
    zs = z_min + (np.arange(nz) + 0.5) * dz

    sinr_db = np.empty((nz, nx), dtype=float)
    serving = np.empty((nz, nx), dtype=np.int64)
    for rows, xx, zz in _row_blocks(xs, zs):
        idx, val = evaluate_sinr(xx, zz, s, a)
        with np.errstate(divide="ignore"):
            db = 10.0 * np.log10(val)
        sinr_db[rows] = db.reshape(-1, nx)
        serving[rows] = idx.reshape(-1, nx)
    return SinrField(x_min=x_min, x_max=x_max, z_min=z_min, z_max=z_max,
                     nx=nx, nz=nz, sinr_db=sinr_db, serving=serving,
                     scenario=s, assumptions=a)


Segment = tuple[tuple[float, float], tuple[float, float]]

# Marching-squares edge pairs per 4-bit corner code (bit order: bottom-left,
# bottom-right, top-right, top-left). Edges: 0 bottom, 1 right, 2 top,
# 3 left. Saddles (5, 10) use the fixed separated convention.
_MS_TABLE: dict[int, tuple[tuple[int, int], ...]] = {
    0: (), 15: (),
    1: ((3, 0),), 14: ((3, 0),),
    2: ((0, 1),), 13: ((0, 1),),
    4: ((1, 2),), 11: ((1, 2),),
    8: ((2, 3),), 7: ((2, 3),),
    3: ((3, 1),), 12: ((3, 1),),
    6: ((0, 2),), 9: ((0, 2),),
    5: ((3, 0), (1, 2)),
    10: ((0, 1), (2, 3)),
}


def coverage_contour(field: SinrField, tau_db: float) -> list[Segment]:
    """Coverage-boundary segments from marching squares on the indicator
    (SINR >= tau_db) over the cell-center lattice.

    Segment endpoints lie on midpoints of cell-center edges; blocks are
    scanned row-major so the output order is deterministic. The list is
    empty when the field is fully covered or fully uncovered.
    """
    covered = field.sinr_db >= tau_db
    xs = field.x_centers
    zs = field.z_centers
    segments: list[Segment] = []
    for k in range(field.nz - 1):
        row0 = covered[k]
        row1 = covered[k + 1]
        codes = (row0[:-1].astype(int) + (row0[1:].astype(int) << 1)
                 + (row1[1:].astype(int) << 2) + (row1[:-1].astype(int) << 3))
        for j in np.nonzero((codes != 0) & (codes != 15))[0]:
            x0, x1 = xs[j], xs[j + 1]
            z0, z1 = zs[k], zs[k + 1]
            mid = {
                0: ((x0 + x1) / 2.0, z0),
                1: (x1, (z0 + z1) / 2.0),
                2: ((x0 + x1) / 2.0, z1),
                3: (x0, (z0 + z1) / 2.0),
            }
            for e0, e1 in _MS_TABLE[int(codes[j])]:
                segments.append((mid[e0], mid[e1]))
    return segments


def covered_fraction(field: SinrField, tau_db: float,
                     z_band: tuple[float, float] | None = None) -> float:
    """Fraction of cells with SINR >= tau_db, optionally restricted to the
    cells whose centers lie in a height band."""
    covered = field.sinr_db >= tau_db
    if z_band is not None:
        lo, hi = z_band
        keep = (field.z_centers >= lo) & (field.z_centers <= hi)
        covered = covered[keep]
    if covered.size == 0:
        raise ValueError("no cells in the requested band")
    return float(np.count_nonzero(covered)) / covered.size


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

    Finite values clamp to DB_CLAMP and map to ramp indices 1..255; -inf
    maps to the reserved index 0. The resolved configuration goes into PPM
    comment lines, so identical runs produce identical bytes."""
    lut = _color_ramp()
    lo, hi = DB_CLAMP
    vals = field.sinr_db
    finite = np.isfinite(vals)
    scaled = np.zeros(vals.shape, dtype=np.uint8)
    clipped = np.clip(np.where(finite, vals, lo), lo, hi)
    scaled[finite] = (1 + np.rint((clipped[finite] - lo) / (hi - lo) * 254)
                      ).astype(np.uint8)
    rgb = lut[scaled[::-1]]  # flip so the image reads height-up
    with open(path, "wb") as fh:
        fh.write(b"P6\n")
        for key, value in _field_meta(field, extra_meta).items():
            fh.write(f"# {key}={value}\n".encode("ascii"))
        fh.write(f"{field.nx} {field.nz}\n255\n".encode("ascii"))
        fh.write(rgb.tobytes())
