"""The whole-field image writer, kept as the reference for the row-block
writer in `corridorcov.heatmap`.

`write_ppm` is the package's earlier `heatmap.write_ppm`, which maps the
whole field at once. The row-block writer must produce the same bytes on
fields without NaN cells (this one casts NaN to an undefined byte).
"""

from __future__ import annotations

import numpy as np

from corridorcov.heatmap import DB_CLAMP, SinrField, _color_ramp, _field_meta


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
