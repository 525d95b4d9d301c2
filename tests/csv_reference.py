"""The per-cell CSV writer, kept as the reference for the block writer in
`corridorcov.heatmap`.

`write_csv` is the package's earlier `heatmap.write_csv`: one Python
f-string per cell, with an explicit "-inf" branch. The block writer must
produce the same bytes.
"""

import math

from corridorcov.heatmap import _field_meta


def write_csv(field, path, extra_meta=None):
    xs = field.x_centers
    zs = field.z_centers
    with open(path, "w", encoding="ascii") as fh:
        for key, value in _field_meta(field, extra_meta).items():
            fh.write(f"# {key}={value}\n")
        fh.write("x_m,z_m,sinr_db,serving_bs\n")
        for k in range(field.nz):
            row = field.sinr_db[k]
            srv = field.serving[k]
            zr = f"{zs[k]:.6g}"
            for j in range(field.nx):
                v = row[j]
                sv = "-inf" if math.isinf(v) and v < 0 else f"{v:.4f}"
                fh.write(f"{xs[j]:.6g},{zr},{sv},{srv[j]}\n")
