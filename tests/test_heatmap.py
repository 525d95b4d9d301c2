import math

import numpy as np
import pytest

from corridorcov.defaults import reference_scenario
from corridorcov.geometry import borderline_geometry
from corridorcov.heatmap import (
    DB_CLAMP,
    SinrField,
    coverage_contour,
    covered_fraction,
    sinr_field,
    write_csv,
    write_ppm,
)
from corridorcov.oracle import OracleAssumptions, coverage_by_quadrature


def _synthetic_field(sinr_db, x_max=10.0, z_max=6.0):
    sinr_db = np.asarray(sinr_db, dtype=float)
    nz, nx = sinr_db.shape
    s = reference_scenario(13, 40)
    return SinrField(x_min=0.0, x_max=x_max, z_min=0.0, z_max=z_max,
                     nx=nx, nz=nz, sinr_db=sinr_db,
                     serving=np.ones((nz, nx), dtype=np.int64),
                     scenario=s, assumptions=OracleAssumptions())


def test_field_layout_and_defaults():
    s = reference_scenario(8, 40)
    f = sinr_field(s, OracleAssumptions(), 50, 30)
    assert f.sinr_db.shape == (30, 50)
    assert f.serving.shape == (30, 50)
    assert f.x_min == 0.0 and f.x_max == 500.0
    assert f.z_min == 0.0 and f.z_max == 300.0
    assert f.corridor_band == (100.0, 300.0)
    assert f.x_centers[0] == pytest.approx(5.0)
    assert f.z_centers[-1] == pytest.approx(295.0)


def test_all_gain_zero_field():
    # lobes below every corridor elevation: -inf everywhere in the band,
    # serving falls back to the nearest BS
    s = reference_scenario(1.0, 1.5)
    f = sinr_field(s, OracleAssumptions(), 40, 20,
                   x_range=(0.0, 500.0), z_range=(100.0, 300.0))
    assert np.all(np.isneginf(f.sinr_db))
    assert np.all(f.serving == 1)  # BS-1 nearest over x in [0, 500)


def test_case2_topology():
    # uptilt 8: BS-1's lobe band (lower right) plus a second covered region
    # up-left served by BS-2, which only appears above the side beam
    # crossing h4 = 124.75 m
    s = reference_scenario(8, 40)
    f = sinr_field(s, OracleAssumptions(), 500, 300)
    covered = f.sinr_db >= s.tau_db
    assert set(np.unique(f.serving[covered]).tolist()) == {1, 2}
    zz, xx = np.nonzero(covered & (f.serving == 2))
    z2, x2 = f.z_centers[zz], f.x_centers[xx]
    zz, xx = np.nonzero(covered & (f.serving == 1))
    z1, x1 = f.z_centers[zz], f.x_centers[xx]
    assert z2.min() > 124.0
    assert z2.mean() > z1.mean() and x2.mean() < x1.mean()


def test_border_cells_near_threshold():
    # cells straddling the first borderline under dominant/noiseless/rect
    # assumptions are within 0.5 dB of the threshold
    s = reference_scenario(13, 40)
    a = OracleAssumptions(include_noise=False)
    f = sinr_field(s, a, 500, 300)
    b = borderline_geometry(s)
    beam = a.resolve_beam(s)
    X, Z = np.meshgrid(f.x_centers, f.z_centers)
    line_x = b.d2 + Z * (b.d3 - b.d2) / s.h2
    cell = (f.x_max - f.x_min) / f.nx
    near = (np.abs(X - line_x) <= cell) & (Z >= s.h1) & (Z <= s.h2)
    h1, h2 = np.abs(X), np.abs(X - s.d1)
    overlap = ((beam.gain(h1, Z, h1 * h1 + Z * Z) > 0)
               & (beam.gain(h2, Z, h2 * h2 + Z * Z) > 0))
    sel = near & overlap
    assert np.count_nonzero(sel) > 100
    assert np.all(np.abs(f.sinr_db[sel] - s.tau_db) <= 0.5)


def test_contour_empty_on_uniform_fields():
    assert coverage_contour(_synthetic_field(np.full((6, 9), 10.0)), 2.0) == []
    assert coverage_contour(_synthetic_field(np.full((6, 9), -7.0)), 2.0) == []


def test_contour_half_plane():
    # vertical split: covered left of x = 5.0 exactly between columns 4|5
    nz, nx = 8, 10
    vals = np.where(np.arange(nx) < 5, 10.0, -10.0)
    f = _synthetic_field(np.tile(vals, (nz, 1)))
    segs = coverage_contour(f, 2.0)
    assert len(segs) == nz - 1
    xs = [p[0] for seg in segs for p in seg]
    assert all(x == pytest.approx(5.0, abs=f.x_max / nx) for x in xs)
    # straight vertical polyline: every segment spans one z step
    for (x0, z0), (x1, z1) in segs:
        assert x0 == x1
        assert abs(z1 - z0) == pytest.approx(f.z_max / nz)


def test_contour_segments_bracket_threshold():
    s = reference_scenario(13, 40)
    f = sinr_field(s, OracleAssumptions(), 120, 80)
    covered = f.sinr_db >= s.tau_db
    segs = coverage_contour(f, s.tau_db)
    assert segs, "expected a coverage boundary"
    # every segment endpoint lies between a covered and an uncovered cell
    mixed_blocks = 0
    for k in range(f.nz - 1):
        for j in range(f.nx - 1):
            block = covered[k:k + 2, j:j + 2]
            if block.any() and not block.all():
                mixed_blocks += 1
    assert mixed_blocks <= len(segs) <= 2 * mixed_blocks


def test_contour_scan_order_deterministic():
    s = reference_scenario(13, 40)
    f = sinr_field(s, OracleAssumptions(), 90, 60)
    segs = coverage_contour(f, 2.0)
    assert segs == coverage_contour(f, 2.0)
    # row-major block scan: per-segment minimum z never steps back by more
    # than one cell
    dz = (f.z_max - f.z_min) / f.nz
    min_z = [min(p[1] for p in seg) for seg in segs]
    assert all(b >= a - dz for a, b in zip(min_z, min_z[1:]))


def test_area_fraction_matches_quadrature():
    s = reference_scenario(13, 40)
    a = OracleAssumptions()
    f = sinr_field(s, a, 1000, 600, x_range=(0.0, s.d1 / 2),
                   z_range=(s.h1, s.h2))
    frac = covered_fraction(f, s.tau_db)
    q = coverage_by_quadrature(s, a, 1000, 600)
    assert abs(frac - q) <= 0.01


def test_covered_fraction_band():
    f = _synthetic_field(np.array([[10.0, 10.0], [-10.0, -10.0]]), z_max=2.0)
    assert covered_fraction(f, 2.0) == 0.5
    assert covered_fraction(f, 2.0, z_band=(0.0, 1.0)) == 1.0
    with pytest.raises(ValueError):
        covered_fraction(f, 2.0, z_band=(5.0, 6.0))


def test_csv_round_trip(tmp_path):
    s = reference_scenario(1.0, 1.5)  # guarantees -inf cells
    f = sinr_field(s, OracleAssumptions(), 4, 3,
                   x_range=(0.0, 400.0), z_range=(100.0, 300.0))
    out = tmp_path / "field.csv"
    write_csv(f, str(out), extra_meta={"run": "t1"})
    text = out.read_text()
    lines = text.splitlines()
    meta = [ln for ln in lines if ln.startswith("# ")]
    assert any(ln == "# run=t1" for ln in meta)
    assert any(ln.startswith("# alpha_deg=") for ln in meta)
    header_at = lines.index("x_m,z_m,sinr_db,serving_bs")
    rows = lines[header_at + 1:]
    assert len(rows) == 4 * 3
    assert rows[0] == "50,133.333,-inf,1"
    # deterministic bytes
    out2 = tmp_path / "field2.csv"
    write_csv(f, str(out2), extra_meta={"run": "t1"})
    assert out.read_bytes() == out2.read_bytes()


def test_ppm_bytes(tmp_path):
    s = reference_scenario(8, 40)
    f = sinr_field(s, OracleAssumptions(), 32, 24)
    out = tmp_path / "field.ppm"
    write_ppm(f, str(out))
    data = out.read_bytes()
    assert data.startswith(b"P6\n")
    head, _, pixels = data.partition(b"\n255\n")
    assert b"32 24" in head
    assert len(pixels) == 32 * 24 * 3
    out2 = tmp_path / "field2.ppm"
    write_ppm(f, str(out2))
    assert data == out2.read_bytes()


def test_ppm_reserved_no_signal_color(tmp_path):
    s = reference_scenario(1.0, 1.5)
    f = sinr_field(s, OracleAssumptions(), 2, 2,
                   x_range=(0.0, 400.0), z_range=(100.0, 300.0))
    out = tmp_path / "dark.ppm"
    write_ppm(f, str(out))
    pixels = out.read_bytes().rpartition(b"\n255\n")[2]
    assert pixels == bytes([40, 40, 40]) * 4


def test_clamp_constants():
    assert DB_CLAMP == (-20.0, 40.0)


def test_field_input_validation():
    s = reference_scenario(8, 40)
    with pytest.raises(ValueError):
        sinr_field(s, OracleAssumptions(), 0, 10)
    with pytest.raises(ValueError):
        sinr_field(s, OracleAssumptions(), 10, 10, x_range=(5.0, 5.0))
