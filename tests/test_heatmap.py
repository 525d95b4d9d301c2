import math
import tracemalloc

import numpy as np
import pytest

import csv_reference
import ppm_reference
from corridorcov import heatmap
from corridorcov.defaults import reference_scenario
from corridorcov.geometry import borderline_geometry
from corridorcov.heatmap import (
    BLOCK_POINTS,
    CSV_BLOCK_CELLS,
    DB_CLAMP,
    SinrField,
    sinr_field,
    write_csv,
    write_ppm,
)
from corridorcov.oracle import BeamKind, OracleAssumptions, coverage_by_quadrature
from corridorcov.propagation import AirToGroundPathLoss


def _synthetic_field(sinr_db, x_max=10.0, z_max=6.0, serving=None):
    sinr_db = np.asarray(sinr_db, dtype=float)
    nz, nx = sinr_db.shape
    if serving is None:
        serving = np.ones((nz, nx), dtype=np.int64)
    s = reference_scenario(13, 40)
    return SinrField(x_min=0.0, x_max=x_max, z_min=0.0, z_max=z_max,
                     nx=nx, nz=nz, sinr_db=sinr_db, serving=serving,
                     scenario=s, assumptions=OracleAssumptions())


def _assert_csv_matches_reference(field, tmp_path):
    new, ref = tmp_path / "block.csv", tmp_path / "reference.csv"
    write_csv(field, str(new), extra_meta={"run": "t"})
    csv_reference.write_csv(field, str(ref), extra_meta={"run": "t"})
    assert new.read_bytes() == ref.read_bytes()


def test_field_layout_and_defaults():
    s = reference_scenario(8, 40)
    f = sinr_field(s, OracleAssumptions(), 50, 30)
    assert f.sinr_db.shape == (30, 50)
    assert f.serving.shape == (30, 50)
    assert f.x_min == 0.0 and f.x_max == 500.0
    assert f.z_min == 0.0 and f.z_max == 300.0
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


def test_area_fraction_matches_quadrature():
    s = reference_scenario(13, 40)
    a = OracleAssumptions()
    f = sinr_field(s, a, 1000, 600, x_range=(0.0, s.d1 / 2),
                   z_range=(s.h1, s.h2))
    frac = np.mean(f.sinr_db >= s.tau_db)
    q = coverage_by_quadrature(s, a, 1000, 600)
    assert abs(frac - q) <= 0.01


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


def test_ppm_infinite_cells(tmp_path):
    # +inf (no noise, no interference) is the ramp's top color; only -inf
    # (no received power) gets the reserved index 0
    f = _synthetic_field([[-math.inf, math.inf, 1e9, 40.0, -100.0, -20.0]])
    out = tmp_path / "inf.ppm"
    write_ppm(f, str(out))
    pixels = out.read_bytes().rpartition(b"\n255\n")[2]
    lut = heatmap._color_ramp()
    assert pixels == lut[[0, 255, 255, 255, 1, 1]].tobytes()
    assert bytes(lut[0]) == bytes([40, 40, 40])


def test_ppm_ramp_indices_between_the_clamps(tmp_path):
    # finite values clamp to DB_CLAMP and map linearly onto indices 1..255
    lo, hi = DB_CLAMP
    values = [lo - 5.0, lo, lo + (hi - lo) / 254, (lo + hi) / 2,
              hi - (hi - lo) / 254, hi, hi + 5.0]
    out = tmp_path / "ramp.ppm"
    write_ppm(_synthetic_field([values]), str(out))
    pixels = out.read_bytes().rpartition(b"\n255\n")[2]
    lut = heatmap._color_ramp()
    assert pixels == lut[[1, 1, 2, 128, 254, 255, 255]].tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ppm_nan_cells_get_the_no_signal_color(tmp_path):
    # NaN has no ramp index; it takes the reserved index 0, as -inf does
    out = tmp_path / "nan.ppm"
    write_ppm(_synthetic_field([[math.nan, -math.inf, math.inf, 40.0]]), str(out))
    pixels = out.read_bytes().rpartition(b"\n255\n")[2]
    assert pixels == heatmap._color_ramp()[[0, 0, 255, 255]].tobytes()


def test_clamp_constants():
    assert DB_CLAMP == (-20.0, 40.0)


def test_field_input_validation():
    s = reference_scenario(8, 40)
    with pytest.raises(ValueError):
        sinr_field(s, OracleAssumptions(), 0, 10)
    with pytest.raises(ValueError):
        sinr_field(s, OracleAssumptions(), 10, 10, x_range=(5.0, 5.0))


# The block writer against the per-cell reference (tests/csv_reference.py):
# the same bytes on model fields and on synthetic values that take every
# formatting branch.

_FIELD_ASSUMPTIONS = {
    # rectangular lobes leave -inf cells below them
    "rect-fspl": OracleAssumptions(),
    "cosine-a2g": OracleAssumptions(beam=BeamKind.COSINE,
                                    pathloss=AirToGroundPathLoss()),
}


@pytest.mark.parametrize("block_cells", [64, CSV_BLOCK_CELLS])
@pytest.mark.parametrize("nx, nz", [(13, 23), (1, 50), (1001, 19), (80, 201)])
@pytest.mark.parametrize("model", sorted(_FIELD_ASSUMPTIONS))
def test_csv_matches_reference_on_fields(monkeypatch, tmp_path, model, nx, nz,
                                         block_cells):
    # odd nx, nx = 1, and nz not a multiple of the rows per block, at the
    # writer's block size and at one that makes many small blocks
    monkeypatch.setattr(heatmap, "CSV_BLOCK_CELLS", block_cells)
    rows = max(1, block_cells // nx)
    assert nz % rows != 0 or rows == 1
    f = sinr_field(reference_scenario(8, 40), _FIELD_ASSUMPTIONS[model], nx, nz)
    if model == "rect-fspl" and nz > 1:
        assert np.isneginf(f.sinr_db).any()
    _assert_csv_matches_reference(f, tmp_path)


def test_csv_matches_reference_on_tiny_x_range(tmp_path):
    # x centers like 5e-06, whose .6g form uses an exponent
    f = sinr_field(reference_scenario(13, 40), OracleAssumptions(), 7, 5,
                   x_range=(0.0, 1e-4), z_range=(100.0, 300.0))
    assert "e-" in f"{f.x_centers[0]:.6g}"
    _assert_csv_matches_reference(f, tmp_path)


def test_csv_matches_reference_with_two_digit_serving(tmp_path):
    s = reference_scenario(13, 40)
    a = OracleAssumptions(bs_positions=tuple(200.0 * i for i in range(12)))
    f = sinr_field(s, a, 301, 40, x_range=(0.0, 2400.0))
    assert f.serving.max() >= 10 and f.serving.min() < 10
    _assert_csv_matches_reference(f, tmp_path)


def test_csv_matches_reference_on_edge_values(monkeypatch, tmp_path):
    monkeypatch.setattr(heatmap, "CSV_BLOCK_CELLS", 64)
    edge = [
        # half-way ties, at four decimals and below
        0.03125, -0.03125, 2.5e-5, -2.5e-5, 7.5e-5, -7.5e-5, 5e-5, -5e-5,
        1.5e-4, 0.00025, 1.00005, 12.34565, -99.99995,
        # values that print as -0.0000
        -0.0, -1e-5, -4.9e-5, -1e-300, -5e-324, 0.0, 5e-324, 4.9e-5,
        # no noise and no interference, NaN, and |v| >= 1e5
        math.inf, -math.inf, math.nan, 1e5, -1e5, 99999.99996, -99999.99996,
        99999.99994, 123456.789, -654321.1234, 999999.99, -9.87654321e12, 1e300,
        -1.7976931348623157e308,
        # the largest values with three integer digits, and the first past
        999.0, -999.0, 999.99994, -999.99994, 999.99995, -999.99995,
        999.99996, -999.99996, 1000.0, -1000.0, 1000.00004,
    ]
    rng = np.random.default_rng(7)
    ties = (rng.integers(-10**8, 10**8, 400) + 0.5) / 1e4
    wide = rng.choice([-1.0, 1.0], 600) * 10.0 ** rng.uniform(-9, 5.2, 600)
    vals = np.concatenate([edge, ties, wide, rng.uniform(-50, 90, 1000)])
    vals = np.resize(vals, (23, 89))
    serving = rng.integers(0, 12, vals.shape)
    _assert_csv_matches_reference(
        _synthetic_field(vals, serving=serving), tmp_path)



def test_csv_matches_reference_after_wide_fallback_text(monkeypatch, tmp_path):
    # a block of one row each: fast cells where an earlier block had
    # fallback text wider than the sinr_db words it started with
    monkeypatch.setattr(heatmap, "CSV_BLOCK_CELLS", 4)
    vals = [[1e300, -math.inf, 5.0, math.nan],
            [1.5, 2.25, -3.0, 7.0],
            [1e20, -0.5, 1e300, 2.0],
            [12.5, 0.0, -1.0, 99.0]]
    _assert_csv_matches_reference(_synthetic_field(vals), tmp_path)

def _assert_ppm_matches_reference(field, tmp_path):
    new, ref = tmp_path / "block.ppm", tmp_path / "reference.ppm"
    write_ppm(field, str(new), extra_meta={"run": "t"})
    ppm_reference.write_ppm(field, str(ref), extra_meta={"run": "t"})
    assert new.read_bytes() == ref.read_bytes()


# The row-block image writer against the whole-field reference
# (tests/ppm_reference.py), on fields without NaN cells.

@pytest.mark.parametrize("block_points", [64, BLOCK_POINTS])
@pytest.mark.parametrize("nx, nz", [(13, 23), (1, 50), (1, 1), (301, 250),
                                    (70_001, 3)])
@pytest.mark.parametrize("model", sorted(_FIELD_ASSUMPTIONS))
def test_ppm_matches_reference_on_fields(monkeypatch, tmp_path, model, nx, nz,
                                         block_points):
    # nz not a multiple of the rows per block, rows wider than one block,
    # nx = 1 and a single cell, at the writer's block size and at one that
    # makes many small blocks
    monkeypatch.setattr(heatmap, "BLOCK_POINTS", block_points)
    rows = max(1, block_points // nx)
    assert nz % rows != 0 or rows == 1
    f = sinr_field(reference_scenario(8, 40), _FIELD_ASSUMPTIONS[model], nx, nz)
    if model == "rect-fspl" and nz > 3:
        assert np.isneginf(f.sinr_db).any()
    _assert_ppm_matches_reference(f, tmp_path)


# Memory: each writer holds one block at a time, and the field stores its
# serving indices in the narrowest unsigned type.

def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("writer", [write_csv, write_ppm])
def test_writers_peak_below_two_mib(tmp_path, writer):
    a = _FIELD_ASSUMPTIONS["cosine-a2g"]
    f = sinr_field(reference_scenario(13, 40), a, 1001, 601)
    peak = _traced_peak(lambda: writer(f, str(tmp_path / "field")))
    assert peak < 2 * 2**20


def test_serving_is_uint8_for_the_default_base_stations():
    f = sinr_field(reference_scenario(8, 40), OracleAssumptions(), 80, 30,
                   x_range=(-1500.0, 2500.0))
    assert f.serving.dtype == np.uint8
    assert set(np.unique(f.serving).tolist()) == {0, 1, 2, 3}


def test_serving_is_uint16_for_300_base_stations(tmp_path):
    a = OracleAssumptions(bs_positions=tuple(200.0 * i for i in range(300)))
    f = sinr_field(reference_scenario(13, 40), a, 599, 20, x_range=(0.0, 59800.0))
    assert f.serving.dtype == np.uint16
    assert f.serving.max() >= 100 and f.serving.min() < 10
    _assert_csv_matches_reference(f, tmp_path)
