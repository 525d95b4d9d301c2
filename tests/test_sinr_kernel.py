"""The SINR kernel against the direct evaluation it replaced
(tests/sinr_reference.py): identical serving indices and coverage
decisions, SINR values equal to rounding. Against the allocating kernel it
grew from, on flattened points, and the models of that kernel: equal bit
for bit, on points, on broadcast grids and through a reused workspace."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

import sinr_reference as ref
from corridorcov.defaults import reference_scenario
from corridorcov.heatmap import sinr_field
from corridorcov.monte_carlo import los_states
from corridorcov.oracle import (
    Association,
    BeamKind,
    OracleAssumptions,
    _h_range,
    coverage_by_quadrature,
    evaluate_sinr,
)
from corridorcov.propagation import (
    AirToGroundPathLoss,
    CosineBeam,
    FreeSpacePathLoss,
    InterferenceMode,
    LinkBudget,
    RectangularBeam,
    _Workspace,
)

# (alpha_deg, beta_deg): a regular tilt, alpha <= 0, alpha + beta >= 90
# degrees, and lobes that miss most of the plane (dead cells).
TILTS = [(13.0, 40.0), (-5.0, 40.0), (60.0, 40.0), (30.0, 60.0), (1.0, 1.5)]
LOSS_MODES = ["fspl", "a2g", "a2g-bernoulli"]

# The kernel's distances and angle tests round differently from hypot and
# arctan2, in the last bits. The rectangular beam's gain is exact either
# way. The cosine gain N*cos(pi*N*x/2)**2, x = (cos(theta) - c)/2, turns
# the few-ulp difference between h/sqrt(r2) and cos(arctan2(z, h)) into a
# relative one up to pi*N*|tan(pi*N*x/2)| times larger: N is 2502 for the
# 1.5-degree lobe below, and the factor grows without bound near the nulls.
RTOL = {BeamKind.RECT: 1e-12, BeamKind.COSINE: 1e-9}


def _points():
    # A lattice with points straight above BS-1 and BS-2 (x = 0, 1000, so
    # h = 0) and on the BS-1/BS-2 midpoint x = d1/2, where the two received
    # powers tie exactly, plus scattered points.
    xs = np.linspace(0.0, 1000.0, 81)
    zs = np.linspace(0.5, 300.5, 61)
    xx, zz = np.meshgrid(xs, zs)
    rng = np.random.default_rng(17)
    x = np.concatenate([xx.ravel(), rng.uniform(-200.0, 1200.0, 2000)])
    z = np.concatenate([zz.ravel(), rng.uniform(1.0, 400.0, 2000)])
    return x, z


MATRIX = list(itertools.product(Association, InterferenceMode, BeamKind,
                                LOSS_MODES, (True, False)))


def _case(assoc, interference, beam, loss, noise, n_points):
    """Assumptions of one matrix case and its LoS uniforms (or None), which
    the reference turns into LoS states itself and the kernel takes from
    `_states`."""
    pathloss = FreeSpacePathLoss() if loss == "fspl" else AirToGroundPathLoss()
    u = (np.random.default_rng(5).random((4, n_points))
         if loss == "a2g-bernoulli" else None)
    a = OracleAssumptions(association=assoc, interference=interference,
                          beam=beam, pathloss=pathloss, include_noise=noise)
    return a, u


def _states(x, z, s, a, u):
    """The LoS states the sampler forms from uniforms u, or None."""
    if u is None:
        return None
    return los_states(x, z, a.resolve_positions(s), a.pathloss, u)


@pytest.mark.parametrize("assoc,interference,beam,loss,noise", MATRIX)
def test_kernel_matches_reference(assoc, interference, beam, loss, noise):
    x, z = _points()
    a, u = _case(assoc, interference, beam, loss, noise, x.size)
    for alpha_deg, beta_deg in TILTS:
        s = reference_scenario(alpha_deg, beta_deg)
        srv, val = evaluate_sinr(x, z, s, a, los_states=_states(x, z, s, a, u))
        srv_ref, val_ref = ref.evaluate_sinr(x, z, s, a, los_uniforms=u)
        assert np.array_equal(srv, srv_ref)
        assert np.array_equal(val >= s.tau, val_ref >= s.tau)
        np.testing.assert_allclose(val, val_ref, rtol=RTOL[beam], atol=0.0)


def test_reference_grid_reaches_the_edge_cases():
    # the lattice above does hold the cases the kernel must get right
    x, z = _points()
    a = OracleAssumptions(include_noise=False)
    s = reference_scenario(13.0, 40.0)
    srv, val = ref.evaluate_sinr(x, z, s, a)
    tie = x == 500.0
    assert np.any(tie & (val == 1.0))           # equal powers, served by BS-1
    assert np.all(srv[tie & (val == 1.0)] == 1)
    assert np.any(val == 0.0) and np.any(np.isinf(val))
    assert np.any((x == 0.0) & (val > 0.0))     # overhead of BS-1, alpha+beta<90
    s90 = reference_scenario(60.0, 40.0)
    _, v90 = ref.evaluate_sinr(x, z, s90, a)
    assert np.any((x == 0.0) & (v90 > 0.0))     # overhead, inside the lobe


@pytest.mark.parametrize("n_x,n_z", [(64, 80), (301, 257)])
@pytest.mark.parametrize("alpha_deg", [8.0, 13.0, 25.0])
def test_quadrature_counts_match_reference_loop(n_x, n_z, alpha_deg):
    s = reference_scenario(alpha_deg, 40.0)
    for a in (OracleAssumptions(),
              OracleAssumptions(beam=BeamKind.COSINE,
                                pathloss=AirToGroundPathLoss(),
                                interference=InterferenceMode.SUM_ALL)):
        assert (coverage_by_quadrature(s, a, n_x, n_z)
                == ref.covered_count(s, a, n_x, n_z) / float(n_x * n_z))


@pytest.mark.parametrize("assoc,interference,beam,loss,noise", MATRIX)
def test_kernel_is_bit_identical_to_the_allocating_kernel(
        assoc, interference, beam, loss, noise):
    x, z = _points()
    a, u = _case(assoc, interference, beam, loss, noise, x.size)
    work = _Workspace()  # shared by every scenario, as a block loop shares it
    # 30 dBm is exactly 1 W; at 23 dBm the order of p_tx * g / pl matters
    scenarios = [reference_scenario(*tilt) for tilt in TILTS]
    scenarios.append(reference_scenario(13.0, 40.0, radio=LinkBudget(p_tx_dbm=23.0)))
    for s in scenarios:
        srv_ref, val_ref = ref.allocating_evaluate_sinr(x, z, s, a, los_uniforms=u)
        los = _states(x, z, s, a, u)
        for w in (None, work):
            srv, val = evaluate_sinr(x, z, s, a, los_states=los, work=w)
            assert np.array_equal(srv, srv_ref)
            assert np.array_equal(val, val_ref)


@pytest.mark.parametrize("assoc,interference,beam,loss,noise",
                         [c for c in MATRIX if c[3] != "a2g-bernoulli"])
def test_broadcast_grid_is_bit_identical_to_flattened_points(
        assoc, interference, beam, loss, noise):
    # an x row and a z column, plain and as the block-shaped broadcast views
    # the row-block loop passes, against the flattened grid; x holds both
    # BS-1/BS-2 ties and points overhead
    xs = np.linspace(-200.0, 1200.0, 57)
    zs = np.linspace(0.5, 400.5, 23)
    shape = (zs.size, xs.size)
    a, _ = _case(assoc, interference, beam, loss, noise, 0)
    work = _Workspace()
    for alpha_deg, beta_deg in TILTS:
        s = reference_scenario(alpha_deg, beta_deg)
        srv_ref, val_ref = ref.allocating_evaluate_sinr(
            np.tile(xs, zs.size), np.repeat(zs, xs.size), s, a)
        for x, z in ((xs[None, :], zs[:, None]),
                     (np.broadcast_to(xs, shape), np.broadcast_to(zs[:, None], shape))):
            srv, val = evaluate_sinr(x, z, s, a, work=work)
            assert srv.shape == val.shape == shape
            assert np.array_equal(srv.ravel(), srv_ref)
            assert np.array_equal(val.ravel(), val_ref)


def _model_inputs():
    # (h, z, r2) on scattered links and on a row/column grid
    x, z = _points()
    h = np.abs(x - 1000.0)
    hg = np.abs(np.linspace(-200.0, 1200.0, 57) - 1000.0)[None, :]
    zg = np.linspace(0.5, 400.5, 23)[:, None]
    return [(h, z, h * h + z * z), (hg, zg, hg * hg + zg * zg)]


@pytest.mark.parametrize("alpha_deg,beta_deg", TILTS + [(-100.0, 130.0),
                                                        (95.0, 30.0)])
def test_models_are_bit_identical_to_the_allocating_models(alpha_deg, beta_deg):
    alpha, beta = np.radians(alpha_deg), np.radians(beta_deg)
    beams = [RectangularBeam(peak_gain=5.5, alpha=alpha, beta=beta)]
    if 0.0 < alpha and alpha + beta < np.pi / 2:
        beams.append(CosineBeam(n_elements=7, alpha=alpha, beta=beta))
    a2g = AirToGroundPathLoss()
    lam = 0.1
    for h, z, r2 in _model_inputs():
        shape = r2.shape
        los = np.random.default_rng(3).random(shape) < 0.5
        work = _Workspace()
        for model in beams:
            want = ref.allocating_gain(model, h, z, r2)
            assert np.array_equal(model.gain(h, z, r2), want)
            got = model.gain(h, z, r2, out=np.empty(shape), work=work)
            assert np.array_equal(got, want)
        for model, kw in ((FreeSpacePathLoss(), {}), (a2g, {}),
                          (a2g, {"los_state": los})):
            want = ref.allocating_loss(model, h, z, r2, lam, **kw)
            assert np.array_equal(model.loss(h, z, r2, lam, **kw), want)
            got = model.loss(h, z, r2, lam, out=np.empty(shape), work=work, **kw)
            assert np.array_equal(got, want)
        want = ref.allocating_p_los(a2g, h, z)
        assert np.array_equal(a2g.p_los(h, z), want)
        assert np.array_equal(a2g.p_los(h, z, out=np.empty(shape)), want)


def test_sinr_field_is_bit_identical_to_the_allocating_kernel():
    s = reference_scenario(13.0, 40.0)
    a = OracleAssumptions(beam=BeamKind.COSINE, pathloss=AirToGroundPathLoss())
    nx, nz = 301, 257   # several row blocks, the last one short
    f = sinr_field(s, a, nx, nz)
    srv, val = ref.allocating_evaluate_sinr(
        np.tile(f.x_centers, nz), np.repeat(f.z_centers, nx), s, a)
    with np.errstate(divide="ignore"):
        db = 10.0 * np.log10(val)
    assert np.array_equal(f.serving.ravel(), srv)
    assert np.array_equal(f.sinr_db.ravel(), db)


# Tilts for the lit windows: alpha <= 0 (and alpha = 0, a flat lower
# edge), alpha + beta at and past 90 degrees, a lobe reaching below -90,
# lobes entirely above 90 and below -90 degrees, and a regular one
WINDOW_TILTS = [(13.0, 40.0), (-5.0, 40.0), (0.0, 40.0), (50.0, 40.0),
                (60.0, 40.0), (-100.0, 130.0), (95.0, 30.0), (-130.0, 30.0)]
# rectangular, and cosine lobes of N = 2 and N = 4000 elements: the widest
# one and one far narrower than a grid column
WINDOW_BEAMS = {"rect": dict(beam=BeamKind.RECT),
                "cosine-2": dict(beam=BeamKind.COSINE, n_elements=2),
                "cosine-4000": dict(beam=BeamKind.COSINE, n_elements=4000)}
# x rows with every BS inside them (so h is V-shaped) and rows on one side
# of them; z columns from below the BS height to the corridor top. Single
# columns and single rows, one exactly above a BS. For the rectangular
# lobe's fully lit columns: a row past the last BS whose windows have a
# fully lit core with a fringe on either side, a narrow band of heights
# around BS-1 that lights columns fully on both sides of it (not
# contiguous), and a row on one side of the last BS.
WINDOW_GRIDS = {
    "wide": (np.linspace(-1500.0, 2500.0, 81), np.linspace(-150.5, 400.5, 29)),
    "half-corridor": (np.linspace(0.5, 499.5, 64), np.linspace(100.5, 299.5, 31)),
    "one-column": (np.array([1000.0]), np.linspace(0.5, 400.5, 17)),
    "one-row": (np.linspace(-1500.0, 2500.0, 81), np.array([150.0])),
    "one-cell": (np.array([250.0]), np.array([150.0])),
    "core-fringes": (np.linspace(2050.5, 3549.5, 60),
                     np.linspace(100.5, 299.5, 9)),
    "split-core": (np.linspace(-600.5, 600.5, 97), np.linspace(100.5, 150.5, 5)),
    "one-row-one-side": (np.linspace(2000.5, 3500.5, 61), np.array([150.0])),
}
GRID_MATRIX = list(itertools.product(Association, InterferenceMode,
                                     LOSS_MODES, (True, False)))


@pytest.mark.parametrize("beam", sorted(WINDOW_BEAMS))
@pytest.mark.parametrize("grid", sorted(WINDOW_GRIDS))
@pytest.mark.parametrize("assoc,interference,loss,noise", GRID_MATRIX)
def test_lit_windows_are_bit_identical_to_the_allocating_kernel(
        assoc, interference, loss, noise, grid, beam):
    # a row of x and a column of z take the windowed path, LoS states
    # included; the allocating kernel evaluates every BS on every
    # flattened point
    xs, zs = WINDOW_GRIDS[grid]
    shape = (zs.size, xs.size)
    pathloss = FreeSpacePathLoss() if loss == "fspl" else AirToGroundPathLoss()
    a = OracleAssumptions(association=assoc, interference=interference,
                          pathloss=pathloss, include_noise=noise,
                          **WINDOW_BEAMS[beam])
    u = (np.random.default_rng(5).random((4, *shape))
         if loss == "a2g-bernoulli" else None)
    work = _Workspace()
    for alpha_deg, beta_deg in WINDOW_TILTS:
        s = reference_scenario(alpha_deg, beta_deg)
        srv_ref, val_ref = ref.allocating_evaluate_sinr(
            np.tile(xs, zs.size), np.repeat(zs, xs.size), s, a,
            los_uniforms=None if u is None else u.reshape(4, -1))
        los = _states(xs[None, :], zs[:, None], s, a, u)
        srv, val = evaluate_sinr(xs[None, :], zs[:, None], s, a,
                                 los_states=los, work=work)
        assert np.array_equal(srv.ravel(), srv_ref)
        assert np.array_equal(val.ravel(), val_ref)
        none, val = evaluate_sinr(xs[None, :], zs[:, None], s, a,
                                  los_states=los, work=work,
                                  with_serving=False)
        assert none is None
        assert np.array_equal(val.ravel(), val_ref)


def _core_case(g, cols, core):
    """How the fully lit core `core` of the window `cols` lies, given the
    gain `g` of the whole block."""
    full = np.flatnonzero(g.all(axis=0)[cols])
    if full.size and full[-1] + 1 - full[0] != full.size:
        return "split"
    if core is None:
        return None
    n = cols.stop - cols.start
    if 0 < core.start and core.stop < n:
        return "fringes"
    if g.shape[0] == 1 and core == slice(0, n):
        return "one row"
    return None


def test_window_grids_reach_dark_partial_and_full_windows():
    # the grids above do hold empty windows, windows cut inside the row,
    # and windows that fill it; and rectangular windows whose fully lit
    # core has a fringe on either side, windows whose fully lit columns
    # are not contiguous, and one-row windows that are all core
    work = _Workspace()
    spans, cores = set(), set()
    for beam in WINDOW_BEAMS.values():
        for alpha_deg, beta_deg in WINDOW_TILTS:
            s = reference_scenario(alpha_deg, beta_deg)
            b = OracleAssumptions(**beam).resolve_beam(s)
            for xs, zs in WINDOW_GRIDS.values():
                z = zs[:, None]
                for pos in OracleAssumptions().resolve_positions(s):
                    h = np.abs(xs - pos)[None, :]
                    cols, core = b._lit_columns(h, zs.min(), zs.max(),
                                                work)
                    n = cols.stop - cols.start
                    spans.add("dark" if n == 0 else
                              "full" if n == xs.size else "cut")
                    if isinstance(b, RectangularBeam) and n:
                        cores.add(_core_case(b.gain(h, z, h * h + z * z),
                                             cols, core))
    assert spans == {"dark", "cut", "full"}
    assert cores >= {"fringes", "split", "one row"}


@pytest.mark.parametrize("beam", sorted(WINDOW_BEAMS))
@pytest.mark.parametrize("alpha_deg,beta_deg", WINDOW_TILTS)
def test_no_cell_outside_the_window_is_lit(beam, alpha_deg, beta_deg):
    # the window against the lobe test itself, on a fine grid around
    # one BS: the whole block's gain is zero outside the window. Given the
    # window, with its core and without (every cell tested), gain takes
    # r2 and out at the window's shape and gives the whole gain's values
    # on the window's columns. The cosine lobe's window is the whole row,
    # with no core. The rectangular lobe's first and last window columns
    # hold a lit cell whenever the block spans one height (one of them
    # exactly on a column's lower edge product, which is dark), and its
    # core is every fully lit column, when those are contiguous.
    s = reference_scenario(alpha_deg, beta_deg)
    b = OracleAssumptions(**WINDOW_BEAMS[beam]).resolve_beam(s)
    work = _Workspace()
    xs = np.linspace(-800.0, 1900.0, 1351)
    h = np.abs(xs - 500.25)[None, :]
    on_edge = np.multiply(h[:, 1000], math.tan(s.alpha))
    for zs in (np.linspace(-300.5, 700.5, 64), np.linspace(60.5, 70.5, 3),
               np.array([150.0]), on_edge):
        z = zs[:, None]
        r2 = h * h + z * z
        g = b.gain(h, z, r2)
        cols, core = b._lit_columns(h, zs.min(), zs.max(), work)
        assert not g[:, :cols.start].any() and not g[:, cols.stop:].any()
        h_block = np.broadcast_to(h, r2.shape)  # as the kernel passes it
        for given in (core, None):
            out = np.full((zs.size, cols.stop - cols.start), np.nan)
            assert b.gain(h_block, z, r2[:, cols], out=out, work=work,
                          cols=cols, core=given) is out
            assert np.array_equal(out, g[:, cols])
        if not isinstance(b, RectangularBeam):
            assert cols == slice(0, xs.size) and core is None
            continue
        lit = np.flatnonzero(g.any(axis=0))
        if zs.size == 1:
            assert cols.stop - cols.start == (lit[-1] + 1 - lit[0]
                                              if lit.size else 0)
        if lit.size:
            full = np.flatnonzero(g.all(axis=0)[cols])
            if full.size and full[-1] + 1 - full[0] == full.size:
                assert core == slice(full[0], full[-1] + 1)
            else:
                assert core is None


# x ranges of slabs around a BS at 500.25: on either side of it, holding
# it, far wider than a slab, and one distance only (on the BS and off it)
SLAB_XS = [(400.0, 480.0), (520.0, 2000.0), (450.0, 550.0), (-800.0, 1900.0),
           (500.25, 500.25), (600.0, 600.0)]


@pytest.mark.parametrize("alpha_deg,beta_deg", WINDOW_TILTS)
def test_slab_window_holds_every_lit_sample(alpha_deg, beta_deg):
    # random slabs sorted by z, with heights of either sign and heights
    # exactly on the edge products at the slab's least and greatest
    # distance from the BS: the rectangular gain is exactly 0 outside the
    # window and exactly the peak on its core, and given the core, gain
    # gives the whole gain's values on the window. With one distance the
    # window is exactly the lit samples, all of them core.
    s = reference_scenario(alpha_deg, beta_deg)
    b = OracleAssumptions().resolve_beam(s)
    pos = 500.25
    rng = np.random.default_rng(int(alpha_deg + 200))
    work = _Workspace()
    for x_lo, x_hi in SLAB_XS:
        near, far = _h_range(x_lo, x_hi, pos)
        edges = [h * math.tan(e) for h in (near, far)
                 for e in (s.alpha, s.alpha + s.beta)]
        z = np.sort(np.concatenate([rng.uniform(-700.0, 700.0, 400), edges]))
        x = rng.uniform(x_lo, x_hi, z.size)
        x[:2] = x_lo, x_hi
        h = np.abs(x - pos)
        r2 = h * h + z * z
        g = b.gain(h, z, r2)
        window, core = b._lit_samples(near, far, z)
        assert not g[:window.start].any() and not g[window.stop:].any()
        if core is not None:
            assert np.all(g[window][core] == b.peak_gain)
        out = np.full(window.stop - window.start, np.nan)
        assert b.gain(h[window], z[window], r2[window], out=out, work=work,
                      core=core) is out
        assert np.array_equal(out, g[window])
        if x_lo == x_hi:
            lit = np.flatnonzero(g)
            assert window == (slice(lit[0], lit[-1] + 1) if lit.size
                              else slice(0, 0))
            assert core == (slice(0, window.stop - window.start)
                            if lit.size else None)


def _slab(x_lo, x_hi, z_lo, z_hi, n):
    """n samples with x uniform in [x_lo, x_hi] and z in [z_lo, z_hi],
    sorted by z."""
    rng = np.random.default_rng(n)
    return rng.uniform(x_lo, x_hi, n), np.sort(rng.uniform(z_lo, z_hi, n))


# slabs in the half corridor on one side of every BS and holding BS-1, one
# that spans every BS and heights of either sign, and one sample
SLABS = [(100.0, 130.0, 100.0, 300.0, 3000), (-20.0, 40.0, 100.0, 300.0, 3000),
         (-1500.0, 2500.0, -150.0, 400.0, 3000),
         (250.0, 250.0, 150.0, 150.0, 1)]


@pytest.mark.parametrize("assoc,interference,beam,loss,noise", MATRIX)
def test_slabs_are_bit_identical_to_the_allocating_kernel(
        assoc, interference, beam, loss, noise):
    # sorted slabs take the windowed sample path, LoS states included;
    # the allocating kernel evaluates every BS on every sample
    work = _Workspace()
    for x_lo, x_hi, z_lo, z_hi, n in SLABS:
        x, z = _slab(x_lo, x_hi, z_lo, z_hi, n)
        a, u = _case(assoc, interference, beam, loss, noise, n)
        for tilt in TILTS:
            s = reference_scenario(*tilt)
            srv_ref, val_ref = ref.allocating_evaluate_sinr(x, z, s, a,
                                                            los_uniforms=u)
            los = _states(x, z, s, a, u)
            srv, val = evaluate_sinr(x, z, s, a, los_states=los, work=work,
                                     slab=True)
            assert np.array_equal(srv, srv_ref)
            assert np.array_equal(val, val_ref)
            none, val = evaluate_sinr(x, z, s, a, los_states=los,
                                      work=work, with_serving=False, slab=True)
            assert none is None
            assert np.array_equal(val, val_ref)


@pytest.mark.parametrize("assoc,interference,beam,loss,noise", MATRIX)
def test_dark_base_stations_are_skipped_bit_for_bit(
        assoc, interference, beam, loss, noise):
    # Monte Carlo samples in the half corridor: at 25 degrees the BSs at
    # -d1 and 2 d1 (and d1, for a 20-element cosine lobe) light none of
    # them, so their power is never formed; at 8 degrees every BS is lit
    rng = np.random.default_rng(11)
    x = rng.uniform(0.0, 500.0, 5000)
    z = rng.uniform(100.0, 300.0, 5000)
    a, u = _case(assoc, interference, beam, loss, noise, x.size)
    if beam is BeamKind.COSINE:
        a = dataclasses.replace(a, n_elements=20)
    for alpha_deg in (8.0, 25.0):
        s = reference_scenario(alpha_deg, 40.0)
        srv_ref, val_ref = ref.allocating_evaluate_sinr(x, z, s, a,
                                                        los_uniforms=u)
        los = _states(x, z, s, a, u)
        srv, val = evaluate_sinr(x, z, s, a, los_states=los)
        assert np.array_equal(srv, srv_ref)
        assert np.array_equal(val, val_ref)
        _, val = evaluate_sinr(x, z, s, a, los_states=los, with_serving=False)
        assert np.array_equal(val, val_ref)
    b = a.resolve_beam(s)
    dark = [pos for pos in a.resolve_positions(s)
            if not b.gain(np.abs(x - pos), z, (x - pos) ** 2 + z * z).any()]
    assert dark == ([-1000.0, 2000.0] if beam is BeamKind.RECT
                    else [-1000.0, 1000.0, 2000.0])


@pytest.mark.parametrize("beam", [BeamKind.RECT, BeamKind.COSINE])
def test_zero_distance_raises_in_an_unlit_cell(beam):
    # the one cell (0, 0) sits on BS-1 and no lobe reaches it; the
    # distance is checked for every BS, lit or not
    s = reference_scenario(13.0, 40.0)
    a = OracleAssumptions(beam=beam)
    with pytest.raises(ValueError, match="positive distance"):
        sinr_field(s, a, 1, 1, x_range=(-1.0, 1.0), z_range=(-1.0, 1.0))
    # and on sample points, where BS-1 lights neither point (the cosine
    # gain's 0/0 at the BS is NaN, as it always was)
    with pytest.raises(ValueError, match="positive distance"), \
            np.errstate(invalid="ignore"):
        evaluate_sinr(np.array([0.0, 0.0]), np.array([0.0, -50.0]), s, a)
    # and in a slab, where the sample on BS-1 lies outside every window
    with pytest.raises(ValueError, match="positive distance"):
        evaluate_sinr(np.array([0.0, 0.0, 5.0]), np.array([-50.0, 0.0, 9.0]),
                      s, a, slab=True)


@pytest.mark.parametrize("loss", LOSS_MODES)
def test_zero_distance_raises_in_a_lit_cell(loss):
    # 1e-200 m from BS-1 at 45 degrees of elevation, inside the lobe: the
    # squared distance underflows to 0. On every layout the kernel checks
    # the block's r2 where their bound is not positive, and tells the
    # loss so.
    s = reference_scenario(13.0, 40.0)
    a, u = _case(Association.STRONGEST, InterferenceMode.DOMINANT_ONLY,
                 BeamKind.RECT, loss, True, 1)
    tiny = np.array([1e-200])
    for x, z in ((tiny, tiny), (tiny[None, :], tiny[:, None])):
        assert a.resolve_beam(s).gain(x, z, x * x + z * z).all()
        with pytest.raises(ValueError, match="positive distance"):
            evaluate_sinr(x, z, s, a, los_states=_states(x, z, s, a, u))
    with pytest.raises(ValueError, match="positive distance"):
        evaluate_sinr(tiny, tiny, s, a, slab=True,
                      los_states=_states(tiny, tiny, s, a, u))


@pytest.mark.parametrize("nx,nz", [(1, 300), (70001, 2)])
def test_single_column_and_single_row_blocks(nx, nz):
    # one column of 64k rows per block, and rows longer than a block, one
    # row per block
    s = reference_scenario(13.0, 40.0)
    for a in (OracleAssumptions(),
              OracleAssumptions(beam=BeamKind.COSINE,
                                pathloss=AirToGroundPathLoss(),
                                association=Association.NEAREST)):
        f = sinr_field(s, a, nx, nz, x_range=(-1500.0, 2500.0),
                       z_range=(-50.0, 400.0))
        srv, val = ref.allocating_evaluate_sinr(
            np.tile(f.x_centers, nz), np.repeat(f.z_centers, nx), s, a)
        with np.errstate(divide="ignore"):
            db = 10.0 * np.log10(val)
        assert np.array_equal(f.serving.ravel(), srv)
        assert np.array_equal(f.sinr_db.ravel(), db)
