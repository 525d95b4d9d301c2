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
from corridorcov import oracle
from corridorcov.defaults import reference_scenario
from corridorcov.heatmap import sinr_field
from corridorcov.monte_carlo import los_states
from corridorcov.oracle import (
    Association,
    BeamKind,
    OracleAssumptions,
    _h_range,
    _midpoints,
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


# The reference positions, and five BSs, one at 250 m inside the half
# corridor (so inside some column blocks) and 125 m from its midpoint with
# the BS at 0, where the nearest BS changes
QUAD_POSITIONS = [None, (-1000.0, 0.0, 250.0, 1000.0, 2000.0)]


@pytest.mark.parametrize("assoc,interference,beam,loss,noise",
                         [c for c in MATRIX if c[3] != "a2g-bernoulli"])
def test_quadrature_counts_match_reference_loop(
        monkeypatch, assoc, interference, beam, loss, noise):
    # 80 and 257 heights leave last tiles of 16 rows and of 1 row. Blocks
    # of 4 columns bound each BS's distance tightly enough for many tiles
    # to settle; the default block holds all 64 columns, or cuts 301 of
    # them into uneven blocks of 255 and 46.
    for positions, alpha_deg in itertools.product(QUAD_POSITIONS,
                                                  (8.0, 13.0, 25.0)):
        a, _ = _case(assoc, interference, beam, loss, noise, 0)
        a = dataclasses.replace(a, bs_positions=positions)
        s = reference_scenario(alpha_deg, 40.0)
        for n_x, n_z in ((64, 80), (64, 257), (301, 257)):
            want = ref.covered_count(s, a, n_x, n_z) / float(n_x * n_z)
            for block in (oracle.BLOCK_POINTS, 4 * n_z):
                with monkeypatch.context() as m:
                    m.setattr(oracle, "BLOCK_POINTS", block)
                    assert coverage_by_quadrature(s, a, n_x, n_z) == want


def test_quadrature_settles_most_tiles_of_the_default_model(monkeypatch):
    # at validate's grid, in blocks of 32 columns, the loss evaluates
    # about 6% of the cells with tau that it evaluates without it (every
    # BS's lit windows), and the count is the same
    cells = []

    def counted(self, h, z, r2, *args, **kw):
        cells.append(np.size(r2))
        return loss(self, h, z, r2, *args, **kw)
    loss = FreeSpacePathLoss.loss
    monkeypatch.setattr(FreeSpacePathLoss, "loss", counted)
    a = OracleAssumptions()
    for alpha_deg in (8.0, 25.0):
        s = reference_scenario(alpha_deg, 40.0)
        work, covered = _Workspace(), 0
        for _, x, z in oracle._column_blocks(
                _midpoints(0.0, s.d1 / 2.0, 2001),
                _midpoints(s.h1, s.h2, 2001)):
            _, val = evaluate_sinr(x, z, s, a, work=work, slab=True)
            covered += int(np.count_nonzero(val >= s.tau))
        every = sum(cells)
        cells.clear()
        assert (coverage_by_quadrature(s, a, 2001, 2001)
                == covered / float(2001 * 2001))
        assert 0 < sum(cells) < every / 10
        cells.clear()


def _near_tau_cases(s):
    """Blocks (x, z) as the quadrature passes them: 32 columns of the grid
    that `validate` integrates over, and 2 columns beside BS-2 whose first
    tile spans the BS's height (z = 0), so that the tile's least z**2 is
    0."""
    for xs, zs in ((_midpoints(0.0, s.d1 / 2.0, 2001)[960:992],
                    _midpoints(s.h1, s.h2, 2001)),
                   (np.array([-0.5, 0.5]), np.linspace(-7.75, 23.75, 64))):
        shape = (zs.size, xs.size)
        yield np.broadcast_to(xs, shape), np.broadcast_to(zs[:, None], shape)


def test_a_cell_at_tau_is_evaluated():
    # tau at one cell's SINR: no bound of its tile can clear tau by the
    # margin, so the tile is evaluated, and the cell is covered; just
    # above that SINR it is not. The greatest SINR lies next to a BS.
    a = OracleAssumptions()
    for alpha_deg in (-5.0, 8.0, 25.0):
        s = reference_scenario(alpha_deg, 40.0)
        for x, z in _near_tau_cases(s):
            _, val = evaluate_sinr(x, z, s, a, slab=True)
            val = val.copy()
            finite = np.flatnonzero(np.isfinite(val) & (val > 0.0))
            assert finite.size
            top = finite[np.argmax(val.flat[finite])]
            for cell in (*finite[::max(1, finite.size // 8)], top):
                row, col = np.unravel_index(cell, val.shape)
                for tau in (val[row, col],
                            np.nextafter(val[row, col], np.inf)):
                    _, hit = evaluate_sinr(x, z, s, a, slab=True, tau=tau)
                    assert np.array_equal(hit, val >= tau)
                    assert hit[row, col] == (tau == val[row, col])


def test_tau_gives_the_coverage_mask_on_every_layout():
    # streamed points and a held slab evaluate every point, and no serving
    # index stands next to the mask
    x, z = _points()
    order = np.argsort(z, kind="stable")
    s = reference_scenario(13.0, 40.0)
    a = OracleAssumptions(interference=InterferenceMode.SUM_ALL)
    for xs, zs, slab in ((x, z, False), (x[order], z[order], True)):
        _, val = evaluate_sinr(xs, zs, s, a, slab=slab)
        want = val >= s.tau
        none, hit = evaluate_sinr(xs, zs, s, a, slab=slab, tau=s.tau)
        assert none is None
        assert np.array_equal(hit, want)


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
    # the block loop passes, against the flattened grid, evaluated as the
    # loops evaluate them (a slab: the heights ascend) and unwindowed; x
    # holds both BS-1/BS-2 ties and points overhead
    xs = np.linspace(-200.0, 1200.0, 57)
    zs = np.linspace(0.5, 400.5, 23)
    shape = (zs.size, xs.size)
    a, _ = _case(assoc, interference, beam, loss, noise, 0)
    work = _Workspace()
    for alpha_deg, beta_deg in TILTS:
        s = reference_scenario(alpha_deg, beta_deg)
        srv_ref, val_ref = ref.allocating_evaluate_sinr(
            np.tile(xs, zs.size), np.repeat(zs, xs.size), s, a)
        for (x, z), slab in itertools.product(
                ((xs[None, :], zs[:, None]),
                 (np.broadcast_to(xs, shape), np.broadcast_to(zs[:, None], shape))),
                (True, False)):
            srv, val = evaluate_sinr(x, z, s, a, work=work, slab=slab)
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


SUM = InterferenceMode.SUM_ALL


@pytest.mark.parametrize("x_range", [None, (-1500.0, 2500.0)])
@pytest.mark.parametrize("a", [
    OracleAssumptions(beam=BeamKind.COSINE, pathloss=AirToGroundPathLoss()),
    OracleAssumptions(),
    OracleAssumptions(association=Association.NEAREST, interference=SUM),
    OracleAssumptions(beam=BeamKind.COSINE, pathloss=AirToGroundPathLoss(),
                      association=Association.NEAREST, interference=SUM),
], ids=["cosine-a2g", "rect-fspl", "rect-nearest-sum", "cosine-nearest-sum"])
def test_sinr_field_is_bit_identical_to_the_allocating_kernel(a, x_range):
    # the half corridor, and an x range that holds every BS
    s = reference_scenario(13.0, 40.0)
    nx, nz = 301, 257   # several column blocks, the last one narrow
    f = sinr_field(s, a, nx, nz, x_range=x_range)
    srv, val = ref.allocating_evaluate_sinr(
        np.tile(f.x_centers, nz), np.repeat(f.z_centers, nx), s, a)
    with np.errstate(divide="ignore"):
        db = 10.0 * np.log10(val)
    assert np.array_equal(f.serving.ravel(), srv)
    assert np.array_equal(f.sinr_db.ravel(), db)


def test_grid_loops_search_lit_windows(monkeypatch):
    # the quadrature and the field evaluate their column blocks as slabs:
    # one window search of the full column per block and BS, and where the
    # quadrature settles tiles, one more of the kept rows' sub-column.
    # Unwindowed, the values would be the same and only slower.
    calls, want = [], []
    for cls in (RectangularBeam, CosineBeam):
        search = cls._lit_samples

        def counted(self, h_near, h_far, z, search=search):
            calls.append(z.size)
            return search(self, h_near, h_far, z)
        monkeypatch.setattr(cls, "_lit_samples", counted)

    def settled(heights, *args, settle=oracle._settle):
        covered, settled = settle(heights, *args)
        want.extend([heights.size] * 4)
        if settled.any():
            kept = np.repeat(~settled, oracle._TILE_ROWS)[:heights.size]
            want.extend([int(np.count_nonzero(kept))] * 4)
        return covered, settled
    monkeypatch.setattr(oracle, "_settle", settled)
    s = reference_scenario(13.0, 40.0)
    for a in (OracleAssumptions(), OracleAssumptions(beam=BeamKind.COSINE)):
        # 301 columns of 257 heights: blocks of 255 and 46 columns
        calls.clear()
        want.clear()
        coverage_by_quadrature(s, a, 301, 257)
        assert calls == want
        assert want.count(257) == 2 * 4
        # rectangular tiles settle, cosine tiles never do
        assert (len(want) > 2 * 4) == (a.beam is BeamKind.RECT)
        calls.clear()
        sinr_field(s, a, 301, 257)
        assert calls == [257] * 2 * 4


# Tilts for the lit windows: alpha <= 0 (and alpha = 0, a flat lower
# edge), alpha + beta at and past 90 degrees, a lobe reaching below -90,
# lobes entirely above 90 and below -90 degrees, and a regular one
WINDOW_TILTS = [(13.0, 40.0), (-5.0, 40.0), (0.0, 40.0), (50.0, 40.0),
                (60.0, 40.0), (-100.0, 130.0), (95.0, 30.0), (-130.0, 30.0)]
# rectangular, and cosine lobes of N = 2 and N = 4000 elements: the widest
# one and one far narrower than a grid cell
WINDOW_BEAMS = {"rect": dict(beam=BeamKind.RECT),
                "cosine-2": dict(beam=BeamKind.COSINE, n_elements=2),
                "cosine-4000": dict(beam=BeamKind.COSINE, n_elements=4000)}
# x rows with every BS inside them (so h is V-shaped) and rows on one side
# of them; z columns from below the BS height to the corridor top. Single
# columns and single rows, one exactly above a BS. For the rectangular
# lobe's fully lit rows: a row past the last BS whose windows have a fully
# lit core with a fringe on either side, a narrow band of heights around
# BS-1, and a row on one side of the last BS. A column of 200 heights, so
# that with tau some of its tiles of 32 rows settle and the rest, with
# their LoS states, are evaluated.
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
    "tall": (np.linspace(-1500.0, 2500.0, 17), np.linspace(-150.5, 400.5, 200)),
}
GRID_MATRIX = list(itertools.product(Association, InterferenceMode,
                                     LOSS_MODES, (True, False)))


@pytest.mark.parametrize("beam", sorted(WINDOW_BEAMS))
@pytest.mark.parametrize("grid", sorted(WINDOW_GRIDS))
@pytest.mark.parametrize("assoc,interference,loss,noise", GRID_MATRIX)
def test_lit_windows_are_bit_identical_to_the_allocating_kernel(
        assoc, interference, loss, noise, grid, beam):
    # a row of x and a column of z, evaluated as the loops evaluate a
    # column block (a slab), take the windowed path, LoS states included;
    # the allocating kernel evaluates every BS on every flattened point
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
                                 los_states=los, work=work, slab=True)
        assert np.array_equal(srv.ravel(), srv_ref)
        assert np.array_equal(val.ravel(), val_ref)
        none, hit = evaluate_sinr(xs[None, :], zs[:, None], s, a,
                                  los_states=los, work=work, slab=True,
                                  tau=s.tau)
        assert none is None
        assert np.array_equal(hit.ravel(), val_ref >= s.tau)


# x rows of column blocks: on one side of every BS, holding BS-1 (near =
# 0) with no column on it, a BS's own column (one distance, 0), one column
# off every BS, and a row that holds every BS
BLOCK_XS = [np.linspace(100.5, 130.5, 31), np.linspace(-20.5, 40.5, 62),
            np.array([1000.0]), np.array([250.0]),
            np.linspace(-1500.0, 2500.0, 81)]


def _column_blocks(s):
    """(xs, zs, pos, near, far) for each row of BLOCK_XS and each BS: the
    heights hold those exactly on the edge products at the block's least
    and greatest distance from the BS, as the lobe test forms them."""
    for xs in BLOCK_XS:
        for pos in OracleAssumptions().resolve_positions(s):
            near, far = _h_range(float(xs.min()), float(xs.max()), pos)
            edges = [h * math.tan(e) for h in (near, far)
                     for e in (s.alpha, s.alpha + s.beta)]
            zs = np.sort(np.concatenate([np.linspace(-300.5, 700.5, 41),
                                         edges]))
            if pos in xs:
                # no cell on the BS itself, at distance 0, which the kernel
                # rejects
                zs = zs[zs != 0.0]
            yield xs, zs, pos, near, far


@pytest.mark.parametrize("beam", sorted(WINDOW_BEAMS))
@pytest.mark.parametrize("alpha_deg,beta_deg", WINDOW_TILTS)
def test_column_block_window_holds_every_lit_cell(beam, alpha_deg, beta_deg):
    # the window of a column block, whose heights ascend down its rows,
    # against the lobe test itself: the block's gain is zero outside the
    # window's rows and the peak on its core. Given the window, with its
    # core and without (every cell tested), gain takes h as the kernel
    # passes it (the row's view at the block's shape) and z, r2 and out at
    # the window's shape, and gives the whole gain's values on the window.
    # With one column (one distance) the rectangular window is exactly the
    # lit rows, all of them core; the cosine window is the whole block,
    # with no core.
    s = reference_scenario(alpha_deg, beta_deg)
    b = OracleAssumptions(**WINDOW_BEAMS[beam]).resolve_beam(s)
    work = _Workspace()
    for xs, zs, pos, near, far in _column_blocks(s):
        h = np.abs(xs - pos)[None, :]
        z = zs[:, None]
        r2 = h * h + z * z
        g = b.gain(h, z, r2)
        window, core = b._lit_samples(near, far, zs)
        assert not g[:window.start].any() and not g[window.stop:].any()
        h_block = np.broadcast_to(h, r2.shape)
        for given in (core, None):
            out = np.full((window.stop - window.start, xs.size), np.nan)
            assert b.gain(h_block, z[window], r2[window], out=out, work=work,
                          core=given) is out
            assert np.array_equal(out, g[window])
        if isinstance(b, CosineBeam):
            assert window == slice(0, zs.size) and core is None
            continue
        if core is not None:
            assert np.all(g[window][core] == b.peak_gain)
        if xs.size == 1:
            lit = np.flatnonzero(g[:, 0])
            assert window == (slice(lit[0], lit[-1] + 1) if lit.size
                              else slice(0, 0))
            assert core == (slice(0, lit.size) if lit.size else None)


def test_column_blocks_reach_dark_partial_and_full_windows():
    # the blocks above do hold empty windows, windows cut inside the
    # block's heights and windows that fill them; and rectangular windows
    # whose core has a fringe on either side, that are all core, and that
    # have no core although a BS inside the block lights them
    spans, cores = set(), set()
    for beam in WINDOW_BEAMS.values():
        for alpha_deg, beta_deg in WINDOW_TILTS:
            s = reference_scenario(alpha_deg, beta_deg)
            b = OracleAssumptions(**beam).resolve_beam(s)
            for xs, zs, pos, near, far in _column_blocks(s):
                window, core = b._lit_samples(near, far, zs)
                n = window.stop - window.start
                spans.add("dark" if n == 0 else
                          "full" if n == zs.size else "cut")
                if not isinstance(b, RectangularBeam) or not n:
                    continue
                if core is None:
                    cores.add("BS inside" if near == 0 < far else None)
                elif core == slice(0, n):
                    cores.add("all")
                elif 0 < core.start and core.stop < n:
                    cores.add("fringes")
    assert spans == {"dark", "cut", "full"}
    assert cores >= {"fringes", "all", "BS inside"}


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
            none, hit = evaluate_sinr(x, z, s, a, los_states=los,
                                      work=work, slab=True, tau=s.tau)
            assert none is None
            assert np.array_equal(hit, val_ref >= s.tau)


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
        none, hit = evaluate_sinr(x, z, s, a, los_states=los, tau=s.tau)
        assert none is None
        assert np.array_equal(hit, val_ref >= s.tau)
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


@pytest.mark.parametrize("nx,nz", [(1, 300), (70001, 2), (2, 70001)])
def test_single_column_and_single_row_blocks(nx, nz):
    # one column of heights, blocks of 32768 columns of two heights, and
    # columns taller than a block, one column per block
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


# (scenario, heights, whether the loss leaves the float range with the
# free-space model): BSs 1e300 m away, heights of 1e200 m (whose squares
# overflow), and BSs up to 6e151 m away, whose free-space loss, about
# 6e307, is finite and whose air-to-ground loss is not
OVERFLOWS = [(reference_scenario(-5.0, 40.0, d1=1e300),
              np.linspace(100.5, 299.5, 5), True),
             (reference_scenario(13.0, 40.0), np.linspace(100.5, 1e200, 5),
              True),
             (reference_scenario(-5.0, 40.0, d1=3e151),
              np.linspace(100.5, 299.5, 5), False)]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("loss", LOSS_MODES)
def test_overflowing_distances_raise_on_every_layout(loss):
    # the kernel bounds every BS's squared distances and losses by the
    # farthest point's, far**2 + max(z**2), before numpy forms any of them:
    # a loss past the float range is the models' ValueError, not an
    # overflow warning and a silent outage. The layouts: streamed points,
    # a slab, and a column block, windowed and not.
    xs = np.linspace(0.5, 499.5, 8)
    for s, zs, fspl_overflows in OVERFLOWS:
        a, _ = _case(Association.STRONGEST, InterferenceMode.DOMINANT_ONLY,
                     BeamKind.RECT, loss, True, 0)
        points = (np.tile(xs, zs.size), np.repeat(zs, xs.size))
        block = (xs[None, :], zs[:, None])
        for (x, z), slab in itertools.product((points, block), (False, True)):
            shape = np.broadcast_shapes(x.shape, z.shape)
            u = (np.random.default_rng(5).random((4, *shape))
                 if loss == "a2g-bernoulli" else None)
            los = _states(x, z, s, a, u)
            if fspl_overflows or loss != "fspl":
                with pytest.raises(ValueError, match="finite loss"):
                    evaluate_sinr(x, z, s, a, los_states=los, slab=slab)
            else:
                _, val = evaluate_sinr(x, z, s, a, los_states=los, slab=slab)
                assert np.isfinite(val).all()



def _power_case(p_tx_dbm, carrier_hz=3e9, points=None, **assumptions):
    s = reference_scenario(13.0, 40.0)
    s = dataclasses.replace(s, radio=LinkBudget(p_tx_dbm=p_tx_dbm,
                                                carrier_hz=carrier_hz))
    if points is None:
        points = (np.linspace(0.5, 499.5, 8), np.linspace(100.5, 299.5, 5))
    return s, OracleAssumptions(**assumptions), points


# (scenario, assumptions, a block's (x, z), whether the powers leave the
# float range): a transmit power of 1e308 W, whose product with the peak
# gain overflows; a peak gain of 3075 dB, whose powers are finite and
# whose SINR over the noise is not; air-to-ground excess losses of
# -100 dB, whose powers over the noise overflow while those with the
# free-space loss do not; and, with no noise and SUM interference, three
# BSs 1 m apart under points 1 km up, each delivering about 0.6 of the
# largest float, so that two of them sum past it. The last is a transmit
# power 113 dB below the first, whose powers and SINR all fit.
POWER_OVERFLOWS = [
    (*_power_case(3110.0), True),
    (*_power_case(30.0, peak_gain_db=3075.0), True),
    (*_power_case(3000.0, pathloss=AirToGroundPathLoss(
        eta_los_db=-100.0, eta_nlos_db=-100.0)), True),
    (*_power_case(3082.76, carrier_hz=1e3, peak_gain_db=0.0,
                  include_noise=False, bs_positions=(-1.0, 0.0, 1.0),
                  interference=InterferenceMode.SUM_ALL,
                  points=(np.linspace(-0.5, 0.5, 8),
                          np.linspace(1000.0, 1001.0, 5))), True),
    (*_power_case(2997.0), False),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_powers_raise_on_every_layout():
    # the per-BS range check bounds every received power, their sum and,
    # with noise on, the SINR: a power past the float range is a
    # ValueError, not an overflow warning and a wrong SINR (inf / inf
    # reads as 0, an outage). The layouts: streamed points, a slab, and a
    # column block, windowed and not.
    for s, a, (xs, zs), overflows in POWER_OVERFLOWS:
        points = (np.tile(xs, zs.size), np.repeat(zs, xs.size))
        block = (xs[None, :], zs[:, None])
        for (x, z), slab in itertools.product((points, block), (False, True)):
            if overflows:
                with pytest.raises(ValueError, match="received power"):
                    evaluate_sinr(x, z, s, a, slab=slab)
            else:
                _, val = evaluate_sinr(x, z, s, a, slab=slab)
                assert np.isfinite(val).all() and (val > 0).any()
