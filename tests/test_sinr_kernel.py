"""The SINR kernel against the direct evaluation it replaced
(tests/sinr_reference.py): identical serving indices and coverage
decisions, SINR values equal to rounding. Against the allocating kernel it
grew from, on flattened points, and the models of that kernel: equal bit
for bit, on points, on broadcast grids and through a reused workspace."""

import itertools

import numpy as np
import pytest

import sinr_reference as ref
from corridorcov.defaults import reference_scenario
from corridorcov.heatmap import sinr_field
from corridorcov.oracle import (
    Association,
    BeamKind,
    OracleAssumptions,
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
    """Assumptions of one matrix case and its LoS uniforms (or None)."""
    pathloss = FreeSpacePathLoss() if loss == "fspl" else AirToGroundPathLoss()
    u = (np.random.default_rng(5).random((4, n_points))
         if loss == "a2g-bernoulli" else None)
    a = OracleAssumptions(association=assoc, interference=interference,
                          beam=beam, pathloss=pathloss, include_noise=noise)
    return a, u


@pytest.mark.parametrize("assoc,interference,beam,loss,noise", MATRIX)
def test_kernel_matches_reference(assoc, interference, beam, loss, noise):
    x, z = _points()
    a, u = _case(assoc, interference, beam, loss, noise, x.size)
    for alpha_deg, beta_deg in TILTS:
        s = reference_scenario(alpha_deg, beta_deg)
        srv, val = evaluate_sinr(x, z, s, a, los_uniforms=u)
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
        for w in (None, work):
            srv, val = evaluate_sinr(x, z, s, a, los_uniforms=u, work=w)
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
