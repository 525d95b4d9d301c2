"""The SINR kernel against the direct evaluation it replaced
(tests/sinr_reference.py): identical serving indices and coverage
decisions, SINR values equal to rounding."""

import itertools

import numpy as np
import pytest

import sinr_reference as ref
from corridorcov.defaults import reference_scenario
from corridorcov.oracle import (
    Association,
    BeamKind,
    OracleAssumptions,
    coverage_by_quadrature,
    evaluate_sinr,
)
from corridorcov.propagation import (
    AirToGroundPathLoss,
    FreeSpacePathLoss,
    InterferenceMode,
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


@pytest.mark.parametrize(
    "assoc,interference,beam,loss,noise",
    list(itertools.product(Association, InterferenceMode, BeamKind,
                           LOSS_MODES, (True, False))))
def test_kernel_matches_reference(assoc, interference, beam, loss, noise):
    x, z = _points()
    pathloss = FreeSpacePathLoss() if loss == "fspl" else AirToGroundPathLoss()
    u = (np.random.default_rng(5).random((4, x.size))
         if loss == "a2g-bernoulli" else None)
    a = OracleAssumptions(association=assoc, interference=interference,
                          beam=beam, pathloss=pathloss, include_noise=noise)
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
