import math

import numpy as np
import pytest

from corridorcov.defaults import reference_scenario
from corridorcov.oracle import OracleAssumptions, evaluate_sinr
from corridorcov.propagation import (
    AirToGroundPathLoss,
    CosineBeam,
    FreeSpacePathLoss,
    InterferenceMode,
    LinkBudget,
    RectangularBeam,
    db_to_linear,
    linear_to_db,
    noise_power_dbm,
    suggested_element_count,
)

D2R = math.pi / 180.0


def _link(theta, r=1.0):
    """(h, z, r2) of a link at elevation theta and distance r."""
    h = r * np.cos(theta)
    z = r * np.sin(theta)
    return h, z, h * h + z * z


def test_rectangular_gain_support():
    beam = RectangularBeam(peak_gain=5.0, alpha=8 * D2R, beta=40 * D2R)
    assert beam.gain(*_link(28 * D2R)) == 5.0    # lobe interior
    # edges excluded: z exactly on the tan-space edge rays
    assert beam.gain(1.0, math.tan(8 * D2R), 2.0) == 0.0
    assert beam.gain(1.0, math.tan(48 * D2R), 2.0) == 0.0
    assert beam.gain(*_link(60 * D2R)) == 0.0
    out = beam.gain(*_link(np.array([5, 30, 50]) * D2R))
    assert out.tolist() == [0.0, 5.0, 0.0]
    # straight overhead (h = 0) only a lobe reaching past 90 degrees counts
    assert beam.gain(0.0, 100.0, 1e4) == 0.0
    wide = RectangularBeam(peak_gain=5.0, alpha=60 * D2R, beta=40 * D2R)
    assert wide.gain(0.0, 100.0, 1e4) == 5.0
    assert wide.gain(*_link(np.array([55, 61, 89]) * D2R)).tolist() == [
        0.0, 5.0, 5.0]
    # a lobe starting below the horizon covers every upward elevation up to
    # its top edge; one entirely above 90 degrees covers nothing
    low = RectangularBeam(peak_gain=5.0, alpha=-100 * D2R, beta=130 * D2R)
    assert low.gain(*_link(np.array([-80, 10, 40]) * D2R)).tolist() == [
        5.0, 5.0, 0.0]
    behind = RectangularBeam(peak_gain=5.0, alpha=95 * D2R, beta=30 * D2R)
    assert behind.gain(*_link(np.array([10, 89]) * D2R)).tolist() == [0.0, 0.0]


def test_reference_peak_gain_rule():
    # 297.6/beta dB at 40 degrees beamwidth
    from corridorcov.defaults import peak_gain_db
    assert peak_gain_db(40 * D2R) == pytest.approx(7.44, abs=1e-10)
    assert peak_gain_db(30 * D2R) == pytest.approx(9.92, abs=1e-10)


def test_cosine_gain_boresight_and_null():
    beam = CosineBeam(n_elements=8, alpha=8 * D2R, beta=40 * D2R)
    boresight = 28 * D2R
    assert beam.gain(*_link(boresight)) == pytest.approx(8.0, rel=1e-12)
    # the gain reads cos(theta) = h / sqrt(r2), whatever the distance
    assert beam.gain(*_link(boresight, 750.0)) == pytest.approx(8.0, rel=1e-12)
    # first null above boresight: x = -1/N_t
    x_null = 1.0 / 8
    theta_null = math.acos(math.cos(boresight) - 2 * x_null)
    assert beam.gain(*_link(theta_null)) == pytest.approx(0.0, abs=1e-12)
    assert beam.gain(*_link(theta_null - 1e-9)) < 1e-10  # continuous at the edge


def test_cosine_gain_peak_equals_element_count():
    for nt in (2, 4, 16, 64):
        beam = CosineBeam(n_elements=nt, alpha=10 * D2R, beta=30 * D2R)
        thetas = np.linspace(1e-3, math.pi / 2, 20001)
        assert np.max(beam.gain(*_link(thetas))) == pytest.approx(nt, rel=1e-6)
    with pytest.raises(ValueError):
        CosineBeam(n_elements=1, alpha=0.1, beta=0.5)


def test_suggested_element_count():
    assert suggested_element_count(8 * D2R, 40 * D2R) == 7
    assert suggested_element_count(10 * D2R, 10 * D2R) >= 2


def test_fspl_frozen():
    lam = 299_792_458.0 / 3e9
    pl = FreeSpacePathLoss().loss(*_link(0.3, 500.0), lam)
    assert 10 * math.log10(pl) == pytest.approx(95.9696, abs=1e-3)
    with pytest.raises(ValueError):
        FreeSpacePathLoss().loss(0.0, 0.0, 0.0, lam)


def test_a2g_mixture_collapses_when_etas_equal():
    lam = 0.1
    a2g = AirToGroundPathLoss(eta_los_db=3.0, eta_nlos_db=3.0)
    fs = FreeSpacePathLoss().loss(*_link(0.5, 800.0), lam)
    for theta in (5 * D2R, 30 * D2R, 80 * D2R):
        assert a2g.loss(*_link(theta, 800.0), lam) == pytest.approx(
            db_to_linear(3.0) * fs, rel=1e-12)


def test_a2g_sigmoid_saturates_overhead():
    a2g = AirToGroundPathLoss()  # suburban defaults a=4.88, b=0.43
    assert a2g.p_los(0.0, 600.0) == pytest.approx(1.0, abs=1e-6)
    lam = 0.1
    overhead = (0.0, 600.0, 600.0 ** 2)
    fs = FreeSpacePathLoss().loss(*overhead, lam)
    assert a2g.loss(*overhead, lam) == pytest.approx(
        db_to_linear(0.1) * fs, rel=1e-5)
    # low elevation leans NLoS
    h, z, _ = _link(1 * D2R)
    assert a2g.p_los(h, z) < 0.25


def test_a2g_bernoulli_states():
    a2g = AirToGroundPathLoss()
    lam = 0.1
    link = _link(0.4, 600.0)
    fs = FreeSpacePathLoss().loss(*link, lam)
    los = a2g.loss(*link, lam, los_state=np.array([True, False]))
    assert los[0] == pytest.approx(db_to_linear(0.1) * fs, rel=1e-12)
    assert los[1] == pytest.approx(db_to_linear(21.0) * fs, rel=1e-12)


def test_noise_power():
    assert noise_power_dbm(-174.0, 20e6, 9.0) == pytest.approx(-91.9897, abs=1e-3)
    assert noise_power_dbm(-174.0, 1.0, 0.0) == -174.0
    assert noise_power_dbm(-174.0, 10.0, 0.0) == pytest.approx(-164.0)
    with pytest.raises(ValueError):
        noise_power_dbm(-174.0, 0.0, 9.0)


def test_link_budget_derived():
    lb = LinkBudget()
    assert lb.p_tx_w == pytest.approx(1.0)
    assert lb.wavelength_m == pytest.approx(0.0999308, abs=1e-6)
    assert lb.noise_dbm == pytest.approx(-91.9897, abs=1e-3)
    assert lb.power_constant == pytest.approx(
        lb.p_tx_w * lb.wavelength_m ** 2 / (16 * math.pi ** 2), rel=1e-15)


# The SINR reduction itself lives in the kernel, oracle.evaluate_sinr;
# these check its arithmetic through the models above.

def _powers(s, a, x, z):
    """Per-BS received power straight from the beam and path-loss models."""
    beam = a.resolve_beam(s)
    out = []
    for pos in a.resolve_positions(s):
        h = abs(x - pos)
        r2 = h * h + z * z
        out.append(s.radio.p_tx_w * float(beam.gain(h, z, r2))
                   / float(a.pathloss.loss(h, z, r2, s.radio.wavelength_m)))
    return out


def test_sinr_arithmetic():
    s = reference_scenario(13, 40)
    noise = s.radio.noise_w
    dom = OracleAssumptions()
    tot = OracleAssumptions(interference=InterferenceMode.SUM_ALL)
    # both BS-1 and BS-2 lobes reach this point, BS-0 and BS-3 do not
    p = _powers(s, dom, 400.0, 250.0)
    assert p[0] == 0.0 and p[3] == 0.0 and p[1] > p[2] > 0.0
    _, v = evaluate_sinr(400.0, 250.0, s, dom)
    assert v[0] == pytest.approx(p[1] / (p[2] + noise), rel=1e-12)
    # at alpha = 8, three lobes reach this one: dominant and sum part ways
    s8 = reference_scenario(8, 40)
    p = _powers(s8, dom, 300.0, 200.0)
    assert [q > 0.0 for q in p] == [True, True, True, False]
    srv, v_dom = evaluate_sinr(300.0, 200.0, s8, dom)
    _, v_sum = evaluate_sinr(300.0, 200.0, s8, tot)
    k = int(srv[0])
    rest = [q for i, q in enumerate(p) if i != k]
    assert p[k] == max(p)
    assert v_dom[0] == pytest.approx(p[k] / (max(rest) + noise), rel=1e-12)
    assert v_sum[0] == pytest.approx(p[k] / (sum(rest) + noise), rel=1e-12)
    # only BS-2 reaches this point: the plain SNR, +inf without noise
    p = _powers(s8, dom, 100.0, 150.0)
    assert [q > 0.0 for q in p] == [False, False, True, False]
    _, v = evaluate_sinr(100.0, 150.0, s8, dom)
    assert v[0] == pytest.approx(p[2] / noise, rel=1e-12)
    _, v = evaluate_sinr(100.0, 150.0, s8, OracleAssumptions(include_noise=False))
    assert v[0] == math.inf
    # no lobe reaches this point: 0 with or without noise
    s_dark = reference_scenario(1.0, 1.5)
    for a in (dom, OracleAssumptions(include_noise=False)):
        _, v = evaluate_sinr(250.0, 200.0, s_dark, a)
        assert v[0] == 0.0


def test_sum_mode_never_exceeds_dominant():
    rng = np.random.default_rng(3)
    x = rng.uniform(0.0, 500.0, 20000)
    z = rng.uniform(1.0, 400.0, 20000)
    for alpha in (-5.0, 8.0, 13.0, 25.0):
        s = reference_scenario(alpha, 40)
        for noise in (True, False):
            _, v_dom = evaluate_sinr(x, z, s, OracleAssumptions(
                include_noise=noise))
            _, v_sum = evaluate_sinr(x, z, s, OracleAssumptions(
                interference=InterferenceMode.SUM_ALL, include_noise=noise))
            # the sum is formed as total - serving, which can round below
            # the largest interferer by a few ulp of the total
            assert np.all(v_sum <= v_dom * (1.0 + 1e-12))
            assert np.any(v_sum < v_dom)


def test_sinr_monotonicity():
    x = np.linspace(0.5, 499.5, 300)
    z = np.full(x.size, 180.0)
    base_s = reference_scenario(13, 40)
    a = OracleAssumptions()
    _, base = evaluate_sinr(x, z, base_s, a)
    lit = base > 0.0
    assert np.count_nonzero(lit) > 100
    # more transmit power raises every power: with noise, the SINR rises
    louder = base_s.replace(radio=LinkBudget(p_tx_dbm=33.0))
    _, v = evaluate_sinr(x, z, louder, a)
    assert np.all(v[lit] > base[lit])
    # more noise lowers it
    noisier = base_s.replace(radio=LinkBudget(noise_figure_db=12.0))
    _, v = evaluate_sinr(x, z, noisier, a)
    assert np.all(v[lit] < base[lit])
    # one more interferer lowers it: with a lobe lighting every upward
    # elevation, a fifth BS beyond the others never serves and adds to the
    # summed interference everywhere
    wide = reference_scenario(-80, 170)
    four = OracleAssumptions(interference=InterferenceMode.SUM_ALL)
    five = OracleAssumptions(interference=InterferenceMode.SUM_ALL,
                             bs_positions=(-1000.0, 0.0, 1000.0, 2000.0, 3000.0))
    srv4, v4 = evaluate_sinr(x, z, wide, four)
    srv5, v5 = evaluate_sinr(x, z, wide, five)
    assert np.array_equal(srv4, srv5)
    assert np.all(v5 < v4)


def test_simplified_sinr_is_distance_ratio():
    # equal gains (one lobe covering every upward elevation), free space,
    # zero noise, two BSs: SINR reduces to (R_j/R_i)^2
    s = reference_scenario(-80, 170)
    a = OracleAssumptions(include_noise=False, bs_positions=(0.0, 1000.0))
    rng = np.random.default_rng(11)
    x = rng.uniform(-2000.0, 3000.0, 1000)
    z = rng.uniform(10.0, 3000.0, 1000)
    serving, v = evaluate_sinr(x, z, s, a)
    r2_0 = x ** 2 + z ** 2
    r2_1 = (x - 1000.0) ** 2 + z ** 2
    near_1 = r2_1 < r2_0
    assert np.array_equal(serving, near_1.astype(int))
    ratio = np.where(near_1, r2_0 / r2_1, r2_1 / r2_0)
    np.testing.assert_allclose(v, ratio, rtol=1e-12)


def test_db_roundtrip():
    vals = np.array([0.01, 1.0, 42.0])
    assert np.allclose(db_to_linear(linear_to_db(vals)), vals, rtol=1e-12)
