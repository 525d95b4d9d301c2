import dataclasses
import math
import warnings

import numpy as np
import pytest

from corridorcov import propagation
from corridorcov.defaults import reference_scenario
from corridorcov.oracle import OracleAssumptions, evaluate_sinr
from corridorcov.propagation import (
    SPEED_OF_LIGHT,
    AirToGroundPathLoss,
    CosineBeam,
    FreeSpacePathLoss,
    InterferenceMode,
    LinkBudget,
    RectangularBeam,
    db_to_linear,
    dbm_to_watts,
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


@pytest.mark.parametrize("peak", [math.inf, math.nan, -1.0])
def test_rectangular_peak_gain_must_be_finite(peak):
    # the gain is the 0/1 lobe indicator times the peak: 0 * inf is NaN
    with pytest.raises(ValueError, match="peak gain"):
        RectangularBeam(peak_gain=peak, alpha=0.1, beta=0.5)


@pytest.mark.parametrize("eta_db", [math.inf, math.nan, 4000.0])
def test_a2g_excess_loss_must_be_finite(eta_db):
    # the Bernoulli mode blends the two excess losses with 0/1 weights
    with pytest.raises(ValueError, match="excess loss"):
        AirToGroundPathLoss(eta_nlos_db=eta_db)
    with pytest.raises(ValueError, match="excess loss"):
        AirToGroundPathLoss(eta_los_db=eta_db)


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


def test_checked_loss_skips_only_the_distance_check():
    # the kernel passes checked=True where it has checked a grid block's
    # least r2 itself; the values are those of the checked call
    lam = 0.1
    h, z = np.array([30.0, 0.0]), np.array([40.0, 0.0])
    r2 = h * h + z * z
    for model in (FreeSpacePathLoss(), AirToGroundPathLoss()):
        with pytest.raises(ValueError, match="positive distance"):
            model.loss(h, z, r2, lam)
        assert np.array_equal(model.loss(h[:1], z[:1], r2[:1], lam, checked=True),
                              model.loss(h[:1], z[:1], r2[:1], lam))
        model.loss(h, z, r2, lam, checked=True)


def test_a2g_linear_etas_are_formed_once_outside_eq_and_hash():
    # the model is part of the Monte Carlo sample key, so it must compare
    # and hash by its four parameters alone
    m = AirToGroundPathLoss(eta_los_db=1.5, eta_nlos_db=23.0)
    assert (m._eta_los, m._eta_nlos) == (float(db_to_linear(1.5)),
                                         float(db_to_linear(23.0)))
    twin = AirToGroundPathLoss(eta_los_db=1.5, eta_nlos_db=23.0)
    assert m == twin and hash(m) == hash(twin)
    assert m != AirToGroundPathLoss(eta_los_db=1.5, eta_nlos_db=22.0)
    assert "_eta" not in repr(m)
    assert [f.name for f in dataclasses.fields(m) if f.compare] == [
        "a", "b", "eta_los_db", "eta_nlos_db"]
    moved = dataclasses.replace(m, eta_nlos_db=20.0)
    assert moved._eta_nlos == float(db_to_linear(20.0))


def test_link_budget_linear_values_are_formed_once_outside_eq_and_hash(
        monkeypatch):
    # the kernel reads them on every block, and reading them converts
    # nothing; the scenario is part of the Monte Carlo sample key, so the
    # budget compares and hashes by its five parameters alone
    lb = LinkBudget(p_tx_dbm=23.0, carrier_hz=2e9, noise_figure_db=7.0)
    want = (SPEED_OF_LIGHT / 2e9, float(dbm_to_watts(23.0)),
            float(dbm_to_watts(lb.noise_dbm)))
    monkeypatch.setattr(propagation, "dbm_to_watts", None)
    assert (lb.wavelength_m, lb.p_tx_w, lb.noise_w) == want
    assert type(lb.p_tx_w) is float and type(lb.noise_w) is float
    monkeypatch.undo()
    twin = LinkBudget(p_tx_dbm=23.0, carrier_hz=2e9, noise_figure_db=7.0)
    assert lb == twin and hash(lb) == hash(twin)
    assert lb != LinkBudget(p_tx_dbm=23.0, carrier_hz=2e9)
    assert "wavelength_m" not in repr(lb) and "_w=" not in repr(lb)
    assert [f.name for f in dataclasses.fields(lb) if f.compare] == [
        "p_tx_dbm", "carrier_hz", "bandwidth_hz", "noise_figure_db",
        "thermal_noise_dbm_hz"]
    with pytest.raises(TypeError):
        LinkBudget(p_tx_w=2.0)
    moved = dataclasses.replace(lb, p_tx_dbm=33.0, carrier_hz=3e9,
                                bandwidth_hz=10e6)
    assert moved.p_tx_w == float(dbm_to_watts(33.0))
    assert moved.wavelength_m == SPEED_OF_LIGHT / 3e9
    assert moved.noise_w == float(dbm_to_watts(moved.noise_dbm))
    assert moved.noise_w != lb.noise_w


def test_rectangular_beam_edges_are_formed_once_outside_eq_and_hash():
    # the tan of each binding edge (None past 90 degrees) and whether the
    # lobe lies past 90 degrees follow from alpha and beta, and replace
    # forms them anew
    b = RectangularBeam(peak_gain=2.0, alpha=13 * D2R, beta=40 * D2R)
    assert (b._t_lo, b._t_hi, b._dark) == (math.tan(13 * D2R),
                                           math.tan(53 * D2R), False)
    assert [f.name for f in dataclasses.fields(b) if f.compare] == [
        "peak_gain", "alpha", "beta"]
    assert "_t_lo" not in repr(b)
    twin = RectangularBeam(peak_gain=2.0, alpha=13 * D2R, beta=40 * D2R)
    assert b == twin and hash(b) == hash(twin)
    wide = dataclasses.replace(b, alpha=-100 * D2R, beta=130 * D2R)
    assert (wide._t_lo, wide._t_hi, wide._dark) == (
        None, math.tan(wide.alpha + wide.beta), False)
    high = dataclasses.replace(b, alpha=95 * D2R, beta=30 * D2R)
    assert high._dark and high._t_hi is None
    assert dataclasses.replace(b, alpha=-130 * D2R, beta=30 * D2R)._dark


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


def test_p_los_degree_multiply_is_np_degrees():
    # p_los turns radians into degrees with one multiply by 180/pi, which
    # must round as np.degrees does: on magnitudes from subnormal to near
    # the float range, on random bit patterns, and on every elevation
    rng = np.random.default_rng(2)
    mags = 10.0 ** np.arange(-320.0, 306.0, 2.0)
    v = np.concatenate([np.outer(mags, rng.uniform(1.0, 10.0, 500)).ravel(),
                        rng.standard_normal(100_000)])
    v = np.concatenate([v, -v])
    bits = rng.integers(0, 2**63, 200_000, dtype=np.uint64).view(np.float64)
    for x in (v, bits[np.isfinite(bits)]):
        with np.errstate(over="ignore"):
            assert np.array_equal(x * (180.0 / math.pi), np.degrees(x))
    a2g = AirToGroundPathLoss()
    theta = np.linspace(-math.pi / 2, math.pi / 2, 100_001)
    h, z = np.cos(theta), np.sin(theta)
    want = 1.0 / (1.0 + a2g.a * np.exp(
        -a2g.b * (np.degrees(np.arctan2(z, h)) - a2g.a)))
    assert np.array_equal(a2g.p_los(h, z), want)


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


@pytest.mark.parametrize("name, value", [
    *((name, value) for name in ("p_tx_dbm", "carrier_hz", "bandwidth_hz",
                                 "noise_figure_db", "thermal_noise_dbm_hz")
      for value in (math.nan, math.inf, -math.inf)),
    ("carrier_hz", 0.0), ("carrier_hz", -3e9), ("bandwidth_hz", 0.0),
])
def test_link_budget_rejects_values_outside_its_domain(name, value):
    # a zero carrier divided by zero; a negative one gave a silent number
    with pytest.raises(ValueError, match=f"{name} must be"):
        LinkBudget(**{name: value})


@pytest.mark.parametrize("name, value, derived", [
    ("carrier_hz", 1e-300, "wavelength_m"),
    ("carrier_hz", 1e-290, "free-space loss at 1 m"),
    ("carrier_hz", 1e300, "free-space loss at 1 m"),
    ("p_tx_dbm", 1e6, "p_tx_w"),
    ("p_tx_dbm", -1e6, "p_tx_w"),
    ("thermal_noise_dbm_hz", -1e6, "noise_w"),
    ("noise_figure_db", 1e6, "noise_w"),
])
def test_link_budget_rejects_values_outside_the_float_range(name, value,
                                                            derived):
    # finite inputs whose watts or loss are 0 or inf: a 1e-300 Hz carrier
    # made every SINR NaN and p_out read 1, with exit 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"{derived} must be finite and "
                                             "positive"):
            LinkBudget(**{name: value})


def test_db_conversions_overflow_to_inf_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert db_to_linear(1e6) == math.inf
        assert dbm_to_watts(1e6) == math.inf
        assert db_to_linear(-1e6) == 0.0


def test_link_budget_derived():
    lb = LinkBudget()
    assert lb.p_tx_w == pytest.approx(1.0)
    assert lb.wavelength_m == pytest.approx(0.0999308, abs=1e-6)
    assert lb.noise_dbm == pytest.approx(-91.9897, abs=1e-3)
    # free space: received power is P_tx * G * lambda^2 / (16 pi^2 R^2).
    # Only BS 0 sees the point in its lobe (45 degrees; BS 1 sees it at
    # 6.3 degrees, below the 13-degree edge), so SINR = P_rx / noise.
    s = reference_scenario(13, 40)
    a = OracleAssumptions(bs_positions=(0.0, 1000.0))
    _, sinr = evaluate_sinr(np.array([100.0]), np.array([100.0]), s, a)
    gain = a.resolve_beam(s).peak_gain
    p_rx = (s.radio.p_tx_w * gain * s.radio.wavelength_m ** 2
            / (16 * math.pi ** 2 * (100.0 ** 2 + 100.0 ** 2)))
    assert sinr[0] * s.radio.noise_w == pytest.approx(p_rx, rel=1e-12)


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
            assert np.all(v_sum <= v_dom)
            if alpha == 25.0:
                # one interferer at most reaches these points
                np.testing.assert_array_equal(v_sum, v_dom)
            else:
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
    vals_db = np.array([-174.0, -20.0, 0.0, 3.0, 42.0])
    np.testing.assert_allclose(10.0 * np.log10(db_to_linear(vals_db)),
                               vals_db, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(dbm_to_watts(vals_db),
                               db_to_linear(vals_db) / 1000.0, rtol=1e-12)
    assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-15)


def test_a_reserved_workspace_makes_each_buffer_once():
    # windows of many sizes up to the reserve reuse one buffer per name;
    # a larger one, or another dtype, makes it anew
    w = propagation._Workspace()
    w.reserve(100)
    first = w.take("a", (10,))
    for shape in ((50,), (100,), (7,), (10, 10)):
        assert np.shares_memory(w.take("a", shape), first)
    assert not np.shares_memory(w.take("a", (101,)), first)
    assert w.take("a", (3,), bool).dtype == bool
