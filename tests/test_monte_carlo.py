import math

import numpy as np
import pytest

from corridorcov import closed_form
from corridorcov.defaults import reference_scenario
from corridorcov.monte_carlo import (
    CHUNK_SAMPLES,
    LosMode,
    McConfig,
    McResult,
    estimate_outage,
    sample_point,
)
from corridorcov.oracle import Association, OracleAssumptions, evaluate_sinr
from corridorcov.propagation import AirToGroundPathLoss, InterferenceMode


def _stream(seed, n, cols=2):
    rng = np.random.Generator(np.random.Philox(key=seed))
    return rng.random((n, cols))


def test_sample_point_matches_counter_stream():
    # the scalar sampler and the chunked vector path read the same stream
    s = reference_scenario(13, 40)
    rng = np.random.Generator(np.random.Philox(key=9))
    pts = [sample_point(rng, s) for _ in range(1000)]
    u = _stream(9, 1000)
    d_x = 0.0 + (s.d1 / 2.0 - 0.0) * u[:, 0]
    h_x = s.h1 + (s.h2 - s.h1) * u[:, 1]
    assert all(p == (d_x[i], h_x[i]) for i, p in enumerate(pts))


def test_sample_point_uniform_moments():
    s = reference_scenario(13, 40)
    n = 1_000_000
    u = _stream(123, n)
    d_x = (s.d1 / 2.0) * u[:, 0]
    h_x = s.h1 + (s.h2 - s.h1) * u[:, 1]
    se_d = (s.d1 / 2) / math.sqrt(12 * n)
    se_h = (s.h2 - s.h1) / math.sqrt(12 * n)
    assert abs(d_x.mean() - s.d1 / 4) <= 3 * se_d
    assert abs(h_x.mean() - (s.h1 + s.h2) / 2) <= 3 * se_h


def test_sample_point_ks_uniformity():
    s = reference_scenario(13, 40)
    n = 100_000
    d_x = np.sort((s.d1 / 2.0) * _stream(123, n)[:, 0])
    cdf = d_x / (s.d1 / 2.0)
    hi = np.arange(1, n + 1) / n
    lo = np.arange(0, n) / n
    d_stat = max(np.max(hi - cdf), np.max(cdf - lo))
    assert d_stat < 1.63 / math.sqrt(n)  # 1% critical value, large-n tables


def test_estimate_matches_closed_form():
    s = reference_scenario(13, 40)
    r = estimate_outage(s, McConfig(n_samples=1_000_000, seed=2))
    cf = closed_form.outage(s).p_out
    assert abs(r.p_out - cf) <= max(0.02, 4 * r.std_err)
    assert r.ci95[0] <= r.p_out <= r.ci95[1]
    assert r.std_err == pytest.approx(
        math.sqrt(r.p_out * (1 - r.p_out) / r.n), rel=1e-12)


def test_threshold_degenerate_limits():
    # tau -> 0+ with noise on: outage only where no lobe reaches at all;
    # oracle = fraction of dead midpoints, the points of zero SINR
    s = reference_scenario(13, 40, tau_db=-110.0)
    n = 200_000
    r = estimate_outage(s, McConfig(n_samples=n, seed=4))
    xs = np.linspace(0.25, 499.75, 1000)
    zs = np.linspace(100.1, 299.9, 1000)
    xx, zz = np.meshgrid(xs, zs)
    _, val = evaluate_sinr(xx.ravel(), zz.ravel(), s, OracleAssumptions())
    dead_fraction = float((val == 0.0).mean())
    se = math.sqrt(dead_fraction * (1 - dead_fraction) / n)
    assert abs(r.p_out - dead_fraction) <= 4 * se + 1e-3
    # no illumination at all: outage is total for any tau > 0
    s_dark = reference_scenario(1.0, 1.5, tau_db=-110.0)
    assert estimate_outage(s_dark, McConfig(n_samples=50_000, seed=4)).p_out == 1.0


def test_worker_count_cannot_change_result(monkeypatch):
    s = reference_scenario(13, 40)
    cfg = McConfig(n_samples=3 * CHUNK_SAMPLES + 17, seed=7)
    r1 = estimate_outage(s, cfg, workers=1)
    r8 = estimate_outage(s, cfg, workers=8)
    assert r1 == r8
    monkeypatch.setenv("COV_THREADS", "5")
    assert estimate_outage(s, cfg) == r1


def test_same_seed_same_result_distinct_seeds_differ():
    s = reference_scenario(13, 40)
    a = estimate_outage(s, McConfig(n_samples=100_000, seed=5))
    b = estimate_outage(s, McConfig(n_samples=100_000, seed=5))
    c = estimate_outage(s, McConfig(n_samples=100_000, seed=6))
    assert a == b
    assert a.p_out != c.p_out


def test_strongest_dominates_nearest_per_seed():
    s = reference_scenario(10, 40)
    sum_all = dict(interference=InterferenceMode.SUM_ALL)
    for seed in (0, 1, 2):
        ps = estimate_outage(s, McConfig(
            n_samples=100_000, seed=seed,
            assumptions=OracleAssumptions(association=Association.STRONGEST,
                                          **sum_all))).p_out
        pn = estimate_outage(s, McConfig(
            n_samples=100_000, seed=seed,
            assumptions=OracleAssumptions(association=Association.NEAREST,
                                          **sum_all))).p_out
        assert ps <= pn


def test_closed_form_inside_widened_ci():
    # 95% CI widened by the 0.01 model-approximation budget should contain
    # the closed form in at least 17 of 20 disjoint seeds
    s = reference_scenario(13, 40)
    cf = closed_form.outage(s).p_out
    inside = 0
    for seed in range(20):
        r = estimate_outage(s, McConfig(n_samples=100_000, seed=seed))
        inside += (r.ci95[0] - 0.01 <= cf <= r.ci95[1] + 0.01)
    assert inside >= 17


def test_bernoulli_collapses_when_etas_equal():
    # with equal excess losses the per-point SINR ignores the drawn state
    s = reference_scenario(13, 40)
    pl_eq = AirToGroundPathLoss(eta_los_db=5.0, eta_nlos_db=5.0)
    base = OracleAssumptions(pathloss=pl_eq)
    rng = np.random.default_rng(8)
    x = rng.uniform(0, 500, 5000)
    z = rng.uniform(100, 300, 5000)
    u = rng.random((4, 5000))
    _, v_drawn = evaluate_sinr(x, z, s, base, los_uniforms=u)
    _, v_mix = evaluate_sinr(x, z, s, base)
    np.testing.assert_allclose(v_drawn, v_mix, rtol=1e-12)
    # estimator level: the two modes read different stream layouts, so they
    # agree statistically, not bit-for-bit
    n = 100_000
    r_exp = estimate_outage(s, McConfig(n_samples=n, seed=3, assumptions=base,
                                        los_mode=LosMode.EXPECTATION))
    r_ber = estimate_outage(s, McConfig(n_samples=n, seed=3, assumptions=base,
                                        los_mode=LosMode.BERNOULLI))
    se = math.sqrt(2 * r_exp.p_out * (1 - r_exp.p_out) / n)
    assert abs(r_exp.p_out - r_ber.p_out) <= 4 * se


def test_bernoulli_mode_deterministic():
    s = reference_scenario(13, 40)
    a = OracleAssumptions(pathloss=AirToGroundPathLoss())
    cfg = McConfig(n_samples=2 * CHUNK_SAMPLES + 11, seed=12, assumptions=a,
                   los_mode=LosMode.BERNOULLI)
    r1 = estimate_outage(s, cfg, workers=1)
    r4 = estimate_outage(s, cfg, workers=4)
    assert r1 == r4
    assert 0.0 <= r1.p_out <= 1.0
    # per-link draws shift the estimate away from the expectation mixture
    r_exp = estimate_outage(s, McConfig(n_samples=cfg.n_samples, seed=12,
                                        assumptions=a))
    assert r1.p_out != r_exp.p_out


def test_downtilt_accepted_by_mc():
    s = reference_scenario(-6, 40)
    r = estimate_outage(s, McConfig(n_samples=50_000, seed=1))
    assert 0.0 <= r.p_out <= 1.0


def test_config_validation():
    with pytest.raises(ValueError):
        McConfig(n_samples=0)


def test_result_fields():
    r = McResult(p_out=0.25, std_err=0.001, ci95=(0.248, 0.252), n=10, seed=1)
    assert 0 <= r.ci95[0] <= r.p_out <= r.ci95[1] <= 1
