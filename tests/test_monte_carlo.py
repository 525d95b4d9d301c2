import dataclasses
import json
import math

import numpy as np
import pytest

from stream_reference import outage_of_one_stream
from corridorcov import cli, closed_form, monte_carlo, oracle
from corridorcov.defaults import reference_scenario
from corridorcov.monte_carlo import (
    DRAW_BLOCK,
    LosMode,
    McConfig,
    McResult,
    SampleSet,
    estimate_outage,
    los_states,
)
from corridorcov.oracle import (
    BLOCK_POINTS,
    Association,
    BeamKind,
    OracleAssumptions,
    coverage_by_quadrature,
    evaluate_sinr,
)
from corridorcov.propagation import (
    AirToGroundPathLoss,
    InterferenceMode,
    LinkBudget,
    RectangularBeam,
    _Workspace,
)

# draws per sample: x, z and, in Bernoulli mode, one LoS draw per BS
_DRAW_CONFIGS = {
    2: dict(),
    6: dict(assumptions=OracleAssumptions(pathloss=AirToGroundPathLoss()),
            los_mode=LosMode.BERNOULLI),
    5: dict(assumptions=OracleAssumptions(pathloss=AirToGroundPathLoss(),
                                          bs_positions=(-1000.0, 0.0, 1000.0)),
            los_mode=LosMode.BERNOULLI),
}


@pytest.mark.parametrize("dps", [2, 6])
def test_draw_order_is_one_philox_stream(dps):
    # n crosses a block boundary
    s = reference_scenario(13, 40)
    cfg = McConfig(n_samples=BLOCK_POINTS + 3, seed=9, **_DRAW_CONFIGS[dps])
    assert estimate_outage(s, cfg).p_out == outage_of_one_stream(s, cfg, dps)


@pytest.mark.parametrize("n", [1, 3, BLOCK_POINTS - 1, BLOCK_POINTS,
                               BLOCK_POINTS + 1])
def test_block_edges_read_one_stream(n):
    # a last block of 1 or BLOCK_POINTS - 1 rows, one exactly full block,
    # and fewer samples than one block (the buffer is sized to n)
    s = reference_scenario(13, 40)
    cfg = McConfig(n_samples=n, seed=3, **_DRAW_CONFIGS[6])
    r = estimate_outage(s, cfg)
    assert r.n == n
    assert r.p_out == outage_of_one_stream(s, cfg, 6)


def test_estimate_matches_closed_form():
    s = reference_scenario(13, 40)
    r = estimate_outage(s, McConfig(n_samples=1_000_000, seed=2))
    cf = closed_form.outage(s).p_out
    assert abs(r.p_out - cf) <= max(0.02, 4 * r.std_err)
    assert r.ci95[0] <= r.p_out <= r.ci95[1]
    assert r.std_err == pytest.approx(
        math.sqrt(r.p_out * (1 - r.p_out) / r.n), rel=1e-12)


def test_ci_has_width_when_no_or_every_sample_is_an_outage():
    # the Wilson score interval: a lobe above 90 degrees lights nothing, so
    # all 1000 samples are outages, and the interval is about [0.9962, 1]
    # where p +- 1.96 std_err is [1, 1]
    r = estimate_outage(reference_scenario(95, 40), McConfig(n_samples=1000))
    assert (r.p_out, r.std_err) == (1.0, 0.0)
    assert r.ci95[1] == 1.0
    assert r.ci95[0] == pytest.approx(0.996173, abs=1e-6)
    lo, hi = monte_carlo._wilson(0.0, 1000)
    assert lo == 0.0 and hi == pytest.approx(1.0 - r.ci95[0], rel=1e-9)
    # away from 0 and 1 it is close to p +- 1.96 std_err
    lo, hi = monte_carlo._wilson(0.3, 100_000)
    half = 1.96 * math.sqrt(0.3 * 0.7 / 100_000)
    assert lo == pytest.approx(0.3 - half, abs=2e-5)
    assert hi == pytest.approx(0.3 + half, abs=2e-5)


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


def test_a_reused_workspace_cannot_change_result():
    # one workspace through a quadrature and every draw layout, as the
    # validate command and the sweep evaluators reuse theirs
    s = reference_scenario(13, 40)
    work = _Workspace()
    a = OracleAssumptions()
    assert (coverage_by_quadrature(s, a, 301, 257, work=work)
            == coverage_by_quadrature(s, a, 301, 257))
    for dps in (6, 2, 5):
        cfg = McConfig(n_samples=70_001, seed=7, **_DRAW_CONFIGS[dps])
        assert estimate_outage(s, cfg, work=work) == estimate_outage(s, cfg)
    assert (coverage_by_quadrature(s, a, 301, 257, work=work)
            == coverage_by_quadrature(s, a, 301, 257))


def test_free_space_draws_no_los_uniforms():
    # free-space loss has no LoS state, so Bernoulli mode reads the same
    # two draws per sample as expectation mode and estimates the same
    s = reference_scenario(13, 40)
    results = [estimate_outage(s, McConfig(n_samples=100_000, seed=0, los_mode=mode))
               for mode in (LosMode.BERNOULLI, LosMode.EXPECTATION)]
    assert results[0] == results[1]


@pytest.mark.parametrize("dps", sorted(_DRAW_CONFIGS))
@pytest.mark.parametrize("seed", [0, 3, 7])
@pytest.mark.parametrize("n", [1, 3, 65537, 200001])
def test_block_size_cannot_change_result(monkeypatch, n, seed, dps):
    # blocks of 4097 and 21845 samples start off the multiples of Philox's
    # 4 draws per counter step; the streamed sampler takes its block size
    # from oracle at each call, so each size runs its own number of blocks
    s = reference_scenario(13, 40)
    cfg = McConfig(n_samples=n, seed=seed, **_DRAW_CONFIGS[dps])
    real = monte_carlo.evaluate_sinr
    calls = []

    def counting(*args, **kwargs):
        calls[-1] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(monte_carlo, "evaluate_sinr", counting)
    results = []
    blocks = (4096, 4097, 21845, 65536)
    for block in blocks:
        monkeypatch.setattr(oracle, "BLOCK_POINTS", block)
        calls.append(0)
        results.append(estimate_outage(s, cfg))
    assert calls == [-(-n // block) for block in blocks]
    assert all(r == results[0] for r in results)
    assert results[0].p_out == outage_of_one_stream(s, cfg, dps)


@pytest.mark.parametrize("dps", [2, 6])
def test_each_pass_reads_one_generator(monkeypatch, dps):
    # a streamed call reads one Philox stream in sample order, and so does
    # a held draw, however many blocks each takes
    opened = []
    real = np.random.Philox

    def counting(*args, **kwargs):
        opened.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting)
    s = reference_scenario(13, 40)
    cfg = McConfig(n_samples=2 * BLOCK_POINTS + 7, seed=5,
                   **_DRAW_CONFIGS[dps])
    streamed = estimate_outage(s, cfg)
    assert opened == [dict(key=5)]
    opened.clear()
    assert estimate_outage(s, cfg, samples=SampleSet()) == streamed
    assert opened == [dict(key=5)]


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
    los = los_states(x, z, base.resolve_positions(s), pl_eq,
                     rng.random((4, 5000)))
    _, v_drawn = evaluate_sinr(x, z, s, base, los_states=los)
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
    cfg = McConfig(n_samples=2 * BLOCK_POINTS + 11, seed=12, assumptions=a,
                   los_mode=LosMode.BERNOULLI)
    r1 = estimate_outage(s, cfg)
    assert estimate_outage(s, cfg) == r1
    assert 0.0 <= r1.p_out <= 1.0
    # per-link draws shift the estimate away from the expectation mixture
    r_exp = estimate_outage(s, McConfig(n_samples=cfg.n_samples, seed=12,
                                        assumptions=a))
    assert r1.p_out != r_exp.p_out


@pytest.mark.parametrize("positions,outages", [
    (None, 31715),
    # two LoS bytes a sample
    (tuple(1000.0 * i for i in range(-4, 5)), 31994),
])
def test_streamed_bernoulli_outages_are_pinned(positions, outages):
    # streamed blocks draw the LoS states as they go; the counts were
    # recorded before the states became bytes
    s = reference_scenario(13, 40)
    a = OracleAssumptions(pathloss=AirToGroundPathLoss(),
                          interference=InterferenceMode.SUM_ALL,
                          bs_positions=positions)
    n = 100_003
    r = estimate_outage(s, McConfig(n_samples=n, seed=7, assumptions=a,
                                    los_mode=LosMode.BERNOULLI))
    assert r.p_out == outages / n


def test_los_states_hold_one_bit_per_link():
    # nine BSs: BS i in bit i % 8 of byte i // 8, and the second byte's
    # bits past BS 8 are 0
    s = reference_scenario(13, 40)
    pathloss = AirToGroundPathLoss()
    positions = tuple(1000.0 * i for i in range(-4, 5))
    rng = np.random.default_rng(21)
    x = rng.uniform(-500.0, 1500.0, 3000)
    z = rng.uniform(s.h1, s.h2, 3000)
    u = rng.random((9, 3000))
    los = los_states(x, z, positions, pathloss, u)
    assert los.shape == (2, 3000) and los.dtype == np.uint8
    for i, pos in enumerate(positions):
        want = u[i] < pathloss.p_los(np.abs(x - pos), z)
        assert np.array_equal((los[i // 8] >> (i % 8)) & 1, want)
    assert not np.any(los[1] & 0b11111110)
    assert 0 < np.count_nonzero(los[1]) < 3000


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


def _bernoulli(**kw):
    return dict(assumptions=OracleAssumptions(pathloss=AirToGroundPathLoss(),
                                              **kw),
                los_mode=LosMode.BERNOULLI)


# the held-path matrix: free space, air-to-ground in expectation mode, and
# Bernoulli LoS draws with four and with three base stations; a BS inside
# the half corridor (so inside the samples' x range), the cosine beam,
# nearest association with either interference, Bernoulli draws with
# noise off, the sum of the interference, two base stations, and nine
# (two LoS bytes a sample). The rectangular-beam models with at most four
# base stations are read from the held set's lit-set table; the cosine
# beam and nine base stations go through the kernel. The streamed runs of
# the models with two draws a sample and STRONGEST association settle most
# samples from their box map: free space with noise on and off, with a BS
# inside the corridor, and expectation-mode air-to-ground with either
# interference.
_HELD_MODELS = {
    "fspl": _DRAW_CONFIGS[2],
    "fspl-quiet": dict(assumptions=OracleAssumptions(include_noise=False)),
    "fspl-bs-inside": dict(assumptions=OracleAssumptions(
        bs_positions=(-1000.0, 250.0, 1000.0, 2000.0))),
    "a2g": dict(assumptions=OracleAssumptions(pathloss=AirToGroundPathLoss())),
    "a2g-sum": dict(assumptions=OracleAssumptions(
        pathloss=AirToGroundPathLoss(),
        interference=InterferenceMode.SUM_ALL)),
    "a2g-bernoulli-4": _DRAW_CONFIGS[6],
    "a2g-bernoulli-3": _DRAW_CONFIGS[5],
    "bs-inside": _bernoulli(bs_positions=(-1000.0, 250.0, 1000.0, 2000.0)),
    "cosine": dict(assumptions=OracleAssumptions(
        beam=BeamKind.COSINE, pathloss=AirToGroundPathLoss())),
    "nearest": _bernoulli(association=Association.NEAREST),
    "nearest-sum": _bernoulli(association=Association.NEAREST,
                              interference=InterferenceMode.SUM_ALL),
    "bernoulli-quiet": _bernoulli(include_noise=False),
    "sum": _bernoulli(interference=InterferenceMode.SUM_ALL),
    "two-bs": _bernoulli(bs_positions=(0.0, 1000.0)),
    "nine-bs": _bernoulli(bs_positions=tuple(
        1000.0 * i for i in range(-4, 5))),
}
# (alpha, beta) in degrees: downtilt, regular uptilts, and a lobe past 90
# degrees
_HELD_TILTS = [(-5.0, 40.0), (8.0, 40.0), (13.0, 40.0), (25.0, 40.0),
               (60.0, 40.0)]


@pytest.mark.parametrize("model", sorted(_HELD_MODELS))
@pytest.mark.parametrize("n", [1, 7, 8, 9, DRAW_BLOCK - 1, DRAW_BLOCK,
                               DRAW_BLOCK + 1, BLOCK_POINTS - 1, BLOCK_POINTS,
                               BLOCK_POINTS + 1, 200_001])
def test_held_samples_give_the_streamed_result(n, model):
    # one sample set per seed, read at every uptilt (in one block, or in
    # blocks of which the last is short), against the blocks that draw as
    # they go; held samples are never mapped
    for seed in (0, 3, 7):
        cfg = McConfig(n_samples=n, seed=seed, **_HELD_MODELS[model])
        samples = SampleSet()
        for tilt in _HELD_TILTS:
            s = reference_scenario(*tilt)
            held = estimate_outage(s, cfg, samples=samples)
            assert held == estimate_outage(s, cfg)
            assert held.evaluated == n


def _counting(monkeypatch, module, name):
    """Count the calls of `module.name` in the returned list."""
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("model", sorted(_HELD_MODELS))
def test_a_table_is_built_once_and_read_at_every_uptilt(monkeypatch, model):
    # a rectangular-beam set of at most four BSs builds its lit-set table
    # once, at its first uptilt, and calls the kernel at no uptilt; the
    # cosine beam and nine BSs call it for every held block at every
    # uptilt
    builds = _counting(monkeypatch, oracle, "_lit_set_table")
    kernel = _counting(monkeypatch, monte_carlo, "evaluate_sinr")
    cfg = McConfig(n_samples=2 * BLOCK_POINTS + 5, seed=1,
                   **_HELD_MODELS[model])
    samples = SampleSet()
    for tilt in _HELD_TILTS:
        estimate_outage(reference_scenario(*tilt), cfg, samples=samples)
    if model in ("cosine", "nine-bs"):
        assert (len(builds), len(kernel)) == (0, 3 * len(_HELD_TILTS))
    else:
        assert (len(builds), len(kernel)) == (1, 0)


@pytest.mark.parametrize("model", ["a2g-bernoulli-4", "nearest", "fspl"])
def test_a_table_follows_the_decision_it_was_built_for(model):
    # one set read at two thresholds, with noise toggled, at another peak
    # gain, association and interference: each read gives the streamed
    # result, which a table kept from an earlier read would not
    cfg = McConfig(n_samples=2 * DRAW_BLOCK + 9, seed=4,
                   **_HELD_MODELS[model])
    a = cfg.assumptions
    changes = [dict(), dict(tau_db=5.0),
               dict(include_noise=not a.include_noise), dict(tau_db=5.0),
               dict(peak_gain_db=10.0),
               dict(association=Association.NEAREST
                    if a.association is Association.STRONGEST
                    else Association.STRONGEST),
               dict(interference=InterferenceMode.SUM_ALL), dict()]
    samples = SampleSet()
    values = set()
    for change in changes:
        tau = dict(tau_db=change.pop("tau_db")) if "tau_db" in change else {}
        m = dataclasses.replace(cfg, assumptions=dataclasses.replace(
            a, **change))
        for tilt in [(8.0, 40.0), (25.0, 40.0)]:
            s = reference_scenario(*tilt, **tau)
            held = estimate_outage(s, m, samples=samples)
            assert held == estimate_outage(s, m)
            values.add(held.p_out)
    assert len(values) > 8


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_failed_table_build_leaves_no_table():
    # powers past the float range raise the kernel's error at every uptilt
    # and leave no table; the same set then serves a budget that fits
    s = reference_scenario(13.0, 40.0)
    cfg = McConfig(n_samples=1000, **_DRAW_CONFIGS[6])
    samples = SampleSet()
    loud = dataclasses.replace(s, radio=LinkBudget(p_tx_dbm=3110.0))
    for alpha in (8.0, 13.0):
        with pytest.raises(ValueError, match="received power"):
            estimate_outage(loud.replace(alpha=math.radians(alpha)), cfg,
                            samples=samples)
        assert samples._table is None
    assert (estimate_outage(s, cfg, samples=samples)
            == estimate_outage(s, cfg))


@pytest.mark.parametrize("model", ["a2g-bernoulli-4", "bs-inside", "nine-bs"])
@pytest.mark.parametrize("block", [1, 2, 5])
@pytest.mark.parametrize("n", [1, 2, 3, 40])
def test_held_blocks_may_be_short(monkeypatch, n, block, model):
    # with blocks of a few samples the last held block is short: the
    # lit sets, or the kernel, see every block once at each uptilt
    monkeypatch.setattr(oracle, "BLOCK_POINTS", block)
    kernel = _counting(monkeypatch, monte_carlo, "evaluate_sinr")
    sizes = []
    real = oracle._lit_sets

    def counting(*args):
        for part, lit in real(*args):
            sizes.append(lit.size)
            yield part, lit
    monkeypatch.setattr(oracle, "_lit_sets", counting)
    cfg = McConfig(n_samples=n, seed=5, **_HELD_MODELS[model])
    samples = SampleSet()
    blocks = [min(block, n - lo) for lo in range(0, n, block)]
    for tilt in _HELD_TILTS:
        s = reference_scenario(*tilt)
        kernel.clear()
        sizes.clear()
        held = estimate_outage(s, cfg, samples=samples)
        if model == "nine-bs":
            assert (len(kernel), sizes) == (len(blocks), [])
        else:
            assert (len(kernel), sizes) == (0, blocks)
        assert held == estimate_outage(s, cfg)


@pytest.mark.parametrize("draw_block", [1000, DRAW_BLOCK, 4 * DRAW_BLOCK])
@pytest.mark.parametrize("model", ["fspl", "a2g-bernoulli-4", "nine-bs"])
def test_held_set_is_the_drawn_samples_in_stream_order(
        monkeypatch, model, draw_block):
    # every drawn sample is held at its place in the stream, with its own
    # LoS states, whether a draw block holds part of the set or all of it;
    # the set's extent is its least and greatest x and z
    monkeypatch.setattr(monte_carlo, "DRAW_BLOCK", draw_block)
    n = 3 * DRAW_BLOCK + 17
    cfg = McConfig(n_samples=n, seed=2, **_HELD_MODELS[model])
    s = reference_scenario(13.0, 40.0)
    positions = cfg.assumptions.resolve_positions(s)
    dps = monte_carlo._draws_per_sample(cfg, positions)
    samples = SampleSet()
    samples._draw(s, cfg, dps, positions)
    u = np.random.Generator(np.random.Philox(key=cfg.seed)).random((n, dps))
    x, z, los = monte_carlo._samples(s, cfg, u, _Workspace(), positions)
    assert np.array_equal(samples._x, x)
    assert np.array_equal(samples._z, z)
    if los is None:
        assert samples._los is None
    else:
        assert np.array_equal(samples._los, los)
    assert samples._extent == (x.min(), x.max(), z.min(), z.max())


def test_a_changed_sample_key_draws_anew(monkeypatch):
    # the uptilt, beamwidth, threshold and reduction leave the samples as
    # they are; the corridor, the seed, the sample count, the BS positions
    # and the LoS model each draw them again, and give the streamed result.
    # A held draw reads every block once.
    draws = []
    real = monte_carlo._draws

    def counting(m, dps, size, w):
        lo = 0
        for u in real(m, dps, size, w):
            draws.append(lo)
            lo += len(u)
            yield u

    monkeypatch.setattr(monte_carlo, "_draws", counting)
    s = reference_scenario(13, 40)
    a = _DRAW_CONFIGS[6]["assumptions"]
    cfg = McConfig(n_samples=2 * DRAW_BLOCK + 5, seed=3, **_DRAW_CONFIGS[6])
    samples = SampleSet()

    def held_draws(s, cfg):
        before = len(draws)
        r = estimate_outage(s, cfg, samples=samples)
        held = draws[before:]
        assert r == estimate_outage(s, cfg)
        return held

    once = list(range(0, cfg.n_samples, DRAW_BLOCK))
    assert held_draws(s, cfg) == once
    same = [(reference_scenario(8, 40), cfg),
            (reference_scenario(13, 30, tau_db=5.0), cfg),
            (s, dataclasses.replace(cfg, assumptions=dataclasses.replace(
                a, interference=InterferenceMode.SUM_ALL,
                association=Association.NEAREST)))]
    for s_same, cfg_same in same:
        assert held_draws(s_same, cfg_same) == []
    changed = [(s.replace(h2=280.0), cfg),
               (s, dataclasses.replace(cfg, seed=4)),
               (s, dataclasses.replace(cfg, n_samples=2 * DRAW_BLOCK + 6)),
               (s, dataclasses.replace(cfg, assumptions=dataclasses.replace(
                   a, bs_positions=(-1000.0, 0.0, 900.0, 2000.0)))),
               (s, dataclasses.replace(cfg, assumptions=dataclasses.replace(
                   a, pathloss=AirToGroundPathLoss(a=5.0))))]
    for s_new, cfg_new in changed:
        # each differs from (s, cfg) in one key field only
        assert held_draws(s_new, cfg_new) == once
        assert held_draws(s, cfg) == once


@pytest.mark.parametrize("model", ["fspl", "a2g-bernoulli-4", "nearest"])
@pytest.mark.parametrize("tilt,corridor,tested", [
    # at 60 degrees only the BS at 0 can light a sample of the half
    # corridor; in a corridor 1 m thin at 13 degrees the BS at d1 lights
    # every sample, the one at 2 d1 none, and the other two some
    ((60.0, 40.0), dict(), [0.0]),
    ((13.0, 40.0), dict(h1=240.0, h2=241.0), [-1000.0, 0.0]),
])
def test_lit_sets_test_only_the_bss_that_light_some_samples(
        monkeypatch, model, tilt, corridor, tested):
    # a BS that lights every sample of the set, or none, takes its bit
    # with no lobe test; the table then gives the kernel's result
    monkeypatch.setattr(oracle, "BLOCK_POINTS", 2048)
    marked = []
    mark = RectangularBeam._mark

    def counting(self, h, z, out, value, *args):
        marked.append(int(value))
        return mark(self, h, z, out, value, *args)
    s = reference_scenario(*tilt, **corridor)
    cfg = McConfig(n_samples=5000, seed=6, **_HELD_MODELS[model])
    positions = cfg.assumptions.resolve_positions(s)
    with monkeypatch.context() as m:
        m.setattr(RectangularBeam, "_mark", counting)
        held = estimate_outage(s, cfg, samples=SampleSet())
    bits = [1 << positions.index(pos) for pos in tested]
    assert marked == bits * 3
    assert held == estimate_outage(s, cfg)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("z,match", [
    ([150.0, 0.0, 200.0], "positive distance"),
    ([150.0, 1e200, 200.0], "finite loss")])
def test_a_table_checks_every_height_of_the_set(z, match):
    # a held set in stream order holds its least and greatest heights
    # anywhere: here a sample on BS-1, and one whose loss overflows, in
    # the middle of the set
    s = reference_scenario(13.0, 40.0)
    a = OracleAssumptions()
    with pytest.raises(ValueError, match=match):
        oracle._lit_set_table(np.array([250.0, 0.0, 400.0]), np.array(z),
                              None, s, a, a.resolve_beam(s),
                              a.resolve_positions(s), np.empty(3, np.uint16),
                              _Workspace(), 2)


@pytest.mark.parametrize("scenario", [dict(), dict(d1=1234.567, h1=33.3,
                                                   h2=301.7)])
def test_a_sample_lies_inside_its_box(scenario):
    # uniforms on every box edge j / _BOXES, just below each edge, and the
    # largest draw below 1: each sample's box, read from its uniforms, is
    # (floor(u_x * _BOXES), floor(u_z * _BOXES)), and the sample formed
    # from them lies between that box's edges
    boxes = monte_carlo._BOXES
    j = np.arange(boxes) / boxes
    edges = np.concatenate([j, np.nextafter(j[1:], 0.0), [1.0 - 2.0 ** -53]])
    u_x, u_z = (g.ravel() for g in np.meshgrid(edges, edges[::-1]))
    u = np.stack([u_x, u_z], axis=1)
    s = reference_scenario(13.0, 40.0, **scenario)
    cfg = McConfig()
    positions = cfg.assumptions.resolve_positions(s)
    w = _Workspace()
    box = monte_carlo._box_index(u, w).astype(np.intp)
    col, row = np.divmod(box, boxes)
    assert np.array_equal(col, np.floor(u_x * boxes))
    assert np.array_equal(row, np.floor(u_z * boxes))
    x, z, _ = monte_carlo._samples(s, cfg, u, w, positions)
    x_lo, x_hi, z_lo, z_hi = monte_carlo._box_edges(s, cfg, positions)
    assert np.all((x_lo[col] <= x) & (x <= x_hi[col]))
    assert np.all((z_lo[row] <= z) & (z <= z_hi[row]))


def test_the_box_map_leaves_few_of_validates_samples_to_the_kernel(tmp_path):
    # at validate's defaults at most 5% of the samples fall in open boxes;
    # the artifact records how many the kernel evaluated
    out = tmp_path / "validate.json"
    assert cli.main(["--beta-deg", "40", "--samples", "200000", "validate",
                     "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert rows
    for row in rows:
        assert 0 < row["mc_evaluated"] <= 0.05 * 200_000


@pytest.mark.parametrize("config", [
    dict(assumptions=OracleAssumptions(association=Association.NEAREST)),
    dict(assumptions=OracleAssumptions(beam=BeamKind.COSINE)),
    _DRAW_CONFIGS[6]])
def test_unmapped_runs_evaluate_every_sample(config):
    # nearest association, the cosine beam, whose boxes never settle, and
    # Bernoulli LoS states are evaluated sample by sample
    n = BLOCK_POINTS + 3
    s = reference_scenario(13.0, 40.0)
    assert estimate_outage(s, McConfig(n_samples=n, **config)).evaluated == n


def test_boxes_that_no_bs_lights_are_outages_with_noise_off():
    # with noise off, a box whose every BS's upper power bound is 0 has
    # SINR 0/0, which the kernel reads as 0: an outage, not an open box. At
    # a lobe of 55 to 95 degrees most boxes are lit by no BS.
    n = 70_001
    s = reference_scenario(55.0, 40.0)
    cfg = McConfig(n_samples=n, assumptions=OracleAssumptions(
        include_noise=False))
    streamed = estimate_outage(s, cfg)
    assert streamed.evaluated < 0.05 * n
    assert streamed == estimate_outage(s, cfg, samples=SampleSet())
    assert 0.0 < streamed.p_out < 1.0
