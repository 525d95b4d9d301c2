import dataclasses
import math

import numpy as np
import pytest

from stream_reference import outage_of_one_stream
from corridorcov import closed_form, monte_carlo, oracle
from corridorcov.defaults import reference_scenario
from corridorcov.monte_carlo import (
    DRAW_BLOCK,
    HELD_BLOCK,
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
    # blocks of 4097 and 21845 samples start off the multiples of
    # Philox's 4 draws per counter step
    s = reference_scenario(13, 40)
    cfg = McConfig(n_samples=n, seed=seed, **_DRAW_CONFIGS[dps])
    results = []
    for block in (4096, 4097, 21845, 65536):
        monkeypatch.setattr(oracle, "BLOCK_POINTS", block)
        results.append(estimate_outage(s, cfg))
    assert all(r == results[0] for r in results)
    assert results[0].p_out == outage_of_one_stream(s, cfg, dps)


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
# the half corridor (so inside some slabs' x range), the cosine beam,
# nearest association, the sum of the interference, and nine base
# stations (two LoS bytes a sample)
_HELD_MODELS = {
    "fspl": _DRAW_CONFIGS[2],
    "a2g": dict(assumptions=OracleAssumptions(pathloss=AirToGroundPathLoss())),
    "a2g-bernoulli-4": _DRAW_CONFIGS[6],
    "a2g-bernoulli-3": _DRAW_CONFIGS[5],
    "bs-inside": _bernoulli(bs_positions=(-1000.0, 250.0, 1000.0, 2000.0)),
    "cosine": dict(assumptions=OracleAssumptions(
        beam=BeamKind.COSINE, pathloss=AirToGroundPathLoss())),
    "nearest-sum": _bernoulli(association=Association.NEAREST,
                              interference=InterferenceMode.SUM_ALL),
    "sum": _bernoulli(interference=InterferenceMode.SUM_ALL),
    "nine-bs": _bernoulli(bs_positions=tuple(
        1000.0 * i for i in range(-4, 5))),
}
# (alpha, beta) in degrees: downtilt, regular uptilts, and a lobe past 90
# degrees
_HELD_TILTS = [(-5.0, 40.0), (8.0, 40.0), (13.0, 40.0), (25.0, 40.0),
               (60.0, 40.0)]


@pytest.mark.parametrize("model", sorted(_HELD_MODELS))
@pytest.mark.parametrize("n", [1, 7, 8, 9, HELD_BLOCK - 1, HELD_BLOCK,
                               HELD_BLOCK + 1, 200_001])
def test_held_samples_give_the_streamed_result(n, model):
    # one sample set per seed, read at every uptilt (in one slab, or in
    # slabs of unequal size), against the blocks that draw as they go
    for seed in (0, 3, 7):
        cfg = McConfig(n_samples=n, seed=seed, **_HELD_MODELS[model])
        samples = SampleSet()
        for tilt in _HELD_TILTS:
            s = reference_scenario(*tilt)
            assert (estimate_outage(s, cfg, samples=samples)
                    == estimate_outage(s, cfg))


@pytest.mark.parametrize("model", ["a2g-bernoulli-4", "bs-inside", "nine-bs"])
@pytest.mark.parametrize("block", [1, 2, 5])
@pytest.mark.parametrize("n", [1, 2, 3, 40])
def test_held_slabs_may_be_empty(monkeypatch, n, block, model):
    # with held blocks of a few samples there are as many slabs as blocks,
    # and some of them are empty
    monkeypatch.setattr(monte_carlo, "HELD_BLOCK", block)
    cfg = McConfig(n_samples=n, seed=5, **_HELD_MODELS[model])
    samples = SampleSet()
    for tilt in _HELD_TILTS:
        s = reference_scenario(*tilt)
        assert (estimate_outage(s, cfg, samples=samples)
                == estimate_outage(s, cfg))
    sizes = np.diff(samples._starts)
    assert sizes.size == -(-n // block) and sizes.sum() == n
    if n == 40 and block == 1:
        assert 0 in sizes and sizes.max() > 1


@pytest.mark.parametrize("draw_block", [1000, DRAW_BLOCK, 4 * HELD_BLOCK])
@pytest.mark.parametrize("model", ["fspl", "a2g-bernoulli-4", "nine-bs"])
def test_held_set_is_the_drawn_samples_in_x_slabs_sorted_by_z(
        monkeypatch, model, draw_block):
    # every drawn sample is held once, with its own LoS states; slab j
    # holds the samples whose x draw u has floor(u * K) = j, sorted by z,
    # whether a draw block holds part of a slab, or all of them
    monkeypatch.setattr(monte_carlo, "DRAW_BLOCK", draw_block)
    n = 3 * HELD_BLOCK + 17
    cfg = McConfig(n_samples=n, seed=2, **_HELD_MODELS[model])
    s = reference_scenario(13.0, 40.0)
    positions = cfg.assumptions.resolve_positions(s)
    dps = monte_carlo._draws_per_sample(cfg, positions)
    samples = SampleSet()
    samples._draw(s, cfg, dps, positions)
    k = -(-n // HELD_BLOCK)
    u = np.random.Generator(np.random.Philox(key=cfg.seed)).random((n, dps))
    x, z, los = monte_carlo._samples(s, cfg, u, _Workspace(), positions)
    starts = samples._starts
    assert starts[0] == 0 and starts[-1] == n and starts.size == k + 1
    slab = np.minimum(np.floor(u[:, 0] * k), k - 1)
    for j, (lo, hi) in enumerate(zip(starts[:-1], starts[1:])):
        mine = slab == j
        order = np.argsort(z[mine], kind="stable")
        assert hi - lo == np.count_nonzero(mine)
        assert np.array_equal(samples._z[lo:hi], z[mine][order])
        assert np.array_equal(samples._x[lo:hi], x[mine][order])
        if los is None:
            assert samples._los is None
        else:
            assert np.array_equal(samples._los[:, lo:hi],
                                  los[:, mine][:, order])


def test_a_changed_sample_key_draws_anew(monkeypatch):
    # the uptilt, beamwidth, threshold and reduction leave the samples as
    # they are; the corridor, the seed, the sample count, the BS positions
    # and the LoS model each draw them again, and give the streamed result.
    # A held draw reads every block twice: once to size the slabs, once
    # to fill them.
    draws = []
    real = monte_carlo._uniforms

    def counting(m, dps, lo, hi, w):
        draws.append(lo)
        return real(m, dps, lo, hi, w)

    monkeypatch.setattr(monte_carlo, "_uniforms", counting)
    s = reference_scenario(13, 40)
    a = _DRAW_CONFIGS[6]["assumptions"]
    cfg = McConfig(n_samples=HELD_BLOCK + 5, seed=3, **_DRAW_CONFIGS[6])
    samples = SampleSet()

    def held_draws(s, cfg):
        before = len(draws)
        r = estimate_outage(s, cfg, samples=samples)
        held = draws[before:]
        assert r == estimate_outage(s, cfg)
        return held

    twice = list(range(0, HELD_BLOCK + 5, DRAW_BLOCK)) * 2
    assert held_draws(s, cfg) == twice
    same = [(reference_scenario(8, 40), cfg),
            (reference_scenario(13, 30, tau_db=5.0), cfg),
            (s, dataclasses.replace(cfg, assumptions=dataclasses.replace(
                a, interference=InterferenceMode.SUM_ALL,
                association=Association.NEAREST)))]
    for s_same, cfg_same in same:
        assert held_draws(s_same, cfg_same) == []
    changed = [(s.replace(h2=280.0), cfg),
               (s, dataclasses.replace(cfg, seed=4)),
               (s, dataclasses.replace(cfg, n_samples=HELD_BLOCK + 6)),
               (s, dataclasses.replace(cfg, assumptions=dataclasses.replace(
                   a, bs_positions=(-1000.0, 0.0, 900.0, 2000.0)))),
               (s, dataclasses.replace(cfg, assumptions=dataclasses.replace(
                   a, pathloss=AirToGroundPathLoss(a=5.0))))]
    for s_new, cfg_new in changed:
        # each differs from (s, cfg) in one key field only
        assert held_draws(s_new, cfg_new) == twice
        assert held_draws(s, cfg) == twice


@pytest.mark.parametrize("k", [1, 3, 65535, 65536, 70001])
def test_slab_index_is_the_floor_of_u_times_k(k):
    # 16-bit indices below 2**16 slabs, machine integers from there on;
    # the largest draw below 1 stays in the last slab
    u = np.array([0.0, 0.25, 0.5, 0.999999, 1.0 - 2.0 ** -53])
    got = monte_carlo._slab_index(u, k, _Workspace())
    assert got.dtype == (np.uint16 if k < 1 << 16 else np.intp)
    assert np.array_equal(got, np.minimum(np.floor(u * k), k - 1))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_z_order_is_the_stable_sort_of_positive_heights(seed):
    # heights over many binades, equal heights, the least subnormal and
    # zero, in any order: the radix sort of their bits is the stable sort
    rng = np.random.default_rng(seed)
    z = np.concatenate([rng.random(3000) * 300.0 + 1e-3,
                        np.exp(rng.uniform(-700.0, 700.0, 3000)),
                        np.full(50, 150.0), np.full(5, 5e-324), [0.0],
                        np.repeat(rng.random(40) * 100.0, 3)])
    rng.shuffle(z)
    assert np.array_equal(monte_carlo._z_order(z),
                          np.argsort(z, kind="stable"))
