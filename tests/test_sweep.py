import math

import numpy as np
import pytest

from corridorcov import closed_form
from corridorcov.cli import KEYS
from corridorcov.defaults import reference_scenario
from corridorcov.geometry import classify_case
from corridorcov.monte_carlo import LosMode, McConfig, estimate_outage
from corridorcov.oracle import BeamKind, OracleAssumptions
from corridorcov.propagation import AirToGroundPathLoss
from corridorcov.sweep import (
    Evaluator,
    closed_form_evaluator,
    find_optimal_alpha,
    mc_evaluator,
    quadrature_evaluator,
    significant_minima,
    sweep_alpha,
)

D2R = math.pi / 180.0
# the uptilts of a sweep at the defaults of the sweep.alpha_* keys, degrees
LO, HI, STEP = (KEYS[f"sweep.alpha_{k}_deg"].default
                for k in ("min", "max", "step"))
ALPHA_GRID_DEG = [LO + k * STEP for k in range(round((HI - LO) / STEP) + 1)]
GRID = [a * D2R for a in ALPHA_GRID_DEG]


def test_default_closed_form_sweep():
    template = reference_scenario(10, 40)
    curve = sweep_alpha(template, GRID, closed_form_evaluator())
    assert len(curve.alphas) == 37
    assert all(0.0 <= v <= 1.0 for v in curve.p_out)
    assert curve.errors == {}
    # annotations walk the regimes in order: 2,3,4,5,6 all present
    seen = [c for c in curve.cases if c is not None]
    assert set(seen) >= {2, 3, 4, 5, 6}
    assert seen == sorted(seen)


def test_sweep_case_transition_positions():
    # regime borders derived from the threshold identities:
    # 2->3 where tan(a) = 2 h1/d1, 3->4 where tan(a) = h2/d1
    template = reference_scenario(10, 40)
    curve = sweep_alpha(template, GRID, closed_form_evaluator())
    by_alpha = dict(zip(ALPHA_GRID_DEG, curve.cases))
    t23 = math.degrees(math.atan(2 * 100 / 1000))   # 11.31
    t34 = math.degrees(math.atan(300 / 1000))       # 16.70
    assert by_alpha[11.0] == 2 and by_alpha[12.0] == 3
    assert by_alpha[16.0] == 3 and by_alpha[17.0] == 4
    assert 11.0 < t23 < 12.0 and 16.0 < t34 < 17.0


def test_sweep_grid_must_increase():
    with pytest.raises(ValueError):
        sweep_alpha(reference_scenario(10, 40), [0.3, 0.2],
                    closed_form_evaluator())


def test_sweep_records_gaps():
    # alpha + beta >= pi/2 at the top of this grid: per-point gap, no abort
    template = reference_scenario(10, 40)
    grid = [40 * D2R, 45 * D2R, 55 * D2R]
    curve = sweep_alpha(template, grid, closed_form_evaluator())
    assert math.isnan(curve.p_out[-1])
    assert 2 in curve.errors
    assert curve.cases[0] is not None and curve.cases[-1] is None


@pytest.mark.parametrize("evaluator", [
    closed_form_evaluator(),
    quadrature_evaluator(n_x=64, n_z=64),
    mc_evaluator(McConfig(n_samples=2000, seed=5)),
], ids=lambda ev: ev.tag)
def test_sweep_cases_come_from_the_evaluator(evaluator):
    # the closed form reports the case it evaluated, which is the
    # classifier's; the numeric evaluators report none
    template = reference_scenario(10, 40)
    grid = [a * D2R for a in (4, 8, 13, 17, 25, 35)]
    curve = sweep_alpha(template, grid, evaluator)
    assert curve.errors == {}
    if evaluator.tag == "closed_form":
        expected = [int(classify_case(template.replace(alpha=a))) for a in grid]
        assert expected == [1, 2, 3, 4, 5, 6]
    else:
        expected = [None] * len(grid)
    assert curve.cases == expected


def test_mc_sweep_seed_noise_within_binomial_budget():
    template = reference_scenario(10, 40)
    grid = [a * D2R for a in (8, 13, 18, 25)]
    n = 200_000
    c1 = sweep_alpha(template, grid, mc_evaluator(McConfig(n_samples=n, seed=1)))
    c2 = sweep_alpha(template, grid, mc_evaluator(McConfig(n_samples=n, seed=2)))
    for v1, v2 in zip(c1.p_out, c2.p_out):
        se = math.sqrt(v1 * (1 - v1) / n + v2 * (1 - v2) / n)
        assert abs(v1 - v2) <= 4 * se


def test_mc_sweep_equals_estimate_outage_per_point():
    # the evaluator draws one sample set for the whole sweep; each point
    # equals a streamed estimate of its own, bit for bit
    template = reference_scenario(10, 40)
    grid = [a * D2R for a in (-5, 8, 13, 18, 25)]
    bernoulli = dict(assumptions=OracleAssumptions(pathloss=AirToGroundPathLoss()),
                     los_mode=LosMode.BERNOULLI)
    for cfg in (McConfig(n_samples=70_001, seed=4),
                McConfig(n_samples=70_001, seed=4, **bernoulli)):
        curve = sweep_alpha(template, grid, mc_evaluator(cfg))
        assert curve.p_out == [estimate_outage(template.replace(alpha=a), cfg).p_out
                               for a in grid]


def test_quadrature_evaluator_tracks_closed_form():
    template = reference_scenario(10, 40)
    ev = quadrature_evaluator(n_x=256, n_z=256)
    s = template.replace(alpha=13 * D2R)
    p_out, case = ev.fn(s)
    assert case is None
    assert abs(p_out - closed_form.outage(s).p_out) <= 0.02


def test_cosine_sweep_follows_alpha():
    # the beam is rebuilt at every uptilt, so the cosine curve moves with
    # alpha (it used to stay at the template tilt's value)
    template = reference_scenario(10, 40)
    grid = [a * D2R for a in (4, 12, 20, 28)]
    for a in (OracleAssumptions(beam=BeamKind.COSINE),
              OracleAssumptions(beam=BeamKind.COSINE, n_elements=7)):
        curve = sweep_alpha(template, grid, quadrature_evaluator(a, 128, 128))
        assert curve.errors == {}
        assert len(set(curve.p_out)) == len(grid)


def test_sweeps_are_referentially_transparent():
    template = reference_scenario(10, 40)
    ev = closed_form_evaluator()
    a = sweep_alpha(template, GRID, ev)
    b = sweep_alpha(template, GRID, ev)
    assert a.p_out == b.p_out


def test_golden_section_matches_dense_grid():
    template = reference_scenario(10, 40)
    res = find_optimal_alpha(template, 2 * D2R, 38 * D2R, 0.05 * D2R,
                             closed_form_evaluator())
    dense = np.arange(2.0, 38.0 + 1e-9, 0.01)
    dense_min = min(closed_form.outage(
        template.replace(alpha=float(a) * D2R)).p_out for a in dense)
    assert res.p_out <= dense_min + 1e-3
    assert res.not_unimodal is False
    # frozen: optimum sits near 14.6 degrees for the reference geometry
    assert math.degrees(res.alpha) == pytest.approx(14.64, abs=0.2)


def test_golden_section_constant_objective():
    template = reference_scenario(10, 40)
    ev = Evaluator("const", lambda s: (0.25, None))
    res = find_optimal_alpha(template, 2 * D2R, 38 * D2R, 0.05 * D2R, ev)
    assert res.p_out == 0.25
    assert res.not_unimodal is False
    assert 2 * D2R <= res.alpha <= 38 * D2R


def test_golden_section_input_validation():
    template = reference_scenario(10, 40)
    ev = closed_form_evaluator()
    with pytest.raises(ValueError):
        find_optimal_alpha(template, 0.5, 0.4, 0.01, ev)
    with pytest.raises(ValueError):
        find_optimal_alpha(template, 0.1, 0.5, 0.0, ev)


def test_significant_minima_synthetic():
    v_shape = [5, 4, 3, 2, 3, 4, 5]
    assert significant_minima(v_shape, 1e-3) == [3]
    two_valleys = [5, 2, 4, 1, 5]
    assert significant_minima(two_valleys, 1e-3) == [1, 3]
    monotone_down = [3, 2, 1]
    assert len(significant_minima(monotone_down, 1e-3)) == 1
    constant = [1.0, 1.0, 1.0]
    assert len(significant_minima(constant, 1e-3)) == 1
    # wiggles below the plateau tolerance merge away
    noisy = [3, 2, 2.0004, 1.9996, 2.0003, 3]
    assert len(significant_minima(noisy, 1e-3)) == 1
