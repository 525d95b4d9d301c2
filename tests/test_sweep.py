import math

import numpy as np
import pytest

from corridorcov import closed_form
from corridorcov.defaults import ALPHA_GRID_DEG, reference_scenario
from corridorcov.monte_carlo import McConfig
from corridorcov.oracle import BeamKind, OracleAssumptions
from corridorcov.sweep import (
    Evaluator,
    SweepCurve,
    closed_form_evaluator,
    find_optimal_alpha,
    mc_evaluator,
    quadrature_evaluator,
    significant_minima,
    sweep_alpha,
    unimodality_report,
)

D2R = math.pi / 180.0
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


def test_mc_sweep_seed_noise_within_binomial_budget():
    template = reference_scenario(10, 40)
    grid = [a * D2R for a in (8, 13, 18, 25)]
    n = 200_000
    c1 = sweep_alpha(template, grid, mc_evaluator(McConfig(n_samples=n, seed=1)))
    c2 = sweep_alpha(template, grid, mc_evaluator(McConfig(n_samples=n, seed=2)))
    for v1, v2 in zip(c1.p_out, c2.p_out):
        se = math.sqrt(v1 * (1 - v1) / n + v2 * (1 - v2) / n)
        assert abs(v1 - v2) <= 4 * se


def test_quadrature_evaluator_tracks_closed_form():
    template = reference_scenario(10, 40)
    ev = quadrature_evaluator(n_x=256, n_z=256)
    s = template.replace(alpha=13 * D2R)
    assert abs(ev(s) - closed_form.outage(s).p_out) <= 0.02


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
    ev = Evaluator("const", lambda s: 0.25)
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


def test_unimodality_report():
    c = SweepCurve(alphas=[0.1, 0.2, 0.3, 0.4, 0.5],
                   p_out=[5, 3, 2, 3, 5], evaluator="synthetic")
    rep = unimodality_report(c, 1e-3)
    assert rep.passed and rep.minima_indices == (2,)

    c2 = SweepCurve(alphas=[0.1, 0.2, 0.3, 0.4, 0.5],
                    p_out=[5, 2, 4, 1, 5], evaluator="synthetic")
    rep2 = unimodality_report(c2, 1e-3)
    assert not rep2.passed
    assert rep2.minima_indices == (1, 3)

    with pytest.raises(ValueError):
        unimodality_report(SweepCurve([0.1], [1.0], "x"), 1e-3)


def test_unimodality_of_default_closed_form_curve():
    template = reference_scenario(10, 40)
    curve = sweep_alpha(template, GRID, closed_form_evaluator())
    assert unimodality_report(curve, 1e-3).passed
