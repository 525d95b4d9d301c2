import math

import numpy as np
import pytest

from corridorcov import closed_form
from corridorcov.defaults import ALPHA_GRID_DEG, reference_scenario
from corridorcov.geometry import CaseId, TauOutOfRange, cot

D2R = math.pi / 180.0

# Reference outage values frozen from the quadrature oracle (2001x2001
# midpoints, strongest association, dominant interferer, rectangular beam,
# free-space loss, noise included).
QUAD_P_OUT = {
    (13, 40): 0.328131,
    (8, 40): 0.352320,
    (35, 40): 0.535870,
}


def test_case6_golden_value():
    s = reference_scenario(35, 40)
    r = closed_form.outage(s)
    assert int(r.case) == 6
    # formula value, full precision (printed rounding: p_out = 0.53592)
    assert r.p_out == pytest.approx(0.5359204742756032, abs=1e-9)
    assert r.p_in == pytest.approx(0.4640795257243968, abs=1e-9)
    assert abs(r.p_out - QUAD_P_OUT[(35, 40)]) <= 0.02


def test_case6_full_span_saturates():
    # choose the corridor so (cot a - cot(a+b)) * (h2 + h1) == d1 exactly
    alpha, beta = 20 * D2R, 40 * D2R
    span = cot(alpha) - cot(alpha + beta)
    h1 = 100.0
    d1 = 1000.0
    h2 = d1 / span - h1
    s = reference_scenario(20, 40, d1=d1, h1=h1, h2=h2)
    p_in = closed_form.outage(s, force_case=CaseId.CASE_6).raw_p_in
    assert p_in == pytest.approx(1.0, rel=1e-12)


def test_case3_golden_vs_oracle():
    r = closed_form.outage(reference_scenario(13, 40))
    assert int(r.case) == 3
    assert abs(r.p_out - QUAD_P_OUT[(13, 40)]) <= 0.02
    assert r.p_out == pytest.approx(0.334281, abs=1e-5)  # regression pin


def test_outage_case_classification_embedded():
    r = closed_form.outage(reference_scenario(8, 40))
    assert int(r.case) == 2
    assert abs(r.p_out - QUAD_P_OUT[(8, 40)]) <= 0.02


def test_p_in_plus_p_out_is_one():
    for a in (4, 6, 9, 13, 17, 25, 31, 37):
        r = closed_form.outage(reference_scenario(a, 40))
        assert r.p_in + r.p_out == 1.0
        assert 0.0 <= r.p_out <= 1.0


def test_sweep_probabilities_and_unimodal_shape():
    vals = []
    for a in ALPHA_GRID_DEG:
        r = closed_form.outage(reference_scenario(a, 40))
        assert 0.0 <= r.p_out <= 1.0
        vals.append(r.p_out)
    # single significant valley (paper-style convexity at grid level)
    from corridorcov.sweep import significant_minima
    assert len(significant_minima(vals, 1e-3)) == 1


def test_wider_spacing_lowers_minimum_outage():
    def min_outage(d1):
        return min(closed_form.outage(
            reference_scenario(a, 40, d1=d1)).p_out for a in ALPHA_GRID_DEG)
    assert min_outage(1300.0) < min_outage(1000.0)


def test_continuity_at_case_transitions():
    # classifier transition uptilts for the reference geometry, beta=40
    s = reference_scenario(10, 40)
    transitions_deg = [6.3091, 11.3099, 16.6992, 19.9508, 30.9638]
    for a_b in transitions_deg:
        lo = closed_form.outage(s.replace(alpha=(a_b - 0.01) * D2R)).p_out
        hi = closed_form.outage(s.replace(alpha=(a_b + 0.01) * D2R)).p_out
        assert abs(hi - lo) <= 5e-3, f"jump {abs(hi - lo):.4f} at {a_b} deg"


def test_boundary_clamps_are_flagged():
    # h_c5 pokes above the corridor top inside regime 3
    r16 = closed_form.outage(reference_scenario(16, 40))
    assert int(r16.case) == 3
    assert any(c.startswith("h_c5") for c in r16.clamped)
    # h_c6 above the top inside regime 5
    r30 = closed_form.outage(reference_scenario(30, 40))
    assert int(r30.case) == 5
    assert any(c.startswith("h_c6") for c in r30.clamped)
    # low-uptilt regime with the neighbor beam edge inside the corridor
    r6 = closed_form.outage(reference_scenario(6, 30))
    assert int(r6.case) == 1
    assert "case1_low_edge_regions" in r6.clamped
    # clean interior point carries no clamps
    assert closed_form.outage(reference_scenario(13, 40)).clamped == ()


def test_coverage_positive_when_lobe_hits_corridor():
    for a in (3, 7, 12, 20, 33):
        r = closed_form.outage(reference_scenario(a, 40))
        assert r.p_in > 0.0


def test_forced_case_is_flagged():
    s = reference_scenario(13, 40)
    r = closed_form.outage(s, force_case=CaseId.CASE_6)
    assert r.case_forced and int(r.case) == 6
    assert closed_form.outage(s).case_forced is False


def test_analytic_preconditions_enforced():
    with pytest.raises(TauOutOfRange):
        closed_form.outage(reference_scenario(13, 40, tau_db=0.0))
    with pytest.raises(Exception):
        closed_form.outage(reference_scenario(-6, 40))


def test_all_cases_against_moderate_oracle():
    # one representative uptilt per regime against a 401x401 quadrature
    from corridorcov.oracle import OracleAssumptions, coverage_by_quadrature
    a = OracleAssumptions()
    for alpha, case in [(4, 1), (8, 2), (13, 3), (17, 4), (25, 5), (35, 6)]:
        s = reference_scenario(alpha, 40)
        r = closed_form.outage(s)
        assert int(r.case) == case
        q = 1.0 - coverage_by_quadrature(s, a, 401, 401)
        assert abs(r.p_out - q) <= 0.02, f"alpha={alpha}: {r.p_out} vs {q}"
