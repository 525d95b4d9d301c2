import math

import pytest

from corridorcov import closed_form
from corridorcov.cli import KEYS
from corridorcov.defaults import reference_scenario
from corridorcov.geometry import GeometryInfeasible, TauOutOfRange

from linear_model_reference import linear_model_coverage

D2R = math.pi / 180.0
# the uptilts of a sweep at the defaults of the sweep.alpha_* keys, degrees
LO, HI, STEP = (KEYS[f"sweep.alpha_{k}_deg"].default
                for k in ("min", "max", "step"))
ALPHA_GRID_DEG = [LO + k * STEP for k in range(round((HI - LO) / STEP) + 1)]

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


# p_in frozen from an earlier per-case transcription of the closed form, one
# point per case at beta = 40 deg, tau = 2 dB, where it was exact.
SIX_CASE_P_IN = {
    4: 0.6152219082839436,
    8: 0.6385078647202749,
    13: 0.665718608865348,
    17: 0.6336433833474993,
    25: 0.5856473539919128,
    35: 0.46407952572439676,
}


@pytest.mark.parametrize("alpha_deg", sorted(SIX_CASE_P_IN))
def test_equals_six_case_expressions_where_they_held(alpha_deg):
    r = closed_form.outage(reference_scenario(alpha_deg, 40))
    assert r.p_in == pytest.approx(SIX_CASE_P_IN[alpha_deg], abs=1e-12)


# (beta_deg, tau_db, alpha_deg, corridor) over all six cases, with
# beta <= 20 deg at low uptilt, and a second corridor geometry
WIDE = dict(d1=1300.0, h1=50.0, h2=250.0)
REFERENCE_POINTS = (
    [(40, 2, a, {}) for a in (4, 6, 8, 11, 13, 17, 25, 35)]
    + [(20, 5, a, {}) for a in (2, 8, 14, 20, 30)]
    + [(10, 10, a, {}) for a in (2, 5, 14, 26)]
    + [(10, 0.5, 2, {}), (10, 0.5, 5, {}), (20, 0.5, 5, {})]
    + [(30, 5, a, {}) for a in (5, 11, 20)]
    + [(50, 10, a, {}) for a in (5, 14, 23, 32)]
    + [(30, 3, a, WIDE) for a in (3, 10, 20)])


@pytest.mark.parametrize("beta_deg, tau_db, alpha_deg, corridor",
                         REFERENCE_POINTS)
def test_matches_linear_model_reference(beta_deg, tau_db, alpha_deg,
                                        corridor):
    # a 600 x 600 grid misses the exact area by at most 1.6e-4 here
    s = reference_scenario(alpha_deg, beta_deg, tau_db=tau_db, **corridor)
    assert abs(closed_form.outage(s).p_in
               - linear_model_coverage(s, 600)) <= 3e-4


def test_too_tall_corridor_is_infeasible():
    # the BS-1/BS-2 border exists up to h2 = d1 sqrt(tau) / (tau - 1)
    tau = 10.0 ** 0.5
    h_max = 1000.0 * math.sqrt(tau) / (tau - 1.0)
    closed_form.outage(reference_scenario(13, 40, tau_db=5.0,
                                          h2=h_max * (1 - 1e-9)))
    with pytest.raises(GeometryInfeasible):
        closed_form.outage(reference_scenario(13, 40, tau_db=5.0,
                                              h2=h_max * (1 + 1e-9)))


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


def test_coverage_positive_when_lobe_hits_corridor():
    for a in (3, 7, 12, 20, 33):
        r = closed_form.outage(reference_scenario(a, 40))
        assert r.p_in > 0.0


def test_analytic_preconditions_enforced():
    with pytest.raises(TauOutOfRange):
        closed_form.outage(reference_scenario(13, 40, tau_db=0.0))
    with pytest.raises(Exception):
        closed_form.outage(reference_scenario(-6, 40))


def test_all_cases_against_moderate_oracle():
    # one representative uptilt per regime against a 401x401 quadrature, and
    # the regimes 1-4 at beta = 20 deg, tau = 5 dB
    from corridorcov.oracle import OracleAssumptions, coverage_by_quadrature
    a = OracleAssumptions()
    for alpha, case, beta, tau_db in [
            (4, 1, 40, 2), (8, 2, 40, 2), (13, 3, 40, 2), (17, 4, 40, 2),
            (25, 5, 40, 2), (35, 6, 40, 2),
            (2, 1, 20, 5), (8, 2, 20, 5), (14, 3, 20, 5), (20, 4, 20, 5)]:
        s = reference_scenario(alpha, beta, tau_db=tau_db)
        r = closed_form.outage(s)
        assert int(r.case) == case
        q = 1.0 - coverage_by_quadrature(s, a, 401, 401)
        assert abs(r.p_out - q) <= 0.02, f"alpha={alpha}: {r.p_out} vs {q}"
