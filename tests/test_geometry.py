import math

import numpy as np
import pytest

from corridorcov.defaults import reference_scenario
from corridorcov.geometry import (
    CaseId,
    CorridorScenario,
    GeometryError,
    GeometryInfeasible,
    TauOutOfRange,
    _border_chord,
    borderline_geometry,
    classify_case,
    crossing_heights,
)

D2R = math.pi / 180.0


def test_crossing_heights_frozen():
    # frozen from the line-intersection oracle:
    # h4 solves x*tan(a+b) == (d1-x)*tan(a)
    ch = crossing_heights(reference_scenario(8, 40))
    assert ch.h3 == pytest.approx(70.270417, abs=1e-4)
    assert ch.h4 == pytest.approx(124.754020, abs=1e-4)
    ch = crossing_heights(reference_scenario(13, 40))
    assert ch.h3 == pytest.approx(115.434096, abs=1e-4)
    assert ch.h4 == pytest.approx(196.655677, abs=1e-4)


def test_crossing_heights_vanish_at_zero_tilt():
    ch = crossing_heights(reference_scenario(1e-7, 40))
    assert ch.h3 == pytest.approx(0.0, abs=1e-5)
    assert ch.h4 == pytest.approx(0.0, abs=1e-5)


def test_crossing_heights_rejects_bad_tilt():
    with pytest.raises(GeometryError):
        crossing_heights(reference_scenario(-2, 40))
    with pytest.raises(GeometryError):
        crossing_heights(reference_scenario(55, 40))


def test_borderline_frozen_values():
    # frozen from bisection on the ratio equations (independent of the
    # closed formulas)
    s = reference_scenario(13, 40)
    b = borderline_geometry(s)
    assert b.d2 == pytest.approx(442.688366, abs=1e-4)
    assert b.d3 == pytest.approx(421.678958, abs=1e-4)
    assert b.d4 == pytest.approx(114.623268, abs=1e-4)
    assert b.d5 == pytest.approx(125.089427, abs=1e-4)
    assert math.degrees(b.gamma1) == pytest.approx(85.994039, abs=1e-4)
    assert math.degrees(b.gamma2) == pytest.approx(88.001921, abs=1e-4)
    assert 0 < b.d4 < b.d2 < 500  # d2 = d1/(sqrt(tau)+1) < d1/2 for tau > 1
    assert b.d3 <= b.d2 and b.d4 <= b.d5
    # the first border's upper endpoint (d3, h2) lies on its inclined line
    assert b.d3 == pytest.approx(b.d2 - s.h2 / math.tan(b.gamma1), rel=1e-9)


def test_borderline_ratio_substitution():
    s = reference_scenario(13, 40)
    b = borderline_geometry(s)
    d1, h2, tau = s.d1, s.h2, s.tau
    assert ((d1 - b.d2) / b.d2) ** 2 == pytest.approx(tau, rel=1e-9)
    assert (((d1 - b.d3) ** 2 + h2 ** 2)
            / (b.d3 ** 2 + h2 ** 2)) == pytest.approx(tau, rel=1e-9)
    assert ((d1 + b.d4) / (d1 - b.d4)) ** 2 == pytest.approx(tau, rel=1e-9)
    assert (((d1 + b.d5) ** 2 + h2 ** 2)
            / ((d1 - b.d5) ** 2 + h2 ** 2)) == pytest.approx(tau, rel=1e-9)


def test_borderline_tau_limits():
    # tau -> 1+ pushes the first border to the midpoint and the second to 0
    b = borderline_geometry(reference_scenario(13, 40, tau_db=1e-9))
    assert b.d2 == pytest.approx(500.0, abs=1e-3)
    assert b.d4 == pytest.approx(0.0, abs=1e-3)
    with pytest.raises(TauOutOfRange):
        borderline_geometry(reference_scenario(13, 40, tau_db=0.0))
    with pytest.raises(TauOutOfRange):
        borderline_geometry(reference_scenario(13, 40, tau_db=-3.0))


def test_borderline_infeasible_above_first_border_height():
    # the first border's discriminant d1^2 tau - (tau - 1)^2 h2^2 turns
    # negative above h2 = d1 sqrt(tau) / (tau - 1); the second one's only
    # at twice that height, so the first check is the one a tall corridor hits
    tau = 10.0 ** 0.5
    h_max = 1000.0 * math.sqrt(tau) / (tau - 1.0)
    below = reference_scenario(13, 40, tau_db=5.0, h2=h_max * (1 - 1e-9))
    b = borderline_geometry(below)
    assert b.d3 < b.d2
    above = reference_scenario(13, 40, tau_db=5.0, h2=h_max * (1 + 1e-9))
    with pytest.raises(GeometryInfeasible, match="x=0 m and x=1000 m"):
        borderline_geometry(above)


@pytest.mark.parametrize("tau_db", [0.5, 2.0, 10.0])
def test_every_pair_chord_lies_on_its_threshold_circle(tau_db):
    # BS-1..BS-4 in distance order from the half corridor; the z = 0
    # crossing lies on the serving BS's side facing [0, d1/2]
    s = reference_scenario(13, 40, tau_db=tau_db)
    bs = (0.0, s.d1, -s.d1, 2.0 * s.d1)
    for i, x_s in enumerate(bs):
        for x_i in bs[i + 1:]:
            x0, x2 = _border_chord(s, x_s, x_i)
            for x, z in ((x0, 0.0), (x2, s.h2)):
                assert ((x - x_i) ** 2 + z ** 2) == pytest.approx(
                    s.tau * ((x - x_s) ** 2 + z ** 2), rel=1e-9)
            assert (x0 > x_s) == (x_s < s.d1 / 2)


def test_borderline_d2_decreases_with_tau():
    taus = [1.2, 1.5, 2.0, 3.0, 5.0]
    d2s = []
    for tau_db in taus:
        b = borderline_geometry(reference_scenario(13, 40, tau_db=tau_db))
        d2s.append(b.d2)
    assert all(b < a for a, b in zip(d2s, d2s[1:]))


def test_crossing_height_monotone_in_alpha():
    h3s = [crossing_heights(reference_scenario(a, 40)).h3
           for a in np.arange(2, 38, 1.0)]
    assert all(b > a for a, b in zip(h3s, h3s[1:]))


@pytest.mark.parametrize("alpha_deg,expected", [
    (8, 2), (13, 3), (17, 4), (25, 5),  # heatmap figure classifications
    (35, 6),                            # h3, h4 both above the corridor top
    (4, 1),
])
def test_classify_reference_cases(alpha_deg, expected):
    assert int(classify_case(reference_scenario(alpha_deg, 40))) == expected


def test_classify_sweep_no_gaps():
    # 0.01-degree sweep: ids non-decreasing, classifier total on the grid
    template = reference_scenario(10, 40)
    prev = 0
    for a in np.arange(0.01, 38.005, 0.01):
        case = int(classify_case(template.replace(alpha=float(a) * D2R)))
        assert case >= prev, f"case dropped {prev}->{case} at alpha={a}"
        prev = case
    assert prev == 6


def test_classify_tie_resolves_low():
    # put h1 exactly on h3: the 2/3 regime boundary resolves to 2
    s = reference_scenario(10, 40)
    alpha = math.atan(2 * s.h1 / s.d1)
    assert int(classify_case(s.replace(alpha=alpha))) == 2


def test_classify_requires_analytic_domain():
    with pytest.raises(TauOutOfRange):
        classify_case(reference_scenario(13, 40, tau_db=0.0))
    with pytest.raises(GeometryError):
        classify_case(reference_scenario(-6, 40))


@pytest.mark.parametrize("fn", [crossing_heights, borderline_geometry],
                         ids=["crossing", "borderline"])
@pytest.mark.parametrize("kwargs, error", [
    (dict(alpha_deg=-2.0), GeometryError),        # downtilt
    (dict(alpha_deg=0.0), GeometryError),         # boresight on the horizon
    (dict(alpha_deg=55.0), GeometryError),        # alpha + beta past vertical
    (dict(alpha_deg=13.0, tau_db=0.0), TauOutOfRange),
], ids=["downtilt", "zero_tilt", "past_vertical", "tau_0db"])
def test_geometry_functions_share_one_precondition(fn, kwargs, error):
    s = reference_scenario(beta_deg=40.0, **kwargs)
    with pytest.raises(error) as expected:
        s.require_analytic()
    with pytest.raises(error) as raised:
        fn(s)
    assert str(raised.value) == str(expected.value)


def test_scenario_validation():
    with pytest.raises(ValueError):
        reference_scenario(13, 40, d1=-1)
    with pytest.raises(ValueError):
        reference_scenario(13, 40, h1=300, h2=100)
    with pytest.raises(ValueError):
        CorridorScenario(d1=1000, h1=100, h2=300, alpha=0.1, beta=0.5, tau=0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["d1", "h1", "h2", "alpha", "beta", "tau"])
def test_scenario_rejects_non_finite_fields(name, value):
    # NaN passes every order test, so it needs its own check
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        reference_scenario(13, 40).replace(**{name: value})
