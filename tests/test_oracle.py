import itertools
import math
import platform
import sys

import numpy as np
import pytest

from corridorcov import cli, heatmap, monte_carlo, oracle
from corridorcov.defaults import reference_scenario
from corridorcov.geometry import borderline_geometry
from corridorcov.monte_carlo import McConfig, estimate_outage
from corridorcov.oracle import (
    Association,
    BeamKind,
    OracleAssumptions,
    coverage_by_quadrature,
    evaluate_sinr,
)
from corridorcov.sweep import find_optimal_alpha, quadrature_evaluator
from corridorcov.propagation import (
    CosineBeam,
    InterferenceMode,
    RectangularBeam,
    suggested_element_count,
)

D2R = math.pi / 180.0


def test_default_bs_layout():
    s = reference_scenario(13, 40)
    a = OracleAssumptions()
    assert a.resolve_positions(s) == (-1000.0, 0.0, 1000.0, 2000.0)
    with pytest.raises(ValueError):
        OracleAssumptions(bs_positions=(0.0,)).resolve_positions(s)
    with pytest.raises(ValueError):
        OracleAssumptions(bs_positions=(0.0, 0.0)).resolve_positions(s)


def test_midpoint_symmetry():
    # equidistant from BS-1/BS-2 at the half-region edge: equal powers, so
    # the tie goes to BS-1, the noiseless dominant SINR is exactly 1 and the
    # SumAll SINR <= 1 when both lobes cover the point
    s = reference_scenario(13, 40)
    a = OracleAssumptions(include_noise=False)
    serving, val = evaluate_sinr(500.0, 200.0, s, a)
    assert serving[0] == 1 and val[0] == 1.0
    a_sum = OracleAssumptions(interference=InterferenceMode.SUM_ALL,
                              include_noise=False)
    _, val = evaluate_sinr(500.0, 200.0, s, a_sum)
    assert val[0] <= 1.0
    # the layout (-d1, 0, d1, 2 d1) mirrors about x = d1/2: so does the field
    off = np.linspace(0.5, 499.5, 50)
    z = np.full(off.size, 200.0)
    left_srv, left = evaluate_sinr(500.0 - off, z, s, OracleAssumptions())
    right_srv, right = evaluate_sinr(500.0 + off, z, s, OracleAssumptions())
    np.testing.assert_allclose(left, right, rtol=1e-12)
    assert np.array_equal(left_srv, 3 - right_srv)


def test_borderline_point_recovers_threshold():
    # at the first border's top endpoint, noiseless dominant-only SINR == tau
    s = reference_scenario(13, 40)
    b = borderline_geometry(s)
    a = OracleAssumptions(include_noise=False)
    serving, v = evaluate_sinr(b.d3, 300.0, s, a)
    assert serving[0] == 1  # BS-1 at x=0
    assert v[0] == pytest.approx(s.tau, rel=1e-6)


def test_gain_support_zeroes_power():
    # elevation 56.3 degrees from BS-1 is outside its [8, 48] lobe, and so
    # are BS-0 and BS-3 (7.8 and 4.5 degrees): only BS-2 (9.5 degrees)
    # delivers power, which leaves the plain SNR
    s = reference_scenario(8, 40)
    a = OracleAssumptions()
    beam = a.resolve_beam(s)
    h = np.abs(100.0 - np.array(a.resolve_positions(s)))
    g = beam.gain(h, 150.0, h * h + 150.0 ** 2)
    assert g.tolist() == [0.0, 0.0, beam.peak_gain, 0.0]
    serving, v = evaluate_sinr(100.0, 150.0, s, a)
    assert serving[0] == 2
    r2 = 900.0 ** 2 + 150.0 ** 2
    p2 = s.radio.p_tx_w * beam.peak_gain / a.pathloss.loss(
        900.0, 150.0, r2, s.radio.wavelength_m)
    assert v[0] == pytest.approx(p2 / s.radio.noise_w, rel=1e-12)


def test_no_lobe_coverage_gives_zero():
    # lobes end below every corridor elevation: p_in == 0 and points report
    # zero SINR with nearest serving fallback
    s = reference_scenario(1.0, 1.5)
    assert coverage_by_quadrature(s, OracleAssumptions(), 64, 64) == 0.0
    serving, v = evaluate_sinr(250.0, 200.0, s, OracleAssumptions())
    assert v[0] == 0.0
    assert serving[0] == 1  # nearest is BS-1


def test_strongest_covers_superset_of_nearest():
    s = reference_scenario(10, 40)
    xs = np.linspace(0.5, 499.5, 200)
    zs = np.linspace(100.5, 299.5, 120)
    xx, zz = np.meshgrid(xs, zs)
    a_s = OracleAssumptions(association=Association.STRONGEST,
                            interference=InterferenceMode.SUM_ALL)
    a_n = OracleAssumptions(association=Association.NEAREST,
                            interference=InterferenceMode.SUM_ALL)
    _, v_s = evaluate_sinr(xx.ravel(), zz.ravel(), s, a_s)
    _, v_n = evaluate_sinr(xx.ravel(), zz.ravel(), s, a_n)
    assert np.all(v_s >= v_n)  # pointwise dominance
    assert np.all((v_s >= s.tau) | ~(v_n >= s.tau))  # membership superset


def test_refinement_stability():
    # doubling the grid in both directions moves the coverage by <= 0.005
    s = reference_scenario(13, 40)
    p = coverage_by_quadrature(s, OracleAssumptions(), 1000, 1000)
    p2 = coverage_by_quadrature(s, OracleAssumptions(), 2000, 2000)
    assert abs(p - p2) <= 0.005
    assert 0.0 <= p <= 1.0


def test_quadrature_grid_floor():
    s = reference_scenario(13, 40)
    with pytest.raises(ValueError):
        coverage_by_quadrature(s, OracleAssumptions(), 32, 64)


def test_quadrature_deterministic():
    s = reference_scenario(17, 40)
    a = OracleAssumptions()
    assert (coverage_by_quadrature(s, a, 128, 128)
            == coverage_by_quadrature(s, a, 128, 128))


def test_borderline_recovery_within_half_db():
    # midpoints within one cell of the analytical borders stay within
    # 0.5 dB of the threshold under dominant/noiseless/rectangular
    # assumptions, inside the beam-overlap region the border describes
    s = reference_scenario(13, 40)
    b = borderline_geometry(s)
    a = OracleAssumptions(include_noise=False)
    beam = a.resolve_beam(s)
    hs = np.linspace(s.h1 + 0.5, s.h2 - 0.5, 400)

    # first border: serving BS-1, interferer BS-2, both lobes active
    def lit(xq, pos):
        h = np.abs(xq - pos)
        return beam.gain(h, hs, h * h + hs * hs) > 0

    for off in (-1.0, 1.0):
        xq = b.d2 + hs * (b.d3 - b.d2) / s.h2 + off
        sel = lit(xq, 0.0) & lit(xq, s.d1)
        _, v = evaluate_sinr(xq, hs, s, a)
        assert np.all(np.abs(10 * np.log10(v[sel]) - s.tau_db) <= 0.5)

    # second border: serving BS-2 (above BS-1's lobe), interferer BS-3
    for off in (-1.0, 1.0):
        xq = b.d4 + hs * (b.d5 - b.d4) / s.h2 + off
        sel = ~lit(xq, 0.0) & lit(xq, s.d1) & lit(xq, -s.d1)
        assert np.count_nonzero(sel) > 10
        _, v = evaluate_sinr(xq, hs, s, a)
        assert np.all(np.abs(10 * np.log10(v[sel]) - s.tau_db) <= 0.5)


def test_custom_bs_positions():
    # dropping BS-4 moves fourth-station interference out of the picture
    s = reference_scenario(13, 40)
    a3 = OracleAssumptions(bs_positions=(-s.d1, 0.0, s.d1))
    p3 = coverage_by_quadrature(s, a3, 256, 256)
    p4 = coverage_by_quadrature(s, OracleAssumptions(), 256, 256)
    assert p3 >= p4  # removing an interferer cannot reduce coverage


def test_beam_is_built_at_the_scenario_tilt():
    # every beam kind follows alpha; an unset element count is derived at
    # each tilt, a set one is kept
    a13, a25 = reference_scenario(13, 40), reference_scenario(25, 40)
    for a in (OracleAssumptions(), OracleAssumptions(peak_gain_db=9.0),
              OracleAssumptions(beam=BeamKind.COSINE),
              OracleAssumptions(beam=BeamKind.COSINE, n_elements=8)):
        for s in (a13, a25):
            beam = a.resolve_beam(s)
            assert (beam.alpha, beam.beta) == (s.alpha, s.beta)
    rect = OracleAssumptions(peak_gain_db=9.0).resolve_beam(a13)
    assert isinstance(rect, RectangularBeam)
    assert rect.peak_gain == pytest.approx(10 ** 0.9, rel=1e-12)
    cos = OracleAssumptions(beam=BeamKind.COSINE)
    assert isinstance(cos.resolve_beam(a13), CosineBeam)
    for s in (a13, a25):
        assert cos.resolve_beam(s).n_elements == suggested_element_count(
            s.alpha, s.beta)
    assert OracleAssumptions(beam=BeamKind.COSINE, n_elements=8).resolve_beam(
        a25).n_elements == 8


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="counts the page faults of glibc's allocator on Linux")
def test_quadrature_blocks_allocate_no_temporaries():
    # Freed block-sized temporaries go back to the OS and fault in again on
    # the next block: about 13.5k minor faults for this call when each
    # kernel call allocated its own. One workspace per call faults in once.
    import resource

    s = reference_scenario(13, 40)
    a = OracleAssumptions()
    coverage_by_quadrature(s, a, 2001, 501)   # warm-up: imports, code paths
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    coverage_by_quadrature(s, a, 2001, 501)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 1000


def test_strongest_association_beats_nearest():
    # the paper's headline claim, on a coarse quadrature with dominant
    # interference, at beta in {30, 40, 50} deg and tau in {2, 5} dB:
    # associating with the strongest BS gives less outage than the nearest
    # BS, except at 25 deg (and at 2 deg for beta = 50, tau = 5 dB), where
    # both give the same. Golden-section search finds a smaller optimum
    # uptilt with less outage for strongest association, except at
    # tau = 5 dB: at beta >= 40 deg both end in the same optimum near
    # 26 deg, and at beta = 30 deg the strongest-association curve has
    # two valleys, near 15 deg (0.526) and 26 deg (0.514, the nearest
    # rule's optimum and value), and the search ends in the shallower one.
    equal = {(beta, tau, 25) for beta in (30, 40, 50) for tau in (2, 5)}
    equal.add((50, 5, 2))
    same_optimum = {(40, 5), (50, 5)}
    shallower_valley = (30, 5)
    for beta_deg, tau_db in itertools.product((30, 40, 50), (2, 5)):
        rules = [OracleAssumptions(association=assoc,
                                   interference=InterferenceMode.DOMINANT_ONLY)
                 for assoc in (Association.STRONGEST, Association.NEAREST)]
        for alpha_deg in (2, 8, 13, 17, 25):
            s = reference_scenario(alpha_deg, beta_deg, tau_db=tau_db)
            strongest, nearest = (1.0 - coverage_by_quadrature(s, a, 201, 101)
                                  for a in rules)
            if (beta_deg, tau_db, alpha_deg) in equal:
                assert strongest == nearest
            else:
                assert strongest < nearest
        template = reference_scenario(10, beta_deg, tau_db=tau_db)
        best_s, best_n = (find_optimal_alpha(
            template, math.radians(0.5), math.radians(35.0), math.radians(0.25),
            quadrature_evaluator(a, 201, 101)) for a in rules)
        if (beta_deg, tau_db) in same_optimum:
            assert (best_s.alpha, best_s.p_out) == (best_n.alpha, best_n.p_out)
        elif (beta_deg, tau_db) == shallower_valley:
            assert best_s.alpha < best_n.alpha
            assert best_s.p_out > best_n.p_out
            deeper = template.replace(alpha=best_n.alpha)
            assert (1.0 - coverage_by_quadrature(deeper, rules[0], 201, 101)
                    == best_n.p_out)
        else:
            assert best_s.alpha < best_n.alpha
            assert best_s.p_out < best_n.p_out


def _raise_on_third_call(monkeypatch, module):
    """Make `module`'s kernel raise a ValueError on its third call, that
    is in the third block of a row-block loop; returns that error."""
    kernel = module.evaluate_sinr
    calls = itertools.count(1)
    err = ValueError("third block")

    def failing(*args, **kwargs):
        if next(calls) == 3:
            raise err
        return kernel(*args, **kwargs)

    monkeypatch.setattr(module, "evaluate_sinr", failing)
    return err


_CALLERS = {
    "quadrature": (oracle, lambda s: coverage_by_quadrature(
        s, OracleAssumptions(), 501, 301)),
    "mc": (monte_carlo, lambda s: estimate_outage(
        s, McConfig(n_samples=200_001))),
    "heatmap": (heatmap, lambda s: heatmap.sinr_field(
        s, OracleAssumptions(), 1001, 601)),
}


@pytest.mark.parametrize("caller", sorted(_CALLERS))
def test_a_block_error_reaches_the_caller_unchanged(monkeypatch, caller):
    module, run = _CALLERS[caller]
    err = _raise_on_third_call(monkeypatch, module)
    with pytest.raises(ValueError) as info:
        run(reference_scenario(13, 40))
    assert info.value is err


def test_cli_maps_a_block_error_to_exit_1(monkeypatch, tmp_path, capsys):
    _raise_on_third_call(monkeypatch, monte_carlo)
    out = tmp_path / "mc.json"
    code = cli.main(["--beta-deg", "40", "--alpha-deg", "13",
                     "--samples", "200001", "mc", "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == "error: third block\n"
    assert captured.out == "" and not out.exists()


def test_beam_and_positions_are_resolved_once_per_call(monkeypatch):
    # a field and a Monte Carlo estimate of many blocks (or slabs) each
    # form the beam and the BS positions once, not per block
    calls = []
    for name in ("resolve_beam", "resolve_positions"):
        def counting(self, s, real=getattr(OracleAssumptions, name),
                     name=name):
            calls.append(name)
            return real(self, s)
        monkeypatch.setattr(OracleAssumptions, name, counting)
    s = reference_scenario(13.0, 40.0)
    a = OracleAssumptions(beam=BeamKind.COSINE)
    n = 3 * oracle.BLOCK_POINTS + 5
    samples = monte_carlo.SampleSet()
    for run in (lambda: heatmap.sinr_field(s, a, 301, 700),
                lambda: estimate_outage(s, McConfig(n_samples=n, assumptions=a)),
                lambda: estimate_outage(s, McConfig(n_samples=n, assumptions=a),
                                        samples=samples)):
        calls.clear()
        run()
        assert sorted(calls) == ["resolve_beam", "resolve_positions"]
