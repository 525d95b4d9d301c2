"""Self-test of the benchmark's tracer and output checks.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the package's own test run: the end-to-end
cases start full CLI processes (about half a minute in all).
"""

import hashlib
import json
import math
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from tracer import Tracer  # noqa: E402

sys.path.insert(0, os.path.join(run.ROOT, "src"))

from corridorcov import cli, heatmap, monte_carlo, oracle, sweep  # noqa: E402


def _scenario(alpha_deg: float = 13.0):
    return cli.RunConfig({"scenario.beta_deg": 40.0}).scenario(alpha_deg=alpha_deg)


def test_aliases_are_rebound_and_restored():
    original = oracle.evaluate_sinr
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = oracle.evaluate_sinr
        assert wrapped is not original
        assert monte_carlo.evaluate_sinr is wrapped
        assert heatmap.evaluate_sinr is wrapped
        assert sweep.estimate_outage is monte_carlo.estimate_outage
        assert cli.coverage_by_quadrature is oracle.coverage_by_quadrature
    finally:
        tracer.uninstall()
    assert oracle.evaluate_sinr is original
    assert monte_carlo.evaluate_sinr is original
    assert heatmap.evaluate_sinr is original


def test_points_and_self_time():
    tracer = Tracer()
    tracer.install()
    try:
        oracle.coverage_by_quadrature(_scenario(), oracle.OracleAssumptions(), 64, 80)
    finally:
        tracer.uninstall()
    report = tracer.report()
    stats = report["stats"]
    quad = stats["oracle.coverage_by_quadrature"]
    sinr = stats["oracle.evaluate_sinr"]
    assert quad["calls"] == 1 and quad["points"] == 64 * 80
    assert sinr["points"] == 64 * 80
    assert stats["propagation.RectangularBeam.gain"]["points"] == 4 * 64 * 80
    # evaluate_sinr is the quadrature's only wrapped child.
    children = [e["child"] for e in report["edges"]
                if e["parent"] == "oracle.coverage_by_quadrature"]
    assert children == ["oracle.evaluate_sinr"]
    assert quad["self_ns"] == quad["total_ns"] - sinr["total_ns"]
    assert 0 < sinr["self_ns"] < sinr["total_ns"]


def test_optimizer_evaluations_are_counted():
    s = _scenario(2.0)
    tracer = Tracer()
    tracer.install()
    try:
        res = sweep.find_optimal_alpha(s, math.radians(2), math.radians(38),
                                       math.radians(0.05),
                                       sweep.closed_form_evaluator())
    finally:
        tracer.uninstall()
    metrics = run.layer_metrics(tracer.report())
    assert metrics["sweep.find_optimal_alpha.evals"] == res.n_evaluations
    assert metrics["closed_form.outage.calls"] == res.n_evaluations


def _traced_and_untraced(name: str):
    """Run a workload untraced and traced (mc_seed 0); both must pass the
    output check and leave byte-identical outputs."""
    with open(run.EXPECTED, encoding="ascii") as fh:
        expected = json.load(fh)
    runs = []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as work:
        for traced in (False, True):
            sample = run.run_workload(name, 0, expected, work, traced, 170.0)
            assert sample.error is None, sample.error
            out = os.path.join(work, "out")
            digests = {}
            for fname in sorted(os.listdir(out)):
                with open(os.path.join(out, fname), "rb") as fh:
                    digests[fname] = hashlib.sha256(fh.read()).hexdigest()
            runs.append((sample, digests))
    (plain, plain_files), (traced, traced_files) = runs
    assert plain.trace is None and traced.trace is not None
    assert plain.stdout == traced.stdout
    assert plain_files == traced_files
    return traced.trace


def test_validate_ref_counts():
    report = _traced_and_untraced("validate-ref")
    stats = report["stats"]
    assert run.layer_metrics(report)["oracle.evaluate_sinr.points"] == 20_016_004
    assert stats["oracle.coverage_by_quadrature"]["calls"] == 4
    assert stats["oracle.coverage_by_quadrature"]["points"] == 4 * 2001 * 2001
    assert stats["monte_carlo.estimate_outage"]["calls"] == 4
    assert stats["monte_carlo.estimate_outage"]["points"] == 4_000_000
    assert stats["closed_form.outage"]["calls"] == 4


def test_heatmap_cosine_a2g_counts():
    report = _traced_and_untraced("heatmap-cosine-a2g")
    stats = report["stats"]
    assert stats["heatmap.sinr_field"]["points"] == 601_601
    assert stats["oracle.evaluate_sinr"]["points"] == 601_601
    assert stats["propagation.CosineBeam.gain"]["points"] == 4 * 601_601
    metrics = run.layer_metrics(report)
    assert metrics["heatmap.write_csv.s"] > 0
    assert metrics["heatmap.write_csv.mib_per_s"] > 0
