"""The shared row-block loop (`oracle._sum_blocks`): Monte Carlo results
that do not depend on the worker count, grid loops in the caller's thread,
errors raised in the caller, and no thread left running."""

import itertools
import sys
import threading

import numpy as np
import pytest

from stream_reference import outage_of_one_stream
from corridorcov import cli, heatmap, monte_carlo, oracle, sweep
from corridorcov.defaults import reference_scenario
from corridorcov.monte_carlo import LosMode, McConfig, estimate_outage
from corridorcov.oracle import (
    Association,
    BeamKind,
    OracleAssumptions,
    _sum_blocks,
    coverage_by_quadrature,
)
from corridorcov.propagation import (
    AirToGroundPathLoss,
    InterferenceMode,
    _Workspace,
)

# 3 workers cut BLOCK_POINTS into blocks of 21845 cells, so block starts
# stop being multiples of Philox's 4 draws per counter step
WORKER_COUNTS = (1, 2, 3)

# (draws per sample, config): expectation mode, and Bernoulli LoS draws
# with the air-to-ground model
_MC_CONFIGS = {
    2: dict(),
    6: dict(assumptions=OracleAssumptions(pathloss=AirToGroundPathLoss()),
            los_mode=LosMode.BERNOULLI),
}

_MODELS = {
    "reference": OracleAssumptions(),
    "cosine-a2g-sum-nearest": OracleAssumptions(
        beam=BeamKind.COSINE, pathloss=AirToGroundPathLoss(),
        interference=InterferenceMode.SUM_ALL,
        association=Association.NEAREST),
}


@pytest.mark.parametrize("dps", sorted(_MC_CONFIGS))
@pytest.mark.parametrize("seed", [0, 3, 7])
@pytest.mark.parametrize("n", [1, 3, 65537, 200001])
def test_mc_does_not_depend_on_the_worker_count(monkeypatch, n, seed, dps):
    s = reference_scenario(13, 40)
    cfg = McConfig(n_samples=n, seed=seed, **_MC_CONFIGS[dps])
    results = []
    for workers in WORKER_COUNTS:
        monkeypatch.setattr(oracle, "_WORKERS", workers)
        results.append(estimate_outage(s, cfg))
    assert results[0] == results[1] == results[2]
    assert results[0].p_out == outage_of_one_stream(s, cfg, dps)


def test_grid_loops_start_no_thread(monkeypatch):
    # only Monte Carlo blocks, whose Philox draws scale over two cores,
    # go to a second thread; the quadrature and the heatmap run every
    # block, several here, in the caller's thread
    monkeypatch.setattr(oracle, "_WORKERS", 2)

    def no_thread(*args, **kwargs):
        raise AssertionError("a grid loop started a thread")

    monkeypatch.setattr(threading, "Thread", no_thread)
    s = reference_scenario(13, 40)
    for a in _MODELS.values():
        coverage_by_quadrature(s, a, 501, 301)
        heatmap.sinr_field(s, a, 1001, 601)


def test_held_samples_start_no_thread(monkeypatch):
    # the Monte Carlo evaluator of sweeps and searches draws its samples
    # once and evaluates every block, several here, in the caller's
    # thread; streaming the same config would start one
    monkeypatch.setattr(oracle, "_WORKERS", 2)

    def no_thread(*args, **kwargs):
        raise AssertionError("Monte Carlo started a thread")

    monkeypatch.setattr(threading, "Thread", no_thread)
    s = reference_scenario(13, 40)
    for kw in _MC_CONFIGS.values():
        cfg = McConfig(n_samples=200_001, seed=1, **kw)
        evaluator = sweep.mc_evaluator(cfg)
        for alpha_deg in (8, 13):
            evaluator.fn(reference_scenario(alpha_deg, 40))
        with pytest.raises(AssertionError, match="started a thread"):
            estimate_outage(s, cfg)


def test_every_block_runs_once_on_more_workers_than_cores(monkeypatch):
    # 8 threads on blocks of 8 items, with the interpreter switching
    # threads as often as it can: a block lost or taken twice by the
    # shared counter changes the total or the list of starts
    monkeypatch.setattr(oracle, "BLOCK_POINTS", 64)
    monkeypatch.setattr(oracle, "_WORKERS", 8)
    n = 10_007
    starts = []
    scratch = np.ones(4096)

    def count(lo, hi, w):
        starts.append(lo)
        np.sqrt(scratch, out=w.take("sqrt", scratch.shape))
        return hi - lo

    before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        total = _sum_blocks(n, 1, count, _Workspace(), threaded=True)
    finally:
        sys.setswitchinterval(interval)
    assert total == n
    assert sorted(starts) == list(range(0, n, 8))
    assert threading.active_count() == before


def test_a_single_block_runs_in_the_callers_thread(monkeypatch):
    monkeypatch.setattr(oracle, "_WORKERS", 2)
    caller = threading.current_thread()
    before = threading.active_count()
    threads = []

    def block(lo, hi, w):
        threads.append((threading.current_thread(), threading.active_count()))
        return hi - lo

    assert _sum_blocks(100, 64, block, _Workspace(), threaded=True) == 100
    assert threads == [(caller, before)]


def _raise_on_third_call(monkeypatch, module):
    """Make `module`'s kernel raise a ValueError on its third call, from
    whichever thread makes it; returns that error."""
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
def test_a_worker_error_reaches_the_caller_unchanged(monkeypatch, caller):
    module, run = _CALLERS[caller]
    monkeypatch.setattr(oracle, "_WORKERS", 2)
    err = _raise_on_third_call(monkeypatch, module)
    before = threading.active_count()
    with pytest.raises(ValueError) as info:
        run(reference_scenario(13, 40))
    assert info.value is err
    assert threading.active_count() == before


def test_cli_maps_a_worker_error_to_exit_1(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(oracle, "_WORKERS", 2)
    _raise_on_third_call(monkeypatch, monte_carlo)
    out = tmp_path / "mc.json"
    code = cli.main(["--beta-deg", "40", "--alpha-deg", "13",
                     "--samples", "200001", "mc", "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == "error: third block\n"
    assert captured.out == "" and not out.exists()
