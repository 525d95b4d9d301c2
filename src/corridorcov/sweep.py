"""Uptilt sweeps and golden-section optimal-angle search over any outage
evaluator (closed form, quadrature or Monte Carlo)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from . import closed_form
from .geometry import CorridorScenario
from .monte_carlo import McConfig, SampleSet, estimate_outage
from .oracle import OracleAssumptions, _require_grid, coverage_by_quadrature
from .propagation import _Workspace

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class Evaluator:
    """An outage-probability objective with a provenance tag.

    fn(scenario) returns (p_out, case): the closed form reports the uptilt
    case it evaluated, the numeric evaluators None.
    """

    tag: str
    fn: Callable[[CorridorScenario], tuple[float, int | None]]


def closed_form_evaluator() -> Evaluator:
    def fn(s: CorridorScenario) -> tuple[float, int]:
        r = closed_form.outage(s)
        return r.p_out, int(r.case)
    return Evaluator("closed_form", fn)


def quadrature_evaluator(assumptions: OracleAssumptions | None = None,
                         n_x: int = 501, n_z: int = 301) -> Evaluator:
    a = assumptions if assumptions is not None else OracleAssumptions()
    # a bad grid is a bad evaluator, not a gap at every uptilt
    _require_grid(n_x, n_z)
    work = _Workspace()  # one for every evaluation; calls run one at a time

    def fn(s: CorridorScenario) -> tuple[float, None]:
        return 1.0 - coverage_by_quadrature(s, a, n_x, n_z, work=work), None
    return Evaluator("quadrature", fn)


def mc_evaluator(config: McConfig) -> Evaluator:
    """Monte Carlo objective. The config seed is reused at every uptilt
    (common random numbers), which keeps sweep curves and bracketing
    decisions coherent under the sampling noise.

    The uptilt moves the beam's lobe only, so the samples (positions and,
    in Bernoulli mode, LoS states) are drawn once, in the order of the
    random stream, into a `SampleSet` the evaluator keeps, and every
    uptilt is evaluated from them on the caller's thread, in the blocks
    of a streamed call. Under the rectangular beam, whose gain is 0 or the
    peak, a sample's coverage is fixed by the set of BSs that light it:
    with at most four BSs the set holds a table of each sample's decision
    for each lit set, built at the first uptilt, and every uptilt runs the
    lobe test of each BS that lights some samples but not all, and reads
    the table, with no SINR evaluation; other beams and layouts go through
    the SINR kernel at every uptilt. A scenario
    that changes the samples (the corridor, the BS positions) draws them
    anew, and one that changes the decision (the threshold, the link
    budget, the peak gain) builds the table anew. Each value equals that
    of `estimate_outage(s, config)` bit for bit."""
    work = _Workspace()  # one for every evaluation; calls run one at a time
    samples = SampleSet()

    def fn(s: CorridorScenario) -> tuple[float, None]:
        r = estimate_outage(s, config, work=work, samples=samples)
        return r.p_out, None
    return Evaluator("mc", fn)


@dataclass
class SweepCurve:
    alphas: list[float]            # rad, strictly increasing
    p_out: list[float]             # nan where the evaluator failed
    evaluator: str
    cases: list[int | None]        # None where the evaluator gives no case
    errors: dict[int, str] = field(default_factory=dict)


def sweep_alpha(template: CorridorScenario, grid: list[float],
                evaluator: Evaluator) -> SweepCurve:
    """Evaluate p_out over an uptilt grid (radians, strictly increasing).
    Per-point failures are recorded as gaps, not raised."""
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("alpha grid must be strictly increasing")
    values: list[float] = []
    cases: list[int | None] = []
    errors: dict[int, str] = {}
    for i, alpha in enumerate(grid):
        try:
            p_out, case = evaluator.fn(template.replace(alpha=alpha))
        except ValueError as exc:   # GeometryError included
            p_out, case = math.nan, None
            errors[i] = str(exc)
        values.append(float(p_out))
        cases.append(case)
    return SweepCurve(alphas=list(grid), p_out=values, evaluator=evaluator.tag,
                      cases=cases, errors=errors)


@dataclass(frozen=True)
class OptimizeResult:
    alpha: float       # rad
    p_out: float
    not_unimodal: bool
    n_evaluations: int
    history: tuple[tuple[float, float], ...]  # (alpha, p_out) sorted by alpha


def find_optimal_alpha(template: CorridorScenario, lo: float, hi: float,
                       tol: float, evaluator: Evaluator,
                       noise_tol: float = 1e-3) -> OptimizeResult:
    """Golden-section search for the outage-minimizing uptilt on [lo, hi].

    Shrinks the bracket to width <= tol and returns its midpoint. The
    evaluation history is checked post hoc: more than one significant valley
    (prominence > noise_tol) flags not_unimodal.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")

    seen: dict[float, float] = {}

    def f(alpha: float) -> float:
        if alpha not in seen:
            seen[alpha] = float(evaluator.fn(template.replace(alpha=alpha))[0])
        return seen[alpha]

    a, b = lo, hi
    c = b - INV_PHI * (b - a)
    d = a + INV_PHI * (b - a)
    f(a), f(b)
    while abs(b - a) > tol:
        if f(c) < f(d):
            b, d = d, c
            c = b - INV_PHI * (b - a)
        else:
            a, c = c, d
            d = a + INV_PHI * (b - a)
    alpha_star = 0.5 * (a + b)
    p_star = f(alpha_star)

    history = tuple(sorted(seen.items()))
    minima = significant_minima([v for _, v in history], noise_tol)
    return OptimizeResult(alpha=alpha_star, p_out=p_star,
                          not_unimodal=len(minima) > 1,
                          n_evaluations=len(seen), history=history)


def significant_minima(values: list[float], tol: float) -> list[int]:
    """Indices of valleys that require a climb of more than `tol` to escape
    on both sides (boundary valleys count). Fluctuations within `tol` merge
    into plateaus, so a constant sequence has exactly one valley."""
    n = len(values)
    if n == 0:
        return []
    minima: list[int] = []
    direction = 0  # 0 unknown, +1 rising, -1 falling
    lo_val, lo_idx = values[0], 0
    hi_val = values[0]
    for i in range(1, n):
        v = values[i]
        if direction == 0:
            if v < lo_val:
                lo_val, lo_idx = v, i
            if v > hi_val:
                hi_val = v
            if v > lo_val + tol:
                minima.append(lo_idx)
                direction = 1
                hi_val = v
            elif v < hi_val - tol:
                direction = -1
                lo_val, lo_idx = v, i
        elif direction > 0:
            if v >= hi_val:
                hi_val = v
            elif v < hi_val - tol:
                direction = -1
                lo_val, lo_idx = v, i
        else:
            if v <= lo_val:
                lo_val, lo_idx = v, i
            elif v > lo_val + tol:
                minima.append(lo_idx)
                direction = 1
                hi_val = v
    if direction <= 0:
        minima.append(lo_idx)
    return minima
