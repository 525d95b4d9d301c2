"""Benchmark of the ``corridorcov`` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each run starts fresh ``corridorcov``
processes, one at a time, for about S seconds (at least MIN_RUNS of them),
checks every output against ``expected.json`` and prints one JSON result as
its last line. With ``--trace 0`` it reports the end-to-end metrics, as
medians over the processes; with ``--trace 1`` it alternates untraced and
traced processes and reports the per-layer metrics of the traced ones.
Workloads, metrics and the layer each metric should move are described in
NOTES.md next to this file.

Children run single-threaded: COV_THREADS is unset, so Monte Carlo uses one
worker, and the BLAS/OpenMP thread variables are 1.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LAUNCH = os.path.join(HERE, "launch.py")
EXPECTED = os.path.join(HERE, "expected.json")

MIN_RUNS = 3          # CLI processes per run, whatever --seconds says
PROBE_SHARE = 0.1     # share of a run spent in import-only set-up probes
HARD_LIMIT_S = 170.0  # a run never goes past this, so it ends within 180 s

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class CheckFailed(Exception):
    pass


# ---- workloads -----------------------------------------------------------

def _validate_args(mc_seed: int, out: str) -> list[str]:
    return ["--beta-deg", "40", "--seed", str(mc_seed), "validate",
            "--out", os.path.join(out, "validate.json")]


def _check_validate(expected: dict, mc_seed: int, out: str, stdout: str) -> None:
    if not stdout.rstrip().endswith("PASS"):
        raise CheckFailed("validate did not print PASS")
    with open(os.path.join(out, "validate.json"), encoding="ascii") as fh:
        rows = json.load(fh)["rows"]
    got = {
        "alphas_deg": [r["alpha_deg"] for r in rows],
        "quadrature": [r["quadrature"] for r in rows],
        "mc": [r["mc"] for r in rows],
    }
    want = {
        "alphas_deg": expected["alphas_deg"],
        "quadrature": expected["quadrature"],
        "mc": expected["mc"][str(mc_seed)],
    }
    for key, value in want.items():
        if got[key] != value:
            raise CheckFailed(f"validate {key}: got {got[key]}, expected {value}")


def _optimize_args(mc_seed: int, out: str) -> list[str]:
    return ["--config", os.path.join("perfbench", "optimize_mc_a2g.cfg"),
            "--beta-deg", "40", "--samples", "500000", "--seed", str(mc_seed),
            "optimize", "--evaluator", "mc",
            "--out", os.path.join(out, "optimize.json")]


def _check_optimize(expected: dict, mc_seed: int, out: str, stdout: str) -> None:
    with open(os.path.join(out, "optimize.json"), encoding="ascii") as fh:
        art = json.load(fh)
    want = expected["results"][str(mc_seed)]
    for key, value in want.items():
        if art.get(key) != value:
            raise CheckFailed(f"optimize {key}: got {art.get(key)!r}, expected {value!r}")


def _heatmap_args(mc_seed: int, out: str) -> list[str]:
    return ["--beta-deg", "40", "--alpha-deg", "13", "--grid-nx", "1001",
            "--grid-nz", "601", "--beam", "cosine", "--pathloss", "a2g",
            "heatmap", "--out", os.path.join(out, "heatmap")]


def csv_rows_sha256(path: str) -> str:
    """SHA-256 of the CSV's data lines (every line not starting with '#')."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for line in fh:
            if not line.startswith(b"#"):
                h.update(line)
    return h.hexdigest()


def ppm_pixels(path: str) -> tuple[int, int, bytes]:
    """Width, height and pixel payload of a binary P6 file with comments."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(b"P6\n"):
        raise CheckFailed("heatmap.ppm is not a P6 file")
    pos = 3
    fields: list[bytes] = []
    while len(fields) < 3:
        end = data.index(b"\n", pos)
        line = data[pos:end]
        pos = end + 1
        if not line.startswith(b"#"):
            fields += line.split()
    width, height, maxval = (int(f) for f in fields)
    if maxval != 255 or len(data) - pos != width * height * 3:
        raise CheckFailed("heatmap.ppm payload does not match its header")
    return width, height, data[pos:]


def _check_heatmap(expected: dict, mc_seed: int, out: str, stdout: str) -> None:
    base = os.path.join(out, "heatmap")
    csv_sha = csv_rows_sha256(base + ".csv")
    width, height, pixels = ppm_pixels(base + ".ppm")
    got = {"csv_rows_sha256": csv_sha, "ppm_size": [width, height],
           "ppm_pixels_sha256": hashlib.sha256(pixels).hexdigest()}
    for key, value in expected.items():
        if got[key] != value:
            raise CheckFailed(f"heatmap {key}: got {got[key]}, expected {value}")


@dataclass(frozen=True)
class Workload:
    args: Callable[[int, str], list[str]]          # (mc_seed, out_dir)
    check: Callable[[dict, int, str, str], None]   # raises CheckFailed


WORKLOADS = {
    "validate-ref": Workload(_validate_args, _check_validate),
    "optimize-mc-a2g": Workload(_optimize_args, _check_optimize),
    "heatmap-cosine-a2g": Workload(_heatmap_args, _check_heatmap),
}


# ---- one CLI process -----------------------------------------------------

@dataclass
class Sample:
    wall_s: float
    setup_s: float
    peak_rss_mib: float
    traced: bool
    error: str | None = None
    trace: dict | None = None
    stdout: str = ""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("COV_THREADS", None)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def launch(cli_args: list[str], work: str, trace: bool, limit_s: float) -> Sample:
    """Run launch.py once and time it from just before the process starts
    to just after it is reaped. Peak RSS comes from the child's rusage."""
    stamp = os.path.join(work, "stamp")
    trace_path = os.path.join(work, "trace.json")
    for path in (stamp, trace_path):
        if os.path.exists(path):
            os.remove(path)
    with open(os.path.join(work, "stdout"), "w+b") as out, \
            open(os.path.join(work, "stderr"), "w+b") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, LAUNCH, stamp, trace_path if trace else "-", *cli_args],
            cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        killer = threading.Timer(max(limit_s, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        t1 = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout = out.read().decode("utf-8", "replace")
        stderr = err.read().decode("utf-8", "replace")
    try:
        with open(stamp, encoding="ascii") as fh:
            setup_s = float(fh.read()) - t0
    except (OSError, ValueError):
        setup_s = float("nan")
    sample = Sample(wall_s=t1 - t0, setup_s=setup_s,
                    peak_rss_mib=usage.ru_maxrss / 1024.0, traced=trace,
                    stdout=stdout)
    if proc.returncode != 0:
        sample.error = f"exit code {proc.returncode}: {stderr.strip()[-500:]}"
    elif trace:
        with open(trace_path, encoding="ascii") as fh:
            sample.trace = json.load(fh)
    return sample


def run_workload(name: str, mc_seed: int, expected: dict, work: str,
                 trace: bool, limit_s: float) -> Sample:
    """One CLI process of a workload, with its outputs checked."""
    wl = WORKLOADS[name]
    out = os.path.join(work, "out")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    sample = launch(wl.args(mc_seed, out), work, trace, limit_s)
    if sample.error is None:
        try:
            wl.check(expected[name], mc_seed, out, sample.stdout)
        except (CheckFailed, OSError, KeyError, ValueError) as exc:
            sample.error = f"output check: {exc}"
    return sample


# ---- per-layer metrics ---------------------------------------------------

# Calls a golden-section step makes into an evaluator, one per evaluation.
EVALUATORS = ("closed_form.outage", "oracle.coverage_by_quadrature",
              "monte_carlo.estimate_outage")


def layer_metrics(report: dict) -> dict[str, float]:
    """Per-layer metrics of one traced process; 0 for layers not called."""
    stats = report["stats"]

    def get(name: str, key: str) -> float:
        return stats.get(name, {}).get(key, 0)

    def ratio(name: str, num: str, den: str, scale: float) -> float:
        d = get(name, den)
        return get(name, num) * scale / d if d else 0.0

    evals = sum(e["calls"] for e in report["edges"]
                if e["parent"] == "sweep.find_optimal_alpha" and e["child"] in EVALUATORS)
    csv_s = get("heatmap.write_csv", "total_ns") / 1e9
    m = {
        "cli.main.self_s": get("cli.main", "self_ns") / 1e9,
        "sweep.find_optimal_alpha.evals": evals,
        "sweep.find_optimal_alpha.self_s": get("sweep.find_optimal_alpha", "self_ns") / 1e9,
        "closed_form.outage.calls": get("closed_form.outage", "calls"),
        "closed_form.outage.us_per_call": ratio("closed_form.outage", "total_ns", "calls", 1e-3),
        "oracle.coverage_by_quadrature.points": get("oracle.coverage_by_quadrature", "points"),
        "oracle.coverage_by_quadrature.self_s":
            get("oracle.coverage_by_quadrature", "self_ns") / 1e9,
        "oracle.evaluate_sinr.points": get("oracle.evaluate_sinr", "points"),
        "oracle.evaluate_sinr.self_ns_per_point":
            ratio("oracle.evaluate_sinr", "self_ns", "points", 1.0),
        "oracle.received_powers.self_ns_per_point":
            ratio("oracle.received_powers", "self_ns", "points", 1.0),
    }
    for layer in ("RectangularBeam.gain", "CosineBeam.gain", "FreeSpacePathLoss.loss",
                  "AirToGroundPathLoss.loss", "AirToGroundPathLoss.p_los"):
        name = f"propagation.{layer}"
        m[f"{name}.ns_per_point"] = ratio(name, "self_ns", "points", 1.0)
    m.update({
        "monte_carlo.estimate_outage.samples": get("monte_carlo.estimate_outage", "points"),
        "monte_carlo.estimate_outage.self_ns_per_sample":
            ratio("monte_carlo.estimate_outage", "self_ns", "points", 1.0),
        "heatmap.sinr_field.self_s": get("heatmap.sinr_field", "self_ns") / 1e9,
        "heatmap.write_csv.s": csv_s,
        "heatmap.write_csv.mib_per_s":
            get("heatmap.write_csv", "bytes") / 2**20 / csv_s if csv_s else 0.0,
        "heatmap.write_ppm.s": get("heatmap.write_ppm", "total_ns") / 1e9,
    })
    return m


# ---- machine record ------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _commit() -> str:
    git_dir = os.path.join(ROOT, ".git")
    if not os.path.isdir(git_dir) or shutil.which("git") is None:
        return "unknown"
    res = subprocess.run(["git", "--git-dir", git_dir, "rev-parse", "HEAD"],
                         capture_output=True, text=True, check=False)
    return res.stdout.strip() or "unknown"


def environment() -> dict:
    env = child_env()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "commit": _commit(),
        "COV_THREADS": env.get("COV_THREADS", "unset"),
        **{var: env[var] for var in THREAD_VARS},
    }


# ---- main ----------------------------------------------------------------

def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    started = time.monotonic()
    if not os.path.isfile(os.path.join(ROOT, "src", "corridorcov", "cli.py")):
        print("error: src/corridorcov not found; run from a source checkout",
              file=sys.stderr)
        return 2
    with open(EXPECTED, encoding="ascii") as fh:
        expected = json.load(fh)
    mc_seed = args.seed % expected["mc_seeds"]
    trace = bool(args.trace)

    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload={args.workload} seed={args.seed} mc_seed={mc_seed} "
          f"seconds={args.seconds:g} trace={args.trace}")

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
        def remaining() -> float:
            return HARD_LIMIT_S - (time.monotonic() - started)

        # The warm-up probe compiles bytecode and fills the file cache; a
        # probe that cannot import the package means there is nothing to run.
        warm = launch([], work, False, remaining())
        if warm.error is not None or warm.setup_s != warm.setup_s:
            print(f"error: corridorcov.cli does not import: {warm.error}",
                  file=sys.stderr)
            return 2

        measure_start = time.monotonic()
        setups: list[float] = []
        probes_s = 0.0
        samples: list[Sample] = []
        while True:
            # Import-only probes before each CLI process add set-up samples,
            # spread over the run and about PROBE_SHARE of its time.
            while not setups or probes_s < PROBE_SHARE * (time.monotonic() - measure_start):
                probe = launch([], work, False, remaining())
                setups.append(probe.setup_s)
                probes_s += probe.wall_s
            traced = trace and len(samples) % 2 == 1
            s = run_workload(args.workload, mc_seed, expected, work, traced,
                             remaining())
            samples.append(s)
            print(f"  run {len(samples)}: {'traced' if traced else 'untraced'} "
                  f"wall_s={s.wall_s:.4f} setup_s={s.setup_s:.4f} "
                  f"peak_rss_mib={s.peak_rss_mib:.1f} "
                  f"{'ok' if s.error is None else 'FAILED ' + s.error}")
            elapsed = time.monotonic() - measure_start
            typical = statistics.median(x.wall_s for x in samples)
            if len(samples) >= MIN_RUNS and elapsed + typical > args.seconds:
                break
            if typical > remaining() - 5.0:
                break

    # Metrics cover failed processes too; `correct` and `failed` flag them.
    failed = sum(1 for s in samples if s.error is not None)
    untraced = [s for s in samples if not s.traced]
    traced_ok = [s for s in samples if s.trace is not None]
    setups += [s.setup_s for s in samples]
    setups = [x for x in setups if x == x]   # no stamp: the import failed

    walls = [s.wall_s for s in untraced]
    q1, q2, q3 = _quartiles(walls)
    print(f"wall_s: n={len(walls)} median={q2:.4f} q1={q1:.4f} q3={q3:.4f} "
          f"max={max(walls):.4f}")
    print(f"error_rate={failed / len(samples):g} ({failed}/{len(samples)} failed)")

    metrics: dict[str, dict] = {}
    if not trace:
        metrics = {
            "wall_s": {"value": statistics.median(s.wall_s for s in untraced), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mib": {"value": statistics.median(s.peak_rss_mib for s in untraced),
                             "unit": "MiB"},
        }
    elif traced_ok:
        per_run = [layer_metrics(s.trace) for s in traced_ok]
        units = {m["name"]: m["unit"] for m in _declared("per_layer")}
        for key in per_run[0]:
            metrics[key] = {"value": statistics.median(r[key] for r in per_run),
                            "unit": units[key]}
        overhead = (statistics.median(s.wall_s for s in traced_ok)
                    / statistics.median(s.wall_s for s in untraced) - 1.0)
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": units["trace.overhead_frac"]}
        for name, st in sorted(traced_ok[-1].trace["stats"].items(),
                               key=lambda kv: -kv[1]["self_ns"])[:15]:
            print(f"  trace {name}: calls={st['calls']} points={st['points']} "
                  f"total_s={st['total_ns'] / 1e9:.4f} self_s={st['self_ns'] / 1e9:.4f}")

    print(json.dumps({"correct": failed == 0,
                      "attempted": len(samples), "failed": failed,
                      "metrics": metrics}))
    return 0


def _declared(kind: str) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)[kind]


if __name__ == "__main__":
    sys.exit(main())
