"""Batch front door: scenario configuration, one subcommand per evaluator,
machine-readable outputs.

Configuration merges a config file (flat ``section.key=value`` lines or
JSON, nested or flat) with command-line flag overrides; unknown keys are
errors. Each key is declared once, in `KEYS`: its parser, default, choices
and, if it has one, its flag and help; one parser reads it from the file
and from the flag. Angles are degrees and powers dB/dBm at this boundary
only. Every artifact embeds the fully resolved configuration. Key flags may
be given before or after the subcommand (the later one wins), the
``sweep.*``, ``optimize.*`` and ``validate.*`` ones only after their own.

Exit codes:

- 0: success.
- 1: configuration error: an unreadable or malformed config file, an
  unknown key, a bad value in the file (NaN, an infinity, a boolean for a
  number, a non-integral number for an integer key, a value outside the
  key's choices), a value that a model or evaluator rejects with a
  ValueError, a scenario outside a model's domain, or a closed-form
  command given a link model the closed form does not cover.
- 2: validation failure: ``validate`` found an evaluator disagreeing with
  the closed form beyond its tolerance.
- 3: usage error: an unknown subcommand or flag, or a bad flag value, as
  the key's parser judges it in the file.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Callable, NamedTuple

from . import closed_form, defaults, heatmap, sweep
from .geometry import CorridorScenario
from .monte_carlo import LosMode, McConfig, estimate_outage
from .oracle import (
    Association,
    BeamKind,
    OracleAssumptions,
    coverage_by_quadrature,
)
from .propagation import (
    AirToGroundPathLoss,
    FreeSpacePathLoss,
    InterferenceMode,
    LinkBudget,
    _Workspace,
    db_to_linear,
)

EXIT_USAGE = 3

# The most uptilts a sweep evaluates; more is a typo in the step or range.
MAX_SWEEP_POINTS = 100_000


class ConfigError(ValueError, argparse.ArgumentTypeError):
    """A bad configuration. As an ArgumentTypeError it makes argparse report
    a flag value that a key's parser rejects as a usage error."""


def _float(value) -> float:
    """A finite float from text or a JSON number, not a boolean."""
    try:
        x = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    if not math.isfinite(x):
        raise ConfigError(f"not a finite number: {value!r}")
    return x


def _int(value) -> int:
    """An int from integer text or an integral JSON number (1e6 is
    1000000), not a boolean."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    try:
        if not isinstance(value, (bool, float)):
            return int(value)
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"not an integer: {value!r}")


def _bool(value) -> bool:
    if isinstance(value, bool):
        return value
    t = str(value).strip().lower()
    if t in ("true", "1", "yes"):
        return True
    if t in ("false", "0", "no"):
        return False
    raise ConfigError(f"not a boolean: {value!r}")


def _floats(value) -> tuple[float, ...]:
    """Finite floats from comma-separated text or a JSON list."""
    if isinstance(value, (list, tuple)):
        return tuple(_float(x) for x in value)
    return tuple(_float(p) for p in str(value).split(",") if p.strip())


def _values(kind) -> tuple[str, ...]:
    return tuple(member.value for member in kind)


class _Key(NamedTuple):
    """A configuration key; a None default means "unset"."""

    parse: Callable
    default: object = None
    flag: str | None = None
    help: str = ""
    choices: tuple[str, ...] | None = None


# The flags of these sections' keys follow the subcommand of the same name.
_SUBCOMMAND_SECTIONS = ("sweep", "optimize", "validate")

KEYS: dict[str, _Key] = {
    "scenario.alpha_deg": _Key(_float, None, "--alpha-deg", "antenna uptilt, degrees"),
    "scenario.beta_deg": _Key(_float, None, "--beta-deg", "beamwidth, degrees"),
    "scenario.d1_m": _Key(_float, defaults.D1_M, "--d1", "BS spacing, m"),
    "scenario.h1_m": _Key(_float, defaults.H1_M, "--h1", "corridor bottom height, m"),
    "scenario.h2_m": _Key(_float, defaults.H2_M, "--h2", "corridor top height, m"),
    "scenario.tau_db": _Key(_float, defaults.TAU_DB, "--tau-db", "SINR threshold, dB"),
    "radio.p_tx_dbm": _Key(_float, LinkBudget.p_tx_dbm),
    "radio.carrier_hz": _Key(_float, LinkBudget.carrier_hz),
    "radio.bandwidth_hz": _Key(_float, LinkBudget.bandwidth_hz),
    "radio.noise_figure_db": _Key(_float, LinkBudget.noise_figure_db),
    "radio.thermal_noise_dbm_hz": _Key(_float, LinkBudget.thermal_noise_dbm_hz),
    "model.assoc": _Key(str, "strongest", "--assoc", "BS association",
                        _values(Association)),
    "model.beam": _Key(str, "rect", "--beam", "beam pattern", _values(BeamKind)),
    "model.nt": _Key(_int, None, "--nt", "cosine-beam element count"),
    "model.pathloss": _Key(str, "fspl", "--pathloss", "path-loss model",
                           ("fspl", "a2g")),
    "model.interference": _Key(str, "dominant", "--interference", "interference model",
                               _values(InterferenceMode)),
    "model.peak_gain_db": _Key(_float),
    "model.include_noise": _Key(_bool, True),
    "model.los_mode": _Key(str, "expectation", choices=_values(LosMode)),
    "model.a2g_a": _Key(_float, AirToGroundPathLoss.a),
    "model.a2g_b": _Key(_float, AirToGroundPathLoss.b),
    "model.a2g_eta_los_db": _Key(_float, AirToGroundPathLoss.eta_los_db),
    "model.a2g_eta_nlos_db": _Key(_float, AirToGroundPathLoss.eta_nlos_db),
    "model.bs_positions": _Key(_floats),
    "mc.samples": _Key(_int, 1_000_000, "--samples", "Monte Carlo sample count"),
    "mc.seed": _Key(_int, 0, "--seed", "Monte Carlo seed"),
    "grid.nx": _Key(_int, 501, "--grid-nx", "quadrature/heatmap x cells"),
    "grid.nz": _Key(_int, 301, "--grid-nz", "quadrature/heatmap z cells"),
    "sweep.alpha_min_deg": _Key(_float, 2.0, "--alpha-min-deg", "first uptilt, degrees"),
    "sweep.alpha_max_deg": _Key(_float, 38.0, "--alpha-max-deg", "last uptilt, degrees"),
    "sweep.alpha_step_deg": _Key(_float, 1.0, "--alpha-step-deg", "uptilt step, degrees"),
    "optimize.lo_deg": _Key(_float, 2.0, "--lo-deg", "lowest uptilt, degrees"),
    "optimize.hi_deg": _Key(_float, 38.0, "--hi-deg", "highest uptilt, degrees"),
    "optimize.tol_deg": _Key(_float, 0.05, "--tol-deg", "uptilt tolerance, degrees"),
    "validate.alphas_deg": _Key(_floats, (8.0, 13.0, 17.0, 25.0), "--alphas-deg",
                                "comma-separated uptilt list"),
    "validate.nx": _Key(_int, 2001),
    "validate.nz": _Key(_int, 2001),
}


def _flatten(prefix: str, obj, out: dict) -> None:
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(f"{prefix}{k}.", v, out)
    else:
        out[prefix.rstrip(".")] = obj


def _read_config_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    raw: dict = {}
    if text.lstrip().startswith("{"):
        _flatten("", json.loads(text), raw)
        return raw
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        raw[key.strip()] = value.strip()
    return raw


class RunConfig:
    """Fully resolved configuration: defaults <- config file <- flags."""

    def __init__(self, raw: dict):
        self.values = {key: k.default for key, k in KEYS.items()}
        for key, value in raw.items():
            if key not in KEYS:
                raise ConfigError(f"unknown configuration key: {key}")
            k = KEYS[key]
            try:
                parsed = k.parse(value)
            except ValueError as exc:
                raise ConfigError(f"bad value for {key}: {exc}") from None
            if k.choices and parsed not in k.choices:
                raise ConfigError(
                    f"{key} must be one of {k.choices}, got {parsed!r}")
            self.values[key] = parsed

    def get(self, key: str):
        return self.values[key]

    def require(self, key: str):
        value = self.values[key]
        if value is None:
            raise ConfigError(f"{key} is required (set it in the config file "
                              f"or with the matching flag)")
        return value

    def resolved(self) -> dict:
        return {key: list(v) if isinstance(v, tuple) else v
                for key, v in sorted(self.values.items()) if v is not None}

    def _fields(self, prefix: str) -> dict:
        """The keys under `prefix`, named by the model field they set."""
        return {key[len(prefix):]: v for key, v in self.values.items()
                if key.startswith(prefix)}

    # ---- typed builders -------------------------------------------------

    def scenario(self, alpha_deg: float | None = None) -> CorridorScenario:
        alpha = alpha_deg if alpha_deg is not None else self.require("scenario.alpha_deg")
        return CorridorScenario(
            d1=self.get("scenario.d1_m"),
            h1=self.get("scenario.h1_m"),
            h2=self.get("scenario.h2_m"),
            alpha=math.radians(alpha),
            beta=math.radians(self.require("scenario.beta_deg")),
            tau=float(db_to_linear(self.get("scenario.tau_db"))),
            radio=LinkBudget(**self._fields("radio.")),
        )

    def assumptions(self) -> OracleAssumptions:
        """Model assumptions; the beam is built at each scenario's tilt."""
        return OracleAssumptions(
            association=Association(self.get("model.assoc")),
            interference=InterferenceMode(self.get("model.interference")),
            beam=BeamKind(self.get("model.beam")),
            peak_gain_db=self.get("model.peak_gain_db"),
            n_elements=self.get("model.nt"),
            pathloss=(AirToGroundPathLoss(**self._fields("model.a2g_"))
                      if self.get("model.pathloss") == "a2g"
                      else FreeSpacePathLoss()),
            include_noise=self.get("model.include_noise"),
            bs_positions=self.get("model.bs_positions"),
        )

    def require_closed_form_model(self) -> None:
        """The closed form models the default link only: strongest
        association, the dominant interferer, the rectangular beam, free-space
        loss and the four reference BSs."""
        for key in ("model.assoc", "model.interference", "model.beam",
                    "model.pathloss"):
            if self.get(key) != KEYS[key].default:
                raise ConfigError(
                    f"the closed form needs {key}={KEYS[key].default}, got "
                    f"{self.get(key)} (the oracle and mc commands and "
                    "evaluators model it)")
        if self.get("model.bs_positions") is not None:
            raise ConfigError("the closed form needs the reference BS "
                              "positions; model.bs_positions is set")

    def mc_config(self) -> McConfig:
        return McConfig(
            n_samples=self.get("mc.samples"),
            seed=self.get("mc.seed"),
            assumptions=self.assumptions(),
            los_mode=LosMode(self.get("model.los_mode")),
        )


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on their own exit code, EXIT_USAGE."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_key_flags(p: argparse.ArgumentParser, command: str | None) -> None:
    """Add the flags of the keys that subcommand `command` owns, or for None
    of the keys whose flags go before and after it, each stored under its
    key. An absent flag stores nothing (SUPPRESS), so that a value given
    before the subcommand or in the config file stands."""
    for key, k in KEYS.items():
        section = key.partition(".")[0]
        owner = section if section in _SUBCOMMAND_SECTIONS else None
        if k.flag and owner == command:
            metavar = None if k.choices else k.flag[2:].replace("-", "_").upper()
            p.add_argument(k.flag, dest=key, type=k.parse, choices=k.choices,
                           default=argparse.SUPPRESS, metavar=metavar,
                           help=f"{k.help} ({key})")


def _add_global_flags(p: argparse.ArgumentParser, default) -> None:
    """Flags accepted before and after the subcommand. After it, the default
    is SUPPRESS, so that an absent flag keeps the value given before it."""
    p.add_argument("--config", default=default,
                   help="config file (key=value lines or JSON)")
    _add_key_flags(p, None)
    p.add_argument("--out", default=default,
                   help="output artifact path (heatmap: path prefix)")
    p.add_argument("--format", choices=["csv", "json"],
                   default="csv" if default is None else default,
                   help="sweep output format")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="corridorcov",
        description="SINR outage analysis for UAV corridors with uptilted "
                    "BS antennas")
    _add_global_flags(p, None)
    common = _Parser(add_help=False)
    _add_global_flags(common, argparse.SUPPRESS)

    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, text) in _COMMANDS.items():
        sp = sub.add_parser(name, parents=[common], help=text)
        if name in ("sweep", "optimize"):
            sp.add_argument("--evaluator",
                            choices=["closed_form", "quadrature", "mc"],
                            default="closed_form")
        _add_key_flags(sp, name)
    return p


def _json_dump(obj, path: str | None) -> str:
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    if path:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text + "\n")
    return text


def _artifact(cfg: RunConfig, command: str, payload: dict) -> dict:
    return {"command": command, "config": cfg.resolved(), **payload}


def _result_to_dict(r: closed_form.ClosedFormResult) -> dict:
    return {
        "case": int(r.case),
        "p_out": r.p_out,
        "p_in": r.p_in,
        "borderline": {
            "d2_m": r.borderline.d2, "d3_m": r.borderline.d3,
            "d4_m": r.borderline.d4, "d5_m": r.borderline.d5,
            "gamma1_deg": math.degrees(r.borderline.gamma1),
            "gamma2_deg": math.degrees(r.borderline.gamma2),
        },
        "crossing": {"h3_m": r.crossing.h3, "h4_m": r.crossing.h4},
    }


def _cmd_classify(cfg: RunConfig, args) -> int:
    cfg.require_closed_form_model()
    r = closed_form.outage(cfg.scenario())
    print(f"case={int(r.case)}")
    _json_dump(_artifact(cfg, "classify", _result_to_dict(r)), args.out)
    return 0


def _cmd_analyze(cfg: RunConfig, args) -> int:
    cfg.require_closed_form_model()
    s = cfg.scenario()
    r = closed_form.outage(s)
    print(f"case={int(r.case)} p_out={r.p_out:.6f} p_in={r.p_in:.6f}")
    _json_dump(_artifact(cfg, "analyze", _result_to_dict(r)), args.out)
    return 0


def _cmd_oracle(cfg: RunConfig, args) -> int:
    s = cfg.scenario()
    a = cfg.assumptions()
    nx, nz = cfg.get("grid.nx"), cfg.get("grid.nz")
    p_in = coverage_by_quadrature(s, a, nx, nz)
    print(f"p_in={p_in:.6f} p_out={1.0 - p_in:.6f} grid={nx}x{nz}")
    _json_dump(_artifact(cfg, "oracle",
                         {"p_in": p_in, "p_out": 1.0 - p_in,
                          "nx": nx, "nz": nz}), args.out)
    return 0


def _cmd_mc(cfg: RunConfig, args) -> int:
    s = cfg.scenario()
    r = estimate_outage(s, cfg.mc_config())
    print(f"p_out={r.p_out:.6f} std_err={r.std_err:.6f} n={r.n} seed={r.seed}")
    _json_dump(_artifact(cfg, "mc", {
        "p_out": r.p_out, "std_err": r.std_err,
        "ci95": [r.ci95[0], r.ci95[1]], "n": r.n, "seed": r.seed,
    }), args.out)
    return 0


def _make_evaluator(cfg: RunConfig, args):
    if args.evaluator == "closed_form":
        cfg.require_closed_form_model()
        return sweep.closed_form_evaluator()
    if args.evaluator == "quadrature":
        return sweep.quadrature_evaluator(cfg.assumptions(),
                                          cfg.get("grid.nx"), cfg.get("grid.nz"))
    return sweep.mc_evaluator(cfg.mc_config())


def _cmd_sweep(cfg: RunConfig, args) -> int:
    lo = cfg.get("sweep.alpha_min_deg")
    hi = cfg.get("sweep.alpha_max_deg")
    step = cfg.get("sweep.alpha_step_deg")
    if step <= 0 or hi < lo:
        raise ConfigError("sweep grid needs alpha_min <= alpha_max, step > 0")
    # the points the loop below takes, within one of rounding
    if (hi - lo) / step > MAX_SWEEP_POINTS:
        raise ConfigError(f"sweep grid of about {(hi - lo) / step + 1:.3g} "
                          f"uptilts exceeds {MAX_SWEEP_POINTS}")
    grid_deg = []
    a = lo
    while a <= hi + 1e-9:
        grid_deg.append(round(a, 9))
        a += step
    template = cfg.scenario(alpha_deg=grid_deg[0])
    ev = _make_evaluator(cfg, args)
    curve = sweep.sweep_alpha(template, [math.radians(g) for g in grid_deg], ev)

    rows = list(zip(grid_deg, curve.p_out, curve.cases))
    if args.format == "json":
        payload = {"curve": [{"alpha_deg": alpha_deg,
                              "p_out": None if math.isnan(p_out) else p_out,
                              "case": case,
                              "evaluator": curve.evaluator,
                              "error": curve.errors.get(i)}
                             for i, (alpha_deg, p_out, case) in enumerate(rows)]}
        text = _json_dump(_artifact(cfg, "sweep", payload), args.out)
        if not args.out:
            print(text)
    else:
        lines = [f"# {k}={v}" for k, v in sorted(cfg.resolved().items())]
        lines.append("alpha_deg,p_out,case,evaluator")
        lines += [f"{alpha_deg:g},{p_out:.6f},{'' if case is None else case},"
                  f"{curve.evaluator}" for alpha_deg, p_out, case in rows]
        text = "\n".join(lines) + "\n"
        if args.out:
            with open(args.out, "w", encoding="ascii") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    return 0


def _cmd_optimize(cfg: RunConfig, args) -> int:
    lo = cfg.get("optimize.lo_deg")
    hi = cfg.get("optimize.hi_deg")
    tol = cfg.get("optimize.tol_deg")
    if not lo < hi:
        raise ConfigError("optimize needs optimize.lo_deg < optimize.hi_deg, "
                          f"got {lo:g} and {hi:g} degrees")
    if tol <= 0:
        raise ConfigError(f"optimize.tol_deg must be positive, got {tol:g}")
    template = cfg.scenario(alpha_deg=lo)
    ev = _make_evaluator(cfg, args)
    res = sweep.find_optimal_alpha(template, math.radians(lo),
                                   math.radians(hi), math.radians(tol), ev)
    print(f"alpha_star_deg={math.degrees(res.alpha):.4f} "
          f"p_out={res.p_out:.6f} not_unimodal={str(res.not_unimodal).lower()}")
    _json_dump(_artifact(cfg, "optimize", {
        "alpha_star_deg": math.degrees(res.alpha),
        "p_out": res.p_out,
        "not_unimodal": res.not_unimodal,
        "n_evaluations": res.n_evaluations,
        "evaluator": ev.tag,
        "history": [{"alpha_deg": math.degrees(alpha), "p_out": p_out}
                    for alpha, p_out in res.history],
    }), args.out)
    return 0


def _cmd_heatmap(cfg: RunConfig, args) -> int:
    s = cfg.scenario()
    a = cfg.assumptions()
    nx, nz = cfg.get("grid.nx"), cfg.get("grid.nz")
    field = heatmap.sinr_field(s, a, nx, nz)
    base = args.out if args.out else "heatmap"
    meta = {f"cfg.{k}": v for k, v in cfg.resolved().items()}
    heatmap.write_csv(field, base + ".csv", extra_meta=meta)
    heatmap.write_ppm(field, base + ".ppm", extra_meta=meta)
    print(f"wrote {base}.csv and {base}.ppm ({nx}x{nz})")
    return 0


def _cmd_validate(cfg: RunConfig, args) -> int:
    cfg.require_closed_form_model()
    alphas = cfg.get("validate.alphas_deg")
    if not alphas:
        raise ConfigError("validate needs at least one uptilt (--alphas-deg)")
    nx, nz = cfg.get("validate.nx"), cfg.get("validate.nz")
    work = _Workspace()  # shared by every quadrature and Monte Carlo call
    worst_quad = worst_mc = 0.0
    rows = []
    ok = True
    for alpha_deg in alphas:
        s = cfg.scenario(alpha_deg=alpha_deg)
        r = closed_form.outage(s)
        a = cfg.assumptions()
        q = 1.0 - coverage_by_quadrature(s, a, nx, nz, work=work)
        mc = estimate_outage(s, cfg.mc_config(), work=work)
        dq = abs(r.p_out - q)
        dm = abs(r.p_out - mc.p_out)
        mc_budget = max(0.02, 4.0 * mc.std_err)
        point_ok = dq <= 0.02 and dm <= mc_budget
        ok = ok and point_ok
        worst_quad = max(worst_quad, dq)
        worst_mc = max(worst_mc, dm)
        rows.append({"alpha_deg": alpha_deg, "case": int(r.case),
                     "closed_form": r.p_out, "quadrature": q,
                     "mc": mc.p_out, "mc_std_err": mc.std_err,
                     "quad_diff": dq, "mc_diff": dm, "ok": point_ok})
        print(f"alpha={alpha_deg:g} case={int(r.case)} cf={r.p_out:.5f} "
              f"quad={q:.5f} mc={mc.p_out:.5f} dq={dq:.5f} dm={dm:.5f} "
              f"{'ok' if point_ok else 'FAIL'}")
    print(f"max_quad_diff={worst_quad:.5f} max_mc_diff={worst_mc:.5f} "
          f"{'PASS' if ok else 'FAIL'}")
    _json_dump(_artifact(cfg, "validate", {
        "rows": rows, "max_quad_diff": worst_quad, "max_mc_diff": worst_mc,
        "passed": ok}), args.out)
    return 0 if ok else 2


# name -> (command, help)
_COMMANDS = {
    "classify": (_cmd_classify, "uptilt case id + geometry intermediates"),
    "analyze": (_cmd_analyze, "closed-form outage probability"),
    "oracle": (_cmd_oracle, "quadrature coverage probability"),
    "mc": (_cmd_mc, "Monte Carlo outage estimate"),
    "sweep": (_cmd_sweep, "uptilt sweep"),
    "optimize": (_cmd_optimize, "uptilt optimize"),
    "heatmap": (_cmd_heatmap, "SINR field CSV + PPM image"),
    "validate": (_cmd_validate, "closed-form / quadrature / MC triangle check"),
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    raw: dict = {}
    try:
        if args.config:
            raw.update(_read_config_file(args.config))
        raw.update((k, v) for k, v in vars(args).items() if k in KEYS)
        cfg = RunConfig(raw)
        return _COMMANDS[args.command][0](cfg, args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
