"""Batch front door: scenario configuration, one subcommand per evaluator,
machine-readable outputs.

Configuration merges a config file (flat ``section.key=value`` lines or
JSON, nested or flat) with command-line flag overrides; unknown keys are
errors. Angles are degrees and powers dB/dBm at this boundary only. Every
artifact embeds the fully resolved configuration. Scenario and model flags
may be given before or after the subcommand; given in both places, the
later one wins.

Exit codes:

- 0: success.
- 1: configuration error: an unreadable or malformed config file, an
  unknown key, a bad value, or a scenario outside a model's domain.
- 2: validation failure: ``validate`` found an evaluator disagreeing with
  the closed form beyond its tolerance.
- 3: usage error: an unknown subcommand or flag, or a flag value argparse
  cannot parse.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import closed_form, defaults, heatmap, sweep
from .geometry import CorridorScenario, GeometryError, classify_case
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
    db_to_linear,
)

EXIT_USAGE = 3


class ConfigError(ValueError):
    pass


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "1", "yes"):
        return True
    if t in ("false", "0", "no"):
        return False
    raise ConfigError(f"not a boolean: {text!r}")


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(p) for p in str(text).split(",") if p.strip())


# key -> (parser, default). None default means "unset".
KNOWN_KEYS: dict = {
    "scenario.d1_m": (float, defaults.D1_M),
    "scenario.h1_m": (float, defaults.H1_M),
    "scenario.h2_m": (float, defaults.H2_M),
    "scenario.alpha_deg": (float, None),
    "scenario.beta_deg": (float, None),
    "scenario.tau_db": (float, defaults.TAU_DB),
    "radio.p_tx_dbm": (float, defaults.P_TX_DBM),
    "radio.carrier_hz": (float, defaults.CARRIER_HZ),
    "radio.bandwidth_hz": (float, defaults.BANDWIDTH_HZ),
    "radio.noise_figure_db": (float, defaults.NOISE_FIGURE_DB),
    "radio.thermal_noise_dbm_hz": (float, defaults.THERMAL_NOISE_DBM_HZ),
    "model.beam": (str, "rect"),
    "model.nt": (int, None),
    "model.peak_gain_db": (float, None),
    "model.pathloss": (str, "fspl"),
    "model.assoc": (str, "strongest"),
    "model.interference": (str, "dominant"),
    "model.include_noise": (_parse_bool, True),
    "model.los_mode": (str, "expectation"),
    "model.a2g_a": (float, 4.88),
    "model.a2g_b": (float, 0.43),
    "model.a2g_eta_los_db": (float, 0.1),
    "model.a2g_eta_nlos_db": (float, 21.0),
    "model.bs_positions": (_parse_floats, None),
    "mc.samples": (int, 1_000_000),
    "mc.seed": (int, 0),
    "grid.nx": (int, 501),
    "grid.nz": (int, 301),
    "sweep.alpha_min_deg": (float, 2.0),
    "sweep.alpha_max_deg": (float, 38.0),
    "sweep.alpha_step_deg": (float, 1.0),
    "optimize.lo_deg": (float, 2.0),
    "optimize.hi_deg": (float, 38.0),
    "optimize.tol_deg": (float, 0.05),
    "validate.alphas_deg": (_parse_floats, (8.0, 13.0, 17.0, 25.0)),
    "validate.nx": (int, 2001),
    "validate.nz": (int, 2001),
    "validate.samples": (int, 1_000_000),
}

_CHOICES = {
    "model.beam": ("rect", "cosine"),
    "model.pathloss": ("fspl", "a2g"),
    "model.assoc": ("strongest", "nearest"),
    "model.interference": ("dominant", "sum"),
    "model.los_mode": ("expectation", "bernoulli"),
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
    stripped = text.lstrip()
    raw: dict = {}
    if stripped.startswith("{"):
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


def _coerce(parser, value):
    if parser is _parse_bool:
        return value if isinstance(value, bool) else _parse_bool(str(value))
    if parser is _parse_floats:
        if isinstance(value, (list, tuple)):
            return tuple(float(x) for x in value)
        return _parse_floats(value)
    return parser(value)


class RunConfig:
    """Fully resolved configuration: defaults <- config file <- flags."""

    def __init__(self, raw: dict):
        self.values: dict = {}
        for key, value in raw.items():
            if key not in KNOWN_KEYS:
                raise ConfigError(f"unknown configuration key: {key}")
            parser, _ = KNOWN_KEYS[key]
            try:
                parsed = _coerce(parser, value)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad value for {key}: {value!r} ({exc})")
            if key in _CHOICES and parsed not in _CHOICES[key]:
                raise ConfigError(
                    f"{key} must be one of {_CHOICES[key]}, got {parsed!r}")
            self.values[key] = parsed
        for key, (_, default) in KNOWN_KEYS.items():
            self.values.setdefault(key, default)

    def get(self, key: str):
        return self.values[key]

    def require(self, key: str):
        value = self.values[key]
        if value is None:
            raise ConfigError(f"{key} is required (set it in the config file "
                              f"or with the matching flag)")
        return value

    def resolved(self) -> dict:
        out = {}
        for key in sorted(KNOWN_KEYS):
            v = self.values[key]
            if v is None:
                continue
            out[key] = list(v) if isinstance(v, tuple) else v
        return out

    # ---- typed builders -------------------------------------------------

    def link_budget(self) -> LinkBudget:
        return LinkBudget(
            p_tx_dbm=self.get("radio.p_tx_dbm"),
            carrier_hz=self.get("radio.carrier_hz"),
            bandwidth_hz=self.get("radio.bandwidth_hz"),
            noise_figure_db=self.get("radio.noise_figure_db"),
            thermal_noise_dbm_hz=self.get("radio.thermal_noise_dbm_hz"),
        )

    def scenario(self, alpha_deg: float | None = None) -> CorridorScenario:
        alpha = alpha_deg if alpha_deg is not None else self.require("scenario.alpha_deg")
        beta = self.require("scenario.beta_deg")
        try:
            return CorridorScenario(
                d1=self.get("scenario.d1_m"),
                h1=self.get("scenario.h1_m"),
                h2=self.get("scenario.h2_m"),
                alpha=math.radians(alpha),
                beta=math.radians(beta),
                tau=float(db_to_linear(self.get("scenario.tau_db"))),
                radio=self.link_budget(),
            )
        except ValueError as exc:
            raise ConfigError(str(exc))

    def pathloss(self):
        if self.get("model.pathloss") == "a2g":
            return AirToGroundPathLoss(
                a=self.get("model.a2g_a"), b=self.get("model.a2g_b"),
                eta_los_db=self.get("model.a2g_eta_los_db"),
                eta_nlos_db=self.get("model.a2g_eta_nlos_db"))
        return FreeSpacePathLoss()

    def assumptions(self) -> OracleAssumptions:
        """Model assumptions; the beam is built at each scenario's tilt."""
        return OracleAssumptions(
            association=Association(self.get("model.assoc")),
            interference=(InterferenceMode.DOMINANT_ONLY
                          if self.get("model.interference") == "dominant"
                          else InterferenceMode.SUM_ALL),
            beam=BeamKind(self.get("model.beam")),
            peak_gain_db=self.get("model.peak_gain_db"),
            n_elements=self.get("model.nt"),
            pathloss=self.pathloss(),
            include_noise=self.get("model.include_noise"),
            bs_positions=self.get("model.bs_positions"),
        )

    def mc_config(self) -> McConfig:
        return McConfig(
            n_samples=self.get("mc.samples"),
            seed=self.get("mc.seed"),
            assumptions=self.assumptions(),
            los_mode=LosMode(self.get("model.los_mode")),
        )


_FLAG_TO_KEY = {
    "alpha_deg": "scenario.alpha_deg",
    "beta_deg": "scenario.beta_deg",
    "d1": "scenario.d1_m",
    "h1": "scenario.h1_m",
    "h2": "scenario.h2_m",
    "tau_db": "scenario.tau_db",
    "assoc": "model.assoc",
    "beam": "model.beam",
    "nt": "model.nt",
    "pathloss": "model.pathloss",
    "interference": "model.interference",
    "samples": "mc.samples",
    "seed": "mc.seed",
    "grid_nx": "grid.nx",
    "grid_nz": "grid.nz",
}


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on their own exit code, EXIT_USAGE."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_global_flags(p: argparse.ArgumentParser, default) -> None:
    """Flags accepted before and after the subcommand. After it, the default
    is SUPPRESS, so that an absent flag keeps the value given before it."""
    p.add_argument("--config", default=default,
                   help="config file (key=value lines or JSON)")
    p.add_argument("--alpha-deg", type=float, default=default,
                   help="antenna uptilt, degrees")
    p.add_argument("--beta-deg", type=float, default=default,
                   help="beamwidth, degrees")
    p.add_argument("--d1", type=float, default=default, help="BS spacing, m")
    p.add_argument("--h1", type=float, default=default,
                   help="corridor bottom height, m")
    p.add_argument("--h2", type=float, default=default,
                   help="corridor top height, m")
    p.add_argument("--tau-db", type=float, default=default,
                   help="SINR threshold, dB")
    p.add_argument("--assoc", choices=["strongest", "nearest"], default=default)
    p.add_argument("--beam", choices=["rect", "cosine"], default=default)
    p.add_argument("--nt", type=int, default=default,
                   help="cosine-beam element count")
    p.add_argument("--pathloss", choices=["fspl", "a2g"], default=default)
    p.add_argument("--interference", choices=["dominant", "sum"],
                   default=default)
    p.add_argument("--samples", type=int, default=default,
                   help="Monte Carlo sample count")
    p.add_argument("--seed", type=int, default=default, help="Monte Carlo seed")
    p.add_argument("--grid-nx", type=int, default=default,
                   help="quadrature/heatmap x cells")
    p.add_argument("--grid-nz", type=int, default=default,
                   help="quadrature/heatmap z cells")
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
    sub.add_parser("classify", parents=[common],
                   help="uptilt case id + geometry intermediates")
    sub.add_parser("analyze", parents=[common],
                   help="closed-form outage probability")
    sub.add_parser("oracle", parents=[common],
                   help="quadrature coverage probability")
    sub.add_parser("mc", parents=[common], help="Monte Carlo outage estimate")
    for name in ("sweep", "optimize"):
        sp = sub.add_parser(name, parents=[common], help=f"uptilt {name}")
        sp.add_argument("--evaluator",
                        choices=["closed_form", "quadrature", "mc"],
                        default="closed_form")
        if name == "sweep":
            sp.add_argument("--alpha-min-deg", type=float)
            sp.add_argument("--alpha-max-deg", type=float)
            sp.add_argument("--alpha-step-deg", type=float)
        else:
            sp.add_argument("--lo-deg", type=float)
            sp.add_argument("--hi-deg", type=float)
            sp.add_argument("--tol-deg", type=float)
    sub.add_parser("heatmap", parents=[common],
                   help="SINR field CSV + PPM image")
    vp = sub.add_parser("validate", parents=[common],
                        help="closed-form / quadrature / MC triangle check")
    vp.add_argument("--alphas-deg", help="comma-separated uptilt list")
    return p


def _json_dump(obj, path: str | None) -> str:
    text = json.dumps(obj, indent=2, sort_keys=True)
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
        "raw_p_in": r.raw_p_in,
        "value_clamped": r.value_clamped,
        "clamped": list(r.clamped),
        "borderline": {
            "d2_m": r.borderline.d2, "d3_m": r.borderline.d3,
            "d4_m": r.borderline.d4, "d5_m": r.borderline.d5,
            "gamma1_deg": math.degrees(r.borderline.gamma1),
            "gamma2_deg": math.degrees(r.borderline.gamma2),
        },
        "crossing": {"h3_m": r.crossing.h3, "h4_m": r.crossing.h4},
        "corners": {
            "h_c3_m": r.corners.h_c3, "h_c4_m": r.corners.h_c4,
            "h_c5_m": r.corners.h_c5, "h_c6_m": r.corners.h_c6,
        },
    }


def _cmd_classify(cfg: RunConfig, args) -> int:
    s = cfg.scenario()
    case = classify_case(s)
    r = closed_form.outage(s)
    print(f"case={int(case)}")
    _json_dump(_artifact(cfg, "classify", _result_to_dict(r)), args.out)
    return 0


def _cmd_analyze(cfg: RunConfig, args) -> int:
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
        return sweep.closed_form_evaluator()
    if args.evaluator == "quadrature":
        return sweep.quadrature_evaluator(cfg.assumptions(),
                                          cfg.get("grid.nx"), cfg.get("grid.nz"))
    return sweep.mc_evaluator(cfg.mc_config())


def _cmd_sweep(cfg: RunConfig, args) -> int:
    lo = args.alpha_min_deg if args.alpha_min_deg is not None \
        else cfg.get("sweep.alpha_min_deg")
    hi = args.alpha_max_deg if args.alpha_max_deg is not None \
        else cfg.get("sweep.alpha_max_deg")
    step = args.alpha_step_deg if args.alpha_step_deg is not None \
        else cfg.get("sweep.alpha_step_deg")
    if step <= 0 or hi < lo:
        raise ConfigError("sweep grid needs alpha_min <= alpha_max, step > 0")
    grid_deg = []
    a = lo
    while a <= hi + 1e-9:
        grid_deg.append(round(a, 9))
        a += step
    template = cfg.scenario(alpha_deg=grid_deg[0])
    ev = _make_evaluator(cfg, args)
    curve = sweep.sweep_alpha(template, [math.radians(g) for g in grid_deg], ev)

    rows = []
    for i, alpha_deg in enumerate(grid_deg):
        case = curve.cases[i] if curve.cases else None
        rows.append((alpha_deg, curve.p_out[i],
                     "" if case is None else case, curve.evaluator))
    if args.format == "json":
        payload = {"curve": [{"alpha_deg": r[0], "p_out": r[1],
                              "case": (r[2] if r[2] != "" else None),
                              "evaluator": r[3]} for r in rows]}
        text = _json_dump(_artifact(cfg, "sweep", payload), args.out)
        if not args.out:
            print(text)
    else:
        lines = [f"# {k}={v}" for k, v in sorted(cfg.resolved().items())]
        lines.append("alpha_deg,p_out,case,evaluator")
        lines += [f"{r[0]:g},{r[1]:.6f},{r[2]},{r[3]}" for r in rows]
        text = "\n".join(lines) + "\n"
        if args.out:
            with open(args.out, "w", encoding="ascii") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    return 0


def _cmd_optimize(cfg: RunConfig, args) -> int:
    lo = args.lo_deg if args.lo_deg is not None else cfg.get("optimize.lo_deg")
    hi = args.hi_deg if args.hi_deg is not None else cfg.get("optimize.hi_deg")
    tol = args.tol_deg if args.tol_deg is not None else cfg.get("optimize.tol_deg")
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
    alphas = (_parse_floats(args.alphas_deg) if args.alphas_deg
              else cfg.get("validate.alphas_deg"))
    nx, nz = cfg.get("validate.nx"), cfg.get("validate.nz")
    n_mc = cfg.get("validate.samples")
    worst_quad = worst_mc = 0.0
    rows = []
    ok = True
    for alpha_deg in alphas:
        s = cfg.scenario(alpha_deg=alpha_deg)
        r = closed_form.outage(s)
        a = cfg.assumptions()
        q = 1.0 - coverage_by_quadrature(s, a, nx, nz)
        mc = estimate_outage(s, McConfig(n_samples=n_mc,
                                         seed=cfg.get("mc.seed"),
                                         assumptions=a))
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


_COMMANDS = {
    "classify": _cmd_classify,
    "analyze": _cmd_analyze,
    "oracle": _cmd_oracle,
    "mc": _cmd_mc,
    "sweep": _cmd_sweep,
    "optimize": _cmd_optimize,
    "heatmap": _cmd_heatmap,
    "validate": _cmd_validate,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    raw: dict = {}
    try:
        if args.config:
            raw.update(_read_config_file(args.config))
        for flag, key in _FLAG_TO_KEY.items():
            value = getattr(args, flag, None)
            if value is not None:
                raw[key] = value
        cfg = RunConfig(raw)
        return _COMMANDS[args.command](cfg, args)
    except (ConfigError, GeometryError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
