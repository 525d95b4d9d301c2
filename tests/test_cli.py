import json
import threading
import warnings

import pytest

from corridorcov import cli, closed_form
from corridorcov.defaults import reference_scenario


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def _run(args, tmp_path, name="out.json"):
    """Exit code and artifact; NaN or Infinity in the artifact fails."""
    out = tmp_path / name
    code = cli.main([*args, "--out", str(out)])
    return code, json.loads(out.read_text(), parse_constant=_reject_constant)


def test_scenario_flags_after_the_subcommand(tmp_path):
    before = _run(["--beta-deg", "40", "--alpha-deg", "13", "--tau-db", "3",
                   "analyze"], tmp_path, "before.json")
    after = _run(["analyze", "--beta-deg", "40", "--alpha-deg", "13",
                  "--tau-db", "3"], tmp_path, "after.json")
    mixed = _run(["--beta-deg", "40", "analyze", "--alpha-deg", "13",
                  "--tau-db", "3"], tmp_path, "mixed.json")
    assert before[0] == after[0] == mixed[0] == 0
    assert before[1] == after[1] == mixed[1]
    assert before[1]["config"]["scenario.tau_db"] == 3.0


def test_flag_after_the_subcommand_wins(tmp_path):
    code, art = _run(["--beta-deg", "30", "--samples", "5000", "mc",
                      "--beta-deg", "40", "--alpha-deg", "13"], tmp_path)
    assert code == 0
    assert art["config"]["scenario.beta_deg"] == 40.0
    assert art["config"]["mc.samples"] == 5000 and art["n"] == 5000


def test_cosine_sweep_moves_with_alpha(tmp_path):
    code, art = _run(["--beta-deg", "40", "--beam", "cosine", "sweep",
                      "--evaluator", "quadrature", "--grid-nx", "64",
                      "--grid-nz", "64", "--alpha-min-deg", "4",
                      "--alpha-max-deg", "28", "--alpha-step-deg", "8",
                      "--format", "json"], tmp_path)
    assert code == 0
    p_out = [row["p_out"] for row in art["curve"]]
    assert len(p_out) == 4 and len(set(p_out)) == 4


@pytest.mark.parametrize("alpha_deg, case", [
    (4, 1), (8, 2), (13, 3), (17, 4), (25, 5), (35, 6),
])
def test_classify_prints_the_outage_case(alpha_deg, case, tmp_path, capsys):
    code, art = _run(["--beta-deg", "40", "--alpha-deg", str(alpha_deg),
                      "classify"], tmp_path)
    assert code == 0
    assert capsys.readouterr().out == f"case={case}\n"
    assert art["command"] == "classify" and art["case"] == case


def test_classify_outside_the_analytic_domain_exits_1(tmp_path, capsys):
    out = tmp_path / "out.json"
    code = cli.main(["--beta-deg", "40", "--alpha-deg", "55", "classify",
                     "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert "case=" not in captured.out
    assert "alpha + beta < pi/2" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["bogus"],
    [],
    ["--beta-deg", "forty", "analyze"],
    ["analyze", "--no-such-flag"],
    ["--beam", "pencil", "analyze"],
    ["sweep", "--evaluator", "guess"],
    # non-finite flag values; the first made the sweep grid grow forever
    ["--beta-deg", "40", "sweep", "--alpha-max-deg", "inf"],
    ["--beta-deg", "40", "sweep", "--alpha-step-deg", "nan"],
    ["--tau-db", "nan", "--beta-deg", "40", "sweep"],
    ["--beta-deg", "40", "validate", "--alphas-deg", "13,inf"],
    ["--beta-deg", "40", "validate", "--alphas-deg", "13,x"],
])
def test_usage_errors_exit_3(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_USAGE == 3
    captured = capsys.readouterr()
    assert "usage:" in captured.err and captured.out == ""


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--help"])
    assert exc.value.code == 0
    assert "--beta-deg" in capsys.readouterr().out


def test_configuration_error_exits_1(tmp_path, capsys):
    assert cli.main(["analyze", "--alpha-deg", "13"]) == 1  # beta unset
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("scenario.no_such_key=1\n")
    assert cli.main(["--config", str(cfg), "--beta-deg", "40",
                     "--alpha-deg", "13", "analyze"]) == 1
    assert "unknown configuration key" in capsys.readouterr().err


SMALL_VALIDATE = "validate.nx=96\nvalidate.nz=96\nvalidate.samples=20000\n"


def test_validate_passes_off_the_reference_beam(tmp_path):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL_VALIDATE)
    code, art = _run(["--config", str(cfg), "--beta-deg", "20", "--tau-db",
                      "5", "validate", "--alphas-deg", "2,8,14,20"], tmp_path)
    assert code == 0
    assert art["passed"] is True


def test_validation_failure_exits_2(tmp_path):
    # at -30 dBm the link is noise-limited: the oracles see outage
    # everywhere, and the closed form does not model noise
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL_VALIDATE + "radio.p_tx_dbm=-30\n")
    code, art = _run(["--config", str(cfg), "--beta-deg", "20", "--tau-db",
                      "5", "validate", "--alphas-deg", "2,8,14,20"], tmp_path)
    assert code == 2
    assert art["passed"] is False
    for row in art["rows"]:
        assert row["quadrature"] == row["mc"] == 1.0
        s = reference_scenario(row["alpha_deg"], 20, tau_db=5)
        assert row["closed_form"] == closed_form.outage(s).p_out < 1.0


@pytest.mark.parametrize("flag, cfg_text", [
    (["--alphas-deg", ","], ""),
    ([], "validate.alphas_deg=\n"),
])
def test_validate_without_uptilts_exits_1(flag, cfg_text, tmp_path, capsys):
    # an empty uptilt list would check nothing and still print PASS
    cfg = tmp_path / "empty.cfg"
    cfg.write_text(cfg_text)
    out = tmp_path / "out.json"
    code = cli.main(["--config", str(cfg), "--beta-deg", "40", "validate",
                     *flag, "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert "at least one uptilt" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("config, argv, message", [
    ("", ["--beam", "cosine", "--nt", "1", "oracle"], "element count"),
    ("", ["--grid-nx", "10", "oracle"], "n_x, n_z >= 64"),
    ("", ["--samples", "0", "mc"], "n_samples"),
    ("", ["--grid-nx", "0", "heatmap"], "counts > 0"),
    # config file values that are not finite, integral or numbers
    ("radio.p_tx_dbm=nan", ["--grid-nx", "64", "--grid-nz", "64", "sweep",
                            "--evaluator", "quadrature"], "radio.p_tx_dbm"),
    ("radio.p_tx_dbm=nan", ["heatmap"], "radio.p_tx_dbm"),
    ("scenario.h2_m=inf", ["mc"], "scenario.h2_m"),
    ("model.bs_positions=0,inf", ["oracle"], "model.bs_positions"),
    ("validate.alphas_deg=13,nan", ["validate"], "validate.alphas_deg"),
    ('{"mc": {"samples": 2000.9}}', ["mc"], "mc.samples"),
    ('{"mc": {"seed": true}}', ["mc"], "mc.seed"),
    ('{"scenario": {"tau_db": false}}', ["analyze"], "scenario.tau_db"),
    # finite values past the float range: numpy's overflow warning came
    # before the error, and the carrier's NaN SINR read as p_out=1, exit 0
    ("", ["--tau-db", "1e6", "analyze"], "tau must be finite"),
    ("radio.carrier_hz=1e-300", ["--grid-nx", "64", "--grid-nz", "64",
                                 "oracle"], "wavelength_m"),
    # distances whose squares or losses leave the float range: numpy's
    # overflow warning, then p_out=1, exit 0
    ("", ["--d1", "1e300", "--samples", "100", "mc"], "finite loss"),
    ("", ["--h2", "1e200", "--grid-nx", "64", "--grid-nz", "64", "oracle"],
     "finite loss"),
    ("", ["--h2", "1e300", "--grid-nx", "8", "--grid-nz", "8", "heatmap"],
     "finite loss"),
    ("model.pathloss=a2g", ["--alpha-deg", "-5", "--d1", "1e151",
                            "--grid-nx", "64", "--grid-nz", "64", "oracle"],
     "finite loss"),
    # powers past the float range: numpy's overflow warning, then
    # p_out=0.701172 (inf / inf read as SINR 0) or a SINR overflow, exit 0
    ("radio.p_tx_dbm=3110", ["--grid-nx", "64", "--grid-nz", "64", "oracle"],
     "received power"),
    ("model.peak_gain_db=3075", ["--grid-nx", "64", "--grid-nz", "64",
                                 "oracle"], "received power"),
    ("radio.p_tx_dbm=3110", ["--samples", "100", "mc"], "received power"),
    ("radio.p_tx_dbm=3110", ["--grid-nx", "8", "--grid-nz", "8", "heatmap"],
     "received power"),
    # a bad configuration fails the sweep before its first uptilt: it was a
    # NaN row at every uptilt, exit 0
    ("", ["--grid-nx", "32", "sweep", "--evaluator", "quadrature"],
     "n_x, n_z >= 64"),
    ("model.bs_positions=0,0", ["--samples", "100", "sweep", "--evaluator",
                                "mc"], "strictly increasing"),
    ("", ["--beam", "cosine", "--nt", "1", "--samples", "100", "sweep",
          "--evaluator", "mc"], "element count"),
])
def test_rejected_model_values_exit_1(config, argv, message, tmp_path,
                                      capsys):
    # a value that a key's parser, a model or an evaluator rejects is a bad
    # value, not a crash
    cfg = tmp_path / "model.cfg"
    cfg.write_text(config)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["--config", str(cfg), "--beta-deg", "40",
                         "--alpha-deg", "13", *argv, "--out",
                         str(tmp_path / "out")])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == "" and list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("argv, message", [
    (["--lo-deg", "20", "--hi-deg", "20"], "optimize needs "
     "optimize.lo_deg < optimize.hi_deg, got 20 and 20 degrees"),
    (["--lo-deg", "30", "--hi-deg", "10"], "optimize needs "
     "optimize.lo_deg < optimize.hi_deg, got 30 and 10 degrees"),
    (["--tol-deg", "-1"], "optimize.tol_deg must be positive, got -1"),
], ids=["empty", "reversed", "negative-tol"])
def test_bad_optimize_range_exits_1_in_degrees(argv, message, tmp_path,
                                               capsys):
    # the range is checked where the keys are read, not after the
    # conversion to radians
    out = tmp_path / "optimize.json"
    code = cli.main(["--beta-deg", "40", "optimize", *argv,
                     "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == "" and not out.exists()


def test_oversized_sweep_grid_exits_1_at_once(capsys):
    # the grid's points are counted before any is built: a 1e-9 degree
    # step asks for 3.6e10 of them
    codes = []
    run = threading.Thread(target=lambda: codes.append(cli.main(
        ["--beta-deg", "40", "sweep", "--alpha-step-deg", "1e-9"])),
        daemon=True)
    run.start()
    run.join(timeout=10)
    assert not run.is_alive() and codes == [1]
    assert "exceeds 100000" in capsys.readouterr().err


def test_json_config_takes_integral_numbers(tmp_path):
    cfg = tmp_path / "int.json"
    cfg.write_text('{"mc": {"samples": 1e6, "seed": 3.0}}')
    code, art = _run(["--config", str(cfg), "--beta-deg", "40",
                      "--alpha-deg", "13", "analyze"], tmp_path)
    assert code == 0
    assert art["config"]["mc.samples"] == 1_000_000
    assert type(art["config"]["mc.seed"]) is int


# A value other than the default for every key that has a flag.
FLAG_VALUES = {
    "scenario.alpha_deg": "12.5", "scenario.beta_deg": "35",
    "scenario.d1_m": "900", "scenario.h1_m": "120", "scenario.h2_m": "280",
    "scenario.tau_db": "3", "model.assoc": "nearest", "model.beam": "cosine",
    "model.nt": "8", "model.pathloss": "a2g", "model.interference": "sum",
    "mc.samples": "3000", "mc.seed": "7", "grid.nx": "64", "grid.nz": "64",
    "sweep.alpha_min_deg": "30", "sweep.alpha_max_deg": "5",
    "sweep.alpha_step_deg": "9", "optimize.lo_deg": "10",
    "optimize.hi_deg": "20", "optimize.tol_deg": "1",
    "validate.alphas_deg": "13",
}


@pytest.mark.parametrize("key", [k for k, v in cli.KEYS.items() if v.flag])
def test_flag_sets_its_key_as_the_config_file_does(key, tmp_path, capsys):
    flag = cli.KEYS[key].flag
    section = key.partition(".")[0]
    # keys outside the subcommand sections go to mc, which takes any model
    command = section if section in ("sweep", "optimize", "validate") else "mc"
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    help_text = capsys.readouterr().out
    assert flag in help_text and f"({key})" in help_text

    base = ("scenario.beta_deg=40\nscenario.alpha_deg=13\nmc.samples=2000\n"
            + SMALL_VALIDATE)
    by_flag, by_line = tmp_path / "flag.cfg", tmp_path / "line.cfg"
    by_flag.write_text(base)
    by_line.write_text(base + f"{key}={FLAG_VALUES[key]}\n")
    extra = ["--format", "json"] if command == "sweep" else []
    flag_run = _run(["--config", str(by_flag), command, *extra,
                     flag, FLAG_VALUES[key]], tmp_path, "flag.json")
    line_run = _run(["--config", str(by_line), command, *extra],
                    tmp_path, "line.json")
    assert flag_run[0] == line_run[0] == 0
    assert flag_run[1] == line_run[1]
    value = flag_run[1]["config"][key]
    assert type(value) is type(line_run[1]["config"][key])
    assert value != cli.RunConfig({}).resolved().get(key)


def test_sweep_json_records_failure_reasons(tmp_path):
    # alpha + beta reaches 90 degrees from alpha = 50: gaps with a reason,
    # written as strict JSON (null, not NaN)
    code, art = _run(["--beta-deg", "40", "sweep", "--alpha-min-deg", "40",
                      "--alpha-max-deg", "55", "--alpha-step-deg", "5",
                      "--format", "json"], tmp_path)
    assert code == 0
    curve = art["curve"]
    assert [row["alpha_deg"] for row in curve] == [40.0, 45.0, 50.0, 55.0]
    assert [row["error"] for row in curve[:2]] == [None, None]
    assert all(isinstance(row["p_out"], float) for row in curve[:2])
    for row in curve[2:]:
        assert row["p_out"] is None and row["case"] is None
        assert "alpha + beta < pi/2" in row["error"]


def test_mc_sweep_records_overflowing_distances_as_gaps(tmp_path):
    # the held samples' losses leave the float range: a gap with a reason
    # at every uptilt, not p_out 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, art = _run(["--beta-deg", "40", "--d1", "1e300", "--samples",
                          "100", "sweep", "--evaluator", "mc",
                          "--alpha-min-deg", "8", "--alpha-max-deg", "9",
                          "--format", "json"], tmp_path)
    assert code == 0
    assert [row["alpha_deg"] for row in art["curve"]] == [8.0, 9.0]
    for row in art["curve"]:
        assert row["p_out"] is None and "finite loss" in row["error"]


@pytest.mark.parametrize("evaluator", ["mc", "quadrature"])
def test_sweep_records_overflowing_powers_as_gaps(evaluator, tmp_path):
    # the powers leave the float range at every uptilt: a gap with a
    # reason, not a wrong p_out and numpy's overflow warning
    cfg = tmp_path / "power.cfg"
    cfg.write_text("radio.p_tx_dbm=3110\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, art = _run(["--config", str(cfg), "--beta-deg", "40",
                          "--samples", "100", "--grid-nx", "64",
                          "--grid-nz", "64", "sweep", "--evaluator",
                          evaluator, "--alpha-min-deg", "8",
                          "--alpha-max-deg", "9", "--format", "json"],
                         tmp_path)
    assert code == 0
    assert [row["alpha_deg"] for row in art["curve"]] == [8.0, 9.0]
    for row in art["curve"]:
        assert row["p_out"] is None and "received power" in row["error"]


def test_optimize_json_records_history(tmp_path):
    code, art = _run(["--beta-deg", "40", "optimize", "--lo-deg", "4",
                      "--hi-deg", "30", "--tol-deg", "0.5"], tmp_path)
    assert code == 0
    history = art["history"]
    assert len(history) == art["n_evaluations"]
    alphas = [h["alpha_deg"] for h in history]
    assert alphas == sorted(alphas) and alphas[0] == pytest.approx(4.0)
    assert set(history[0]) == {"alpha_deg", "p_out"}
    assert {"alpha_deg": art["alpha_star_deg"], "p_out": art["p_out"]} in history
    assert {"alpha_star_deg", "p_out", "n_evaluations", "not_unimodal",
            "evaluator"} <= set(art)


@pytest.mark.parametrize("argv, config", [
    (["sweep", "--alpha-min-deg", "10", "--alpha-max-deg", "11",
      "--alpha-step-deg", "0.5", "--format", "json"],
     {"sweep.alpha_min_deg": 10.0, "sweep.alpha_max_deg": 11.0,
      "sweep.alpha_step_deg": 0.5}),
    (["optimize", "--lo-deg", "10", "--hi-deg", "20", "--tol-deg", "1"],
     {"optimize.lo_deg": 10.0, "optimize.hi_deg": 20.0,
      "optimize.tol_deg": 1.0}),
    (["validate", "--alphas-deg", "13"],
     {"validate.alphas_deg": [13.0]}),
], ids=["sweep", "optimize", "validate"])
def test_artifact_records_subcommand_flags(argv, config, tmp_path):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL_VALIDATE)
    code, art = _run(["--config", str(cfg), "--beta-deg", "40", *argv],
                     tmp_path)
    assert code == 0
    assert {k: art["config"][k] for k in config} == config
    if "curve" in art:
        assert [row["alpha_deg"] for row in art["curve"]] == [10.0, 10.5, 11.0]
    if "history" in art:
        assert art["history"][0]["alpha_deg"] == pytest.approx(10.0)
    if "rows" in art:
        assert [row["alpha_deg"] for row in art["rows"]] == [13.0]


@pytest.mark.parametrize("model", [
    "model.assoc=nearest", "model.interference=sum", "model.beam=cosine",
    "model.pathloss=a2g", "model.bs_positions=0,1000",
], ids=["nearest", "sum", "cosine", "a2g", "bs_positions"])
@pytest.mark.parametrize("command", [
    ["analyze"], ["classify"], ["validate"],
    ["sweep", "--evaluator", "closed_form"],
    ["optimize", "--evaluator", "closed_form"],
], ids=["analyze", "classify", "validate", "sweep", "optimize"])
def test_closed_form_rejects_models_it_does_not_cover(model, command,
                                                      tmp_path, capsys):
    cfg = tmp_path / "model.cfg"
    cfg.write_text(model + "\n")
    out = tmp_path / "out.json"
    code = cli.main(["--config", str(cfg), "--beta-deg", "40", "--alpha-deg",
                     "13", *command, "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert "the closed form needs" in captured.err
    assert "p_out" not in captured.out and not out.exists()


@pytest.mark.parametrize("evaluator", ["quadrature", "mc"])
def test_numeric_evaluators_accept_every_model(evaluator, tmp_path):
    code, art = _run(["--beta-deg", "40", "--assoc", "nearest", "--beam",
                      "cosine", "--pathloss", "a2g", "--interference", "sum",
                      "--samples", "5000", "--grid-nx", "64", "--grid-nz",
                      "64", "optimize", "--evaluator", evaluator, "--lo-deg",
                      "10", "--hi-deg", "20", "--tol-deg", "4"], tmp_path)
    assert code == 0 and art["evaluator"] == evaluator
