import json

import pytest

from corridorcov import cli


def _run(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = cli.main([*args, "--out", str(out)])
    return code, json.loads(out.read_text())


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


@pytest.mark.parametrize("argv", [
    ["bogus"],
    [],
    ["--beta-deg", "forty", "analyze"],
    ["analyze", "--no-such-flag"],
    ["--beam", "pencil", "analyze"],
    ["sweep", "--evaluator", "guess"],
])
def test_usage_errors_exit_3(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_USAGE == 3
    assert "usage:" in capsys.readouterr().err


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


def test_validation_failure_exits_2(tmp_path):
    # away from beta = 40, tau = 2 dB the closed form misses the oracles
    cfg = tmp_path / "small.cfg"
    cfg.write_text("validate.nx=96\nvalidate.nz=96\nvalidate.samples=20000\n")
    code, art = _run(["--config", str(cfg), "--beta-deg", "20", "--tau-db",
                      "5", "validate", "--alphas-deg", "2,8,14,20"], tmp_path)
    assert code == 2
    assert art["passed"] is False
