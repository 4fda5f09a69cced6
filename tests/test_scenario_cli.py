import filecmp

import pytest

from ussir.cli import main
from ussir.scenario import (
    ScenarioError,
    build_model,
    bundled_scenario_path,
    bundled_scenarios,
    load_scenario,
    sim_config,
)

MINIMAL_XC = """
[model]
id = xc

[params]
beta = "0.13"
gamma = "0.9"
epsilon = "0.15"
sigma = "0.12"
Lambda = "0.5"
mu = "0.07"

[initial]
state = (2.0, 0.8, 1.0)

[sim]
dt = 0.001
horizon = 1
seed = 3
paths = 2
"""


MINIMAL_CUSTOM = """
[model]
id = custom
domain = octant
brownian_dim = 1

[initial]
state = (1.0, 0.5, 0.25)

[params]
b1 = "-0.2*x*y"
b2 = "0.2*x*y-0.1*y"
b3 = "0.1*y"
sigma11 = "0"
sigma21 = "0.05*y"
sigma31 = "0"
"""


def _write(tmp_path, text, name="case.scn"):
    target = tmp_path / name
    target.write_text(text)
    return target


class TestLoad:
    def test_bundled_table1(self):
        cfg = load_scenario(bundled_scenario_path("table1"))
        assert cfg.model_id == "ex1"
        assert cfg.params["beta"] == "0.3+0.1*sin(4*t)"
        assert cfg.initial_state == (0.8, 0.19, 0.01)
        assert cfg.dt == 0.001
        assert cfg.paths == 50

    def test_all_bundled_scenarios_load_and_build(self):
        names = bundled_scenarios()
        assert len(names) == 7
        for name in names:
            cfg = load_scenario(bundled_scenario_path(name))
            model = build_model(cfg)
            assert model.model_id == cfg.model_id

    def test_unknown_bundled_name(self):
        with pytest.raises(ScenarioError, match="no bundled scenario"):
            bundled_scenario_path("table99")

    def test_zero_dt_rejected(self, tmp_path):
        bad = MINIMAL_XC.replace("dt = 0.001", "dt = 0")
        with pytest.raises(ScenarioError, match="dt must be positive"):
            load_scenario(_write(tmp_path, bad))

    def test_missing_parameter_names_requirements(self, tmp_path):
        bad = MINIMAL_XC.replace('epsilon = "0.15"\n', "")
        with pytest.raises(ScenarioError, match="epsilon"):
            load_scenario(_write(tmp_path, bad))

    def test_unknown_key_rejected(self, tmp_path):
        bad = MINIMAL_XC.replace("seed = 3", "seed = 3\nwibble = 4")
        with pytest.raises(ScenarioError, match="wibble"):
            load_scenario(_write(tmp_path, bad))

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ScenarioError, match="unknown section"):
            load_scenario(_write(tmp_path, MINIMAL_XC + "\n[plotting]\nx = 1\n"))

    def test_duplicate_key_rejected(self, tmp_path):
        bad = MINIMAL_XC.replace("seed = 3", "seed = 3\nseed = 4")
        with pytest.raises(ScenarioError, match="duplicate"):
            load_scenario(_write(tmp_path, bad))

    def test_unquoted_param_rejected(self, tmp_path):
        bad = MINIMAL_XC.replace('beta = "0.13"', "beta = 0.13")
        with pytest.raises(ScenarioError, match="quoted expression"):
            load_scenario(_write(tmp_path, bad))

    def test_key_outside_section(self, tmp_path):
        with pytest.raises(ScenarioError, match="outside"):
            load_scenario(_write(tmp_path, "id = xc\n" + MINIMAL_XC))

    def test_line_number_in_errors(self, tmp_path):
        bad = MINIMAL_XC.replace("state = (2.0, 0.8, 1.0)", "state = (2.0, 0.8")
        with pytest.raises(ScenarioError, match=r"\.scn:\d+"):
            load_scenario(_write(tmp_path, bad))

    def test_cap_required_for_truncated_models(self, tmp_path):
        cfg_text = bundled_scenario_path("table6").read_text()
        without_cap = cfg_text.replace("cap = 2\n", "")
        with pytest.raises(ScenarioError, match="cap"):
            load_scenario(_write(tmp_path, without_cap))

    def test_comments_and_whitespace_tolerated(self, tmp_path):
        text = MINIMAL_XC.replace("[sim]", "# leading comment\n[sim]  ")
        text = text.replace('sigma = "0.12"', 'sigma = "0.12"  # noise amplitude')
        cfg = load_scenario(_write(tmp_path, text))
        assert cfg.params["sigma"] == "0.12"

    def test_inadmissible_initial_state_rejected_at_build(self, tmp_path):
        bad = (
            MINIMAL_XC.replace("id = xc", "id = ex1b")
            .replace('beta = "0.13"', 'beta = "0.17"')
            .replace('gamma = "0.9"', 'gamma1 = "0.12"')
            .replace('epsilon = "0.15"', 'gamma2 = "0.56"')
            .replace('Lambda = "0.5"\n', "")
            .replace('mu = "0.07"\n', "[jumps]\nh1 = 0\nh2 = 0\ng1 = 0\ng2 = 0\n")
        )
        cfg = load_scenario(_write(tmp_path, bad))
        with pytest.raises(ValueError, match="sum"):
            build_model(cfg)  # (2.0, 0.8, 1.0) is not on the simplex

    def test_cap_rejected_where_unused(self, tmp_path):
        with pytest.raises(ScenarioError, match="does not take cap"):
            load_scenario(_write(tmp_path, MINIMAL_XC.replace("id = xc", "id = xc\ncap = 2")))

    def test_custom_partial_jump_group_rejected(self, tmp_path, capsys):
        target = _write(tmp_path, MINIMAL_CUSTOM + 'h1 = "-0.01*x*y"\n')
        with pytest.raises(ScenarioError, match=r"case\.scn: .*small-jump entries \['h2', 'h3'\]"):
            build_model(load_scenario(target))
        assert main(["validate", "--config", str(target)]) == 1
        assert "['h2', 'h3']" in capsys.readouterr().err
        only_h2 = _write(tmp_path, MINIMAL_CUSTOM + 'h2 = "0.01*x*y"\n')
        with pytest.raises(ScenarioError, match=r"\['h1', 'h3'\]"):
            build_model(load_scenario(only_h2))

    @pytest.mark.parametrize("key", ["sigma12", "b4"])
    def test_custom_unknown_params_rejected(self, tmp_path, key):
        target = _write(tmp_path, MINIMAL_CUSTOM + f'{key} = "0"\n')
        with pytest.raises(ScenarioError, match=rf"case\.scn: .*does not take parameters \['{key}'\]"):
            build_model(load_scenario(target))

    def test_sim_config_overrides(self):
        cfg = load_scenario(bundled_scenario_path("table1"))
        sim = sim_config(cfg, seed=9, dt=0.01, horizon=5.0, record_stride=2)
        assert (sim.seed, sim.dt, sim.horizon, sim.record_stride) == (9, 0.01, 5.0, 2)
        sim = sim_config(cfg)
        assert (sim.seed, sim.dt, sim.horizon) == (101, 0.001, 100.0)


class TestCliCommands:
    def test_criteria_writes_report(self, tmp_path, capsys):
        code = main(["criteria", "--config", "table1", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "classification: extinct" in out
        text = (tmp_path / "table1_criteria.txt").read_text()
        assert "extinction_rate_lb: 0.1599999999999999" in text
        csv_text = (tmp_path / "table1_criteria.csv").read_text()
        assert csv_text.startswith("model,classification")

    def test_validate_table2(self, tmp_path, capsys):
        code = main(["validate", "--config", "table2", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "passed=True" in out

    def test_simulate_emits_all_panels(self, tmp_path):
        code = main(
            ["simulate", "--config", "table1", "--out", str(tmp_path), "--horizon", "0.2"]
        )
        assert code == 0
        for label in ("stochastic", "deterministic", "diffusion_only", "jumps_only"):
            target = tmp_path / f"table1_{label}.csv"
            assert target.is_file()
            assert target.read_text().startswith("t,X,Y,Z")

    def test_simulate_skips_missing_noise_panels(self, tmp_path):
        code = main(
            ["simulate", "--config", "table3", "--out", str(tmp_path), "--horizon", "0.2"]
        )
        assert code == 0
        assert (tmp_path / "table3_diffusion_only.csv").is_file()
        assert not (tmp_path / "table3_jumps_only.csv").exists()

    def test_reruns_are_byte_identical(self, tmp_path):
        for sub in ("one", "two"):
            code = main(
                [
                    "simulate",
                    "--config",
                    "table2",
                    "--out",
                    str(tmp_path / sub),
                    "--horizon",
                    "0.5",
                    "--seed",
                    "11",
                ]
            )
            assert code == 0
        match, mismatch, errors = filecmp.cmpfiles(
            tmp_path / "one",
            tmp_path / "two",
            ["table2_stochastic.csv", "table2_deterministic.csv"],
            shallow=False,
        )
        assert not mismatch and not errors

    def test_ensemble_runs_and_reports(self, tmp_path, capsys):
        code = main(
            [
                "ensemble",
                "--config",
                "table1",
                "--out",
                str(tmp_path),
                "--horizon",
                "2",
                "--paths",
                "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "verdict:" in out
        assert (tmp_path / "table1_ensemble.csv").is_file()

    def test_inconsistent_verdict_exits_two(self, tmp_path, capsys):
        # theory says persistent with average at least 1; a short horizon from a
        # small start cannot reach it, so the comparator must flag it
        text = """
[model]
id = ex1b

[params]
beta = "1"
gamma1 = "0"
gamma2 = "1"
sigma = "0"

[jumps]
h1 = 0
h2 = 0
g1 = 0
g2 = 0

[initial]
state = (0.85, 0.1, 0.05)

[sim]
dt = 0.001
horizon = 2
seed = 1
paths = 2
"""
        target = _write(tmp_path, text, "forced.scn")
        code = main(["ensemble", "--config", str(target), "--out", str(tmp_path)])
        assert code == 2
        assert "verdict: inconsistent" in capsys.readouterr().out

    def test_missing_config_is_error(self, capsys):
        assert main(["criteria", "--config", "does-not-exist.scn"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_scenarios_listing(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "table1.scn" in out and "table7.scn" in out

    def test_flag_overrides_beat_file_values(self, tmp_path):
        code = main(
            [
                "simulate",
                "--config",
                "table3",
                "--out",
                str(tmp_path),
                "--horizon",
                "0.1",
                "--dt",
                "0.01",
            ]
        )
        assert code == 0
        lines = (tmp_path / "table3_stochastic.csv").read_text().splitlines()
        # 10 steps at stride 100: records step 0 plus the forced final step
        assert len(lines) == 3
        assert lines[-1].startswith("0.1")
