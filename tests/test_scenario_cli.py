import argparse
import filecmp
import hashlib
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import ussir.cli
from test_custom_parity import custom_text
from ussir.cli import main
from ussir.expr import ParseError
from ussir.integrator import simulate
from ussir.montecarlo import EnsembleStats
from ussir.scenario import (
    ScenarioError,
    _parse_value,
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
            build_model(load_scenario(_write(tmp_path, bad)))

    def test_unknown_key_rejected(self, tmp_path):
        for line, key in (("wibble = 4", "wibble"), ('out = "results"', "out")):
            bad = MINIMAL_XC.replace("seed = 3", f"seed = 3\n{line}")
            with pytest.raises(ScenarioError, match=rf"unknown key '{key}' in \[sim\]"):
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

    @pytest.mark.parametrize("value", ["t/100", "x", "0.07"])
    def test_unquoted_param_refused_at_its_line(self, tmp_path, value):
        # neither an expression nor a name nor a numeral loads unquoted
        line = MINIMAL_XC.splitlines().index('mu = "0.07"') + 1
        target = _write(tmp_path, MINIMAL_XC.replace('mu = "0.07"', f"mu = {value}"))
        with pytest.raises(ScenarioError, match=rf"case\.scn:{line}: \[params\] mu must be a quoted expression"):
            load_scenario(target)

    @pytest.mark.parametrize("state", ["(2.0, 0.8, 1.0,)", "(2.0,, 0.8, 1.0)", "()"])
    def test_empty_tuple_entry_refused_at_its_line(self, tmp_path, state):
        line = MINIMAL_XC.splitlines().index("state = (2.0, 0.8, 1.0)") + 1
        target = _write(tmp_path, MINIMAL_XC.replace("state = (2.0, 0.8, 1.0)", f"state = {state}"))
        message = rf"case\.scn:{line}: tuple entries must be numerals in '{re.escape(state)}'"
        with pytest.raises(ScenarioError, match=message):
            load_scenario(target)
        with pytest.raises(ScenarioError, match=r"^where: tuple entries must be numerals in '\(1,,2\)'$"):
            _parse_value("(1,,2)", "where")

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
            build_model(load_scenario(_write(tmp_path, without_cap)))

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
            build_model(load_scenario(_write(tmp_path, MINIMAL_XC.replace("id = xc", "id = xc\ncap = 2"))))

    @pytest.mark.parametrize("line", ["brownian_dim = 3", "domain = octant"])
    def test_named_family_rejects_domain_and_brownian_dim(self, tmp_path, capsys, line):
        key = line.split()[0]
        text = bundled_scenario_path("table1").read_text()
        target = _write(tmp_path, text.replace("id = ex1", f"id = ex1\n{line}"))
        with pytest.raises(ScenarioError, match=rf"case\.scn: model ex1 does not take {key}"):
            load_scenario(target)
        assert main(["validate", "--config", str(target)]) == 1
        assert f"does not take {key}" in capsys.readouterr().err

    def test_unread_coefficient_leaving_the_reals_rejected_at_build(self, tmp_path, capsys):
        text = bundled_scenario_path("table1").read_text()
        bad = text.replace('phi1 = "0.01+0.005*cos(t)"', 'phi1 = "0.01+0.005*cos(t)+1/(t-5)"')
        assert bad != text
        target = _write(tmp_path, bad)
        with pytest.raises(ScenarioError, match=r"division by zero in '1\.0/\(t-5\.0\)'"):
            build_model(load_scenario(target))  # no criterion reads phi1
        for command in ("simulate", "criteria"):
            argv = [command, "--config", str(target), "--out", str(tmp_path)]
            assert main(argv + (["--horizon", "0.01"] if command == "simulate" else [])) == 1
            assert "division by zero" in capsys.readouterr().err

    def test_custom_partial_jump_group_rejected(self, tmp_path, capsys):
        target = _write(tmp_path, MINIMAL_CUSTOM + 'h1 = "-0.01*x*y"\n')
        with pytest.raises(ScenarioError, match=r"case\.scn: .*small-jump entries \['h2', 'h3'\]"):
            build_model(load_scenario(target))
        assert main(["validate", "--config", str(target)]) == 1
        assert "['h2', 'h3']" in capsys.readouterr().err
        only_h2 = _write(tmp_path, MINIMAL_CUSTOM + 'h2 = "0.01*x*y"\n')
        with pytest.raises(ScenarioError, match=r"\['h1', 'h3'\]"):
            build_model(load_scenario(only_h2))

    @pytest.mark.parametrize(
        "dim,message",
        [("0", "brownian_dim must be at least 1, got 0"), ("-2", "brownian_dim must be at least 1, got -2"),
         ("1e12", "brownian_dim = 1000000000000 needs 3000000000000 diffusion entries; \\[params\\] has 6 keys")],
    )
    def test_custom_brownian_dim_checked_before_key_lists(self, tmp_path, capsys, dim, message):
        target = _write(tmp_path, MINIMAL_CUSTOM.replace("brownian_dim = 1", f"brownian_dim = {dim}"))
        with pytest.raises(ScenarioError, match=rf"case\.scn: custom model {message}"):
            build_model(load_scenario(target))
        assert main(["validate", "--config", str(target)]) == 1
        assert "case.scn: custom model brownian_dim" in capsys.readouterr().err

    TABLE3_BETA = 'beta = "0.13+0.01*sin(t)"'

    @pytest.mark.parametrize(
        "name,old,new",
        [
            ("table1", 'xi = "1+t/(1+t)"', 'xi = "0.5"'),
            # the enclosure misses the infimum, so the scan runs and names its own infimum
            ("table1", 'xi = "1+t/(1+t)"', 'xi = "0.9+t/(1+t)"'),
            ("table3", 'mu = "0.07+0.004*cos(t)"', 'mu = "0"'),
            ("table3", TABLE3_BETA, 'beta = "0.13+q"'),
            ("table3", "support = (-2, 2)", "support = (2, -2)"),
            ("table3", "density = 1", "density = -1"),
            ("table3", "state = (2.0, 0.8, 1.0)", "state = (2, -0.8, 1)"),
            ("table3", TABLE3_BETA, 'beta = "' + "(" * 200 + "0.13" + ")" * 200 + '"'),
            ("table3", TABLE3_BETA, 'beta = "' + "-" * 900 + '0.13"'),
            ("table3", TABLE3_BETA, 'beta = "1e400"'),
            ("table3", TABLE3_BETA, 'beta = "1e300*1e300"'),
            ("table3", TABLE3_BETA, 'beta = "sin(1e400)"'),
            ("table3", 'mu = "0.07+0.004*cos(t)"', 'mu = "0.07+0.004*cos(t)"\nq = "1"'),
            ("table6", "cap = 2", "cap = 0"),
            ("table3", 'beta = "0.13+0.01*sin(t)"', 'beta = "1e308+1e308*sin(t)"'),
            # the model builds, and its criterion divides by a zero bound or squares past float range
            ("table3", 'Lambda = "0.5+0.06*sin(t)"', 'Lambda = "0"'),
            ("table3", 'sigma = "0.12+0.01*(sin(t)+cos(t))"', 'sigma = "1e200"'),
            ("table2", 'gamma2 = "0.56+0.01*sin(t)"', 'gamma2 = "0"'),
            ("table6", 'gamma3 = "0.12+0.04*cos(2*t)"', 'gamma3 = "-1"'),
            # numpy overflows while folding a constant, or on the bounds scan grid
            ("table3", TABLE3_BETA, 'beta = "0.13+10^400"'),
            ("table3", TABLE3_BETA, 'beta = "0.13+1e-300*(1e300*t^40)"'),
        ],
        ids=["xi=0.5", "xi-scan-infimum", "mu=0", "unknown-name", "support", "density", "state", "parentheses", "unary-minus",
             "1e400", "1e300*1e300", "sin(1e400)", "extra-param", "cap=0", "infinite-bound",
             "report-Lambda=0", "report-sigma=1e200", "report-gamma2=0", "report-gamma3=-1",
             "folded-overflow", "scan-overflow"],
    )
    def test_value_errors_name_the_file(self, tmp_path, capsys, name, old, new):
        text = bundled_scenario_path(name).read_text()
        assert old in text
        target = _write(tmp_path, text.replace(old, new, 1))
        with warnings.catch_warnings(record=True) as caught:  # a warning would print to stderr too
            warnings.simplefilter("always")
            assert main(["criteria", "--config", str(target), "--out", str(tmp_path)]) == 1
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {target}: ")
        assert "np.float64" not in err[0]
        if old == self.TABLE3_BETA:  # a position into the coefficient's text comes with its name
            assert err[0].startswith(f"error: {target}: xc: coefficient beta: ")
        if new == 'xi = "0.9+t/(1+t)"':
            assert err[0].endswith("ex1: exponent infimum 0.9 is below 1")

    @pytest.mark.parametrize(
        "old,new",
        [("brownian_dim = 1", "brownian_dim = 1\ncap = 2"), ('b1 = "-0.2*x*y"', 'b1 = "-0.2*x*y"\n[jumps]\nh1 = 0.1\n[params]')],
        ids=["cap", "jumps"],
    )
    def test_custom_model_refuses_cap_and_jumps(self, tmp_path, capsys, old, new):
        # its constants are written into its expressions, so a cap or jump constant would go unread
        target = _write(tmp_path, MINIMAL_CUSTOM.replace(old, new))
        with pytest.raises(ScenarioError, match=r"case\.scn: custom model does not take cap or \[jumps\]"):
            build_model(load_scenario(target))
        assert main(["validate", "--config", str(target)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {target}: ")

    @pytest.mark.parametrize("key", ["sigma12", "b4"])
    def test_custom_unknown_params_rejected(self, tmp_path, key):
        target = _write(tmp_path, MINIMAL_CUSTOM + f'{key} = "0"\n')
        with pytest.raises(ScenarioError, match=rf"case\.scn: .*does not take parameters \['{key}'\]"):
            build_model(load_scenario(target))

    @pytest.mark.parametrize(
        "old,new,message",
        [
            ('b2 = "0.2*x*y-0.1*y"', 'b2 = "0.2*x*y-*y"', "drift entry 2: unexpected token '*' (at position 8)"),
            ('sigma21 = "0.05*y"', 'sigma21 = "0.05*+*y"', "diffusion column 1, entry 2: unexpected token '*' (at position 6)"),
            ('b3 = "0.1*y"', 'b3 = "0.1*y"\ng1 = "0"\ng2 = "u*/x"\ng3 = "0"', "large-jump entry 2: unexpected token '/' (at position 2)"),
        ],
        ids=["drift", "diffusion", "jump"],
    )
    def test_custom_parse_error_names_the_entry(self, tmp_path, capsys, old, new, message):
        target = _write(tmp_path, MINIMAL_CUSTOM.replace(old, new))
        with pytest.raises(ScenarioError) as err:
            build_model(load_scenario(target))
        assert isinstance(err.value.__cause__.__cause__, ParseError)  # the position stays on the parse error
        assert main(["criteria", "--config", str(target), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: {target}: custom model {message}\n"

    @pytest.mark.parametrize(
        "old,new,message",
        [
            ("seed = 3", "seed = 1e19", "seed must fit in a signed 64-bit integer"),
            ("horizon = 1", "horizon = 1\nrecord_stride = 0", "record_stride must be a positive integer"),
        ],
        ids=["seed=1e19", "record_stride=0"],
    )
    def test_sim_section_checked_at_load(self, tmp_path, capsys, old, new, message):
        target = _write(tmp_path, MINIMAL_XC.replace(old, new))
        with pytest.raises(ScenarioError, match=rf"case\.scn: \[sim\] {message}"):
            load_scenario(target)
        for command in ("validate", "criteria"):
            assert main([command, "--config", str(target), "--out", str(tmp_path)]) == 1
            assert f"case.scn: [sim] {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old,new,message",
        [
            ("dt = 0.001", "dt = nan", r"case\.scn:\d+: numerals must be finite, got 'nan'"),
            ("horizon = 1", "horizon = inf", r"case\.scn:\d+: numerals must be finite, got 'inf'"),
            ("(2.0, 0.8, 1.0)", "(2.0, nan, 1.0)", r"case\.scn:\d+: numerals must be finite"),
            ("[initial]", "[measure]\nsupport = (-inf, 2)\n[initial]", r"case\.scn:\d+: numerals must be finite"),
            ("seed = 3", "seed = 3\ny_extinct = -1", r"case\.scn: y_extinct must be positive"),
            ("seed = 3", "seed = 3\ny_extinct = 0", r"case\.scn: y_extinct must be positive"),
        ],
        ids=["dt=nan", "horizon=inf", "state=nan", "support=-inf", "y_extinct=-1", "y_extinct=0"],
    )
    def test_non_finite_and_non_positive_numbers_rejected(self, tmp_path, capsys, old, new, message):
        text = MINIMAL_XC.replace(old, new)
        assert text != MINIMAL_XC
        target = _write(tmp_path, text)
        with pytest.raises(ScenarioError, match=message):
            load_scenario(target)
        assert main(["validate", "--config", str(target)]) == 1
        assert "case.scn" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "base,old,new,message",
        [
            (MINIMAL_XC, "[sim]", "[sim", "{target}:{line}: malformed section header '[sim'"),
            (MINIMAL_XC, "seed = 3", "seed 3", "{target}:{line}: expected 'key = value', got 'seed 3'"),
            (MINIMAL_XC, "id = xc", "", "{target}: [model] must set id"),
            (MINIMAL_XC, "paths = 2", "paths = 0", "{target}: paths must be positive"),
            (MINIMAL_XC, 'beta = "0.13"', 'beta = "0.13', "{target}:{line}: unterminated quoted value '\"0.13'"),
            (MINIMAL_CUSTOM, "brownian_dim = 1", "brownian_dim = 1.5",
             "{target}: [model] brownian_dim: expected an integer, got 1.5"),
            (MINIMAL_CUSTOM, "domain = octant", "", "{target}: domain must be 'simplex' or 'octant'"),
            (None, None, None, "cannot read scenario {target}: "),
        ],
        ids=["section-header", "no-equals", "no-id", "paths=0", "unterminated-quote", "brownian_dim=1.5",
             "custom-without-domain", "directory"],
    )
    def test_refusals_name_their_place(self, tmp_path, base, old, new, message):
        # the file, and the line where one line alone is at fault
        target, line = tmp_path, None
        if base is not None:
            assert old in base
            target, line = _write(tmp_path, base.replace(old, new)), base.splitlines().index(old) + 1
        with pytest.raises(ScenarioError, match="^" + re.escape(message.format(target=target, line=line))):
            build_model(load_scenario(target))

    def test_sim_config_overrides(self):
        cfg = load_scenario(bundled_scenario_path("table1"))
        sim = sim_config(cfg, seed=9, dt=0.01, horizon=5.0)
        assert (sim.seed, sim.dt, sim.horizon, sim.record_stride) == (9, 0.01, 5.0, cfg.record_stride)
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

    def test_default_output_directory(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["criteria", "--config", "table1"]) == 0
        assert (tmp_path / "ussir_out" / "table1_criteria.csv").is_file()
        assert "wrote ussir_out/table1_criteria.csv" in capsys.readouterr().out

    def test_validate_table2(self, tmp_path, capsys):
        code = main(["validate", "--config", "table2", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "passed=True" in out

    def test_outputs_end_lines_with_newline_alone(self, tmp_path):
        for command in ("simulate", "ensemble", "criteria"):
            argv = [command, "--config", "table1", "--out", str(tmp_path)]
            assert main(argv + (["--horizon", "0.2"] if command != "criteria" else [])) == 0
        written = sorted(tmp_path.iterdir())
        assert len(written) == 7  # four panels, the ensemble CSV, the criteria text and CSV
        for path in written:
            assert b"\r" not in path.read_bytes(), path.name

    def test_validate_output_is_pinned(self, tmp_path, capsys):
        # validate's lines and exit codes on the bundled tables and the custom restatement of table2
        custom = tmp_path / "table2_custom.scn"
        custom.write_text(custom_text(load_scenario(bundled_scenario_path("table2"))))
        digest = hashlib.sha256()
        for config in [*(f"table{i}" for i in range(1, 8)), str(custom)]:
            code = main(["validate", "--config", config])
            digest.update(capsys.readouterr().out.encode())
            digest.update(f"exit {code}\n".encode())
        assert digest.hexdigest() == "574525a985ef441b99edb133a95b7cc81f671a28f8b757e9e081421c8334ea24"

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

    @pytest.mark.parametrize("name", ["table1", "table3"])
    def test_panels_match_suppressed_copies(self, scenario, reduced, tmp_path, name):
        # the panels are rows of one run; each file is the one-path run of its reduced copy
        panels = {
            "stochastic": {"diffusion": False, "jumps": False},
            "deterministic": {},
            "diffusion_only": {"drift": True, "diffusion": False},
            "jumps_only": {"drift": True, "jumps": False},
        }
        assert main(["simulate", "--config", name, "--out", str(tmp_path / "cli"), "--horizon", "0.5"]) == 0
        cfg, model = scenario(name)
        sim = sim_config(cfg, horizon=0.5)
        written = sorted(p.name for p in (tmp_path / "cli").iterdir())
        expected = [label for label in panels if label != "jumps_only" or model.has_small_jumps]
        assert written == sorted(f"{name}_{label}.csv" for label in expected)
        for label in expected:
            simulate(reduced(model, **panels[label]), cfg.initial_state, sim).write_csv(tmp_path / "alone.csv")
            assert (tmp_path / "cli" / f"{name}_{label}.csv").read_bytes() == (tmp_path / "alone.csv").read_bytes()

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

    def test_ensemble_computes_one_summary(self, tmp_path, capsys, monkeypatch):
        # the CSV writer returns the summary it wrote, and the printed medians read it
        calls, summary = [], EnsembleStats.summary
        monkeypatch.setattr(EnsembleStats, "summary", lambda stats: calls.append(stats) or summary(stats))
        argv = ["ensemble", "--config", "table1", "--out", str(tmp_path), "--horizon", "0.5", "--paths", "3"]
        assert main(argv) == 0 and len(calls) == 1
        median = summary(calls[0])["lyapunov_median"]
        assert f"median_lyapunov: {median:.6g}" in capsys.readouterr().out.splitlines()
        assert f"# lyapunov_median = {median:.17g}" in (tmp_path / "table1_ensemble.csv").read_text().splitlines()

    @pytest.mark.parametrize("b2, line", [("0.2*x*y-0.1*y", r"floor_hits: 0 \(0 of 3 paths\)"),
                                          ("-5", r"floor_hits: [89]\d\d \(3 of 3 paths\)")], ids=["none", "every_path"])
    def test_ensemble_reports_its_clamps(self, tmp_path, capsys, b2, line):
        # with b2 = -5, y = 0.5 reaches zero near step 100 of 400 and is clamped at about every later one
        target = _write(tmp_path, MINIMAL_CUSTOM.replace('b2 = "0.2*x*y-0.1*y"', f'b2 = "{b2}"'))
        argv = ["ensemble", "--config", str(target), "--out", str(tmp_path), "--horizon", "0.4", "--paths", "3"]
        assert main(argv) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("wrote ") and re.fullmatch(line, out[1])

    def test_ensemble_without_criterion_is_inapplicable(self, tmp_path, capsys):
        target = _write(tmp_path, MINIMAL_CUSTOM)
        assert main(["ensemble", "--config", str(target), "--out", str(tmp_path), "--paths", "2"]) == 0
        assert "verdict: inapplicable (no closed-form criterion for this model)" in capsys.readouterr().out

    def test_ensemble_criterion_undefined_on_bounds_names_the_file(self, tmp_path, capsys):
        # xc has a criterion; it divides by the Lambda bound, so Lambda = 0 is an error, not "inapplicable"
        text = bundled_scenario_path("table3").read_text().replace('Lambda = "0.5+0.06*sin(t)"', 'Lambda = "0"')
        target = _write(tmp_path, text)
        argv = ["ensemble", "--config", str(target), "--out", str(tmp_path), "--horizon", "0.1", "--paths", "2"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "verdict" not in captured.out
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {target}: xc criterion is undefined")

    @pytest.mark.parametrize("command", ["validate", "simulate", "ensemble"])
    def test_run_time_errors_name_the_file(self, tmp_path, capsys, command):
        # an octant model is not sampled at build, so ln(x-3) first fails when the model runs
        text = MINIMAL_CUSTOM.replace("(1.0, 0.5, 0.25)", "(2.0, 0.5, 0.25)") + 'h1 = "0.01*ln(x-3)"\nh2 = "0"\nh3 = "0"\n'
        target = _write(tmp_path, text)
        build_model(load_scenario(target))
        argv = [command, "--config", str(target), "--out", str(tmp_path)]
        argv += [] if command == "validate" else ["--horizon", "0.01"]
        assert main(argv + (["--paths", "2"] if command == "ensemble" else [])) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {target}: ln of non-positive argument in 'ln(x-3.0)'"]
        assert not list(tmp_path.glob("*.csv"))  # simulate writes all of its panels or none

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

    @pytest.mark.parametrize(
        "command,flag,value",
        [
            *[(command, "--paths", "7") for command in ("simulate", "criteria", "validate")],
            *[
                (command, flag, value)
                for command in ("criteria", "validate")
                for flag, value in (("--seed", "5"), ("--dt", "0.01"), ("--horizon", "1"))
            ],
        ],
    )
    def test_flag_only_on_commands_that_read_it(self, tmp_path, capsys, monkeypatch, command, flag, value):
        # only simulate and ensemble run paths, so only they take the run flags
        monkeypatch.setattr("ussir.cli.load_scenario", lambda path: pytest.fail(f"loaded {path}"))
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", "table1", "--out", str(tmp_path), flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("slack", ["nan", "inf", "-0.1", "0", "1"])
    def test_bad_slack_rejected_before_simulating(self, tmp_path, capsys, slack):
        with pytest.raises(SystemExit) as exc:
            main(["ensemble", "--config", "table1", "--out", str(tmp_path), f"--slack={slack}"])
        assert exc.value.code == 2
        assert f"argument --slack: {slack!r} is not" in capsys.readouterr().err
        assert not list(tmp_path.glob("*_ensemble.csv"))

    def test_non_finite_flag_is_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", "table3", "--out", str(tmp_path), "--horizon", "inf"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --horizon" in err and "table3.scn" not in err

    @pytest.mark.parametrize(
        "command,flag,value",
        [
            ("simulate", "--horizon", "inf"),
            ("simulate", "--dt", "-1"),
            ("ensemble", "--paths", "0"),
            ("simulate", "--seed", "99999999999999999999"),
        ],
    )
    def test_bad_flag_is_usage_error_before_loading(self, tmp_path, capsys, monkeypatch, command, flag, value):
        # argparse refuses the flag itself, so no scenario file is read or blamed
        def no_load(path):
            raise AssertionError(f"loaded {path}")

        monkeypatch.setattr("ussir.cli.load_scenario", no_load)
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", "table3", "--out", str(tmp_path), flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: {value!r} is not" in err
        assert ".scn" not in err and "Traceback" not in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("route", ["flag", "file"])
    def test_step_count_that_overflows_is_one_error_line(self, tmp_path, capsys, route):
        # horizon / dt overflows to inf: refused with one line that names the file, not a traceback
        if route == "flag":
            source, argv = bundled_scenario_path("table3"), ["ensemble", "--config", "table3", "--dt", "1e-320"]
        else:
            text = MINIMAL_XC.replace("dt = 0.001", "dt = 1e-300").replace("horizon = 1", "horizon = 1e300")
            source = _write(tmp_path, text)
            argv = ["simulate", "--config", str(source)]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 1
        message = f"{'' if route == 'flag' else '[sim] '}horizon / dt must be a finite number of steps"
        assert capsys.readouterr().err.splitlines() == [f"error: {source}: {message}"]
        assert not (tmp_path / "out").exists()

    def test_grid_that_cannot_be_allocated_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        # a horizon or dt that asks for more record steps than memory holds: one line naming the file
        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 72.8 TiB for an array")

        monkeypatch.setattr(ussir.integrator, "run_paths", refuse)
        assert main(["simulate", "--config", "table3", "--out", str(tmp_path / "out")]) == 1
        source = bundled_scenario_path("table3")
        assert capsys.readouterr().err.splitlines() == [f"error: {source}: Unable to allocate 72.8 TiB for an array"]

    def test_two_calls_build_one_parser(self, monkeypatch, capsys):
        built, init = [], argparse.ArgumentParser.__init__
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", lambda self, *a, **k: built.append(self) or init(self, *a, **k))
        ussir.cli._parser.cache_clear()
        assert main(["scenarios"]) == 0 and main(["scenarios"]) == 0
        assert len(built) == 6  # the parser and the parsers of its five commands, once
        # the parser keeps no command: each is looked up when main runs it
        monkeypatch.setattr(ussir.cli, "cmd_validate", lambda args, cfg, model: 7)
        assert main(["validate", "--config", "table1"]) == 7 and len(built) == 6

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


def _fresh(script: str, *args: str) -> str:
    """Run ``script`` in a fresh interpreter that imports ussir from this checkout; its standard output."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestSetUp:
    """Loading and building a scenario imports the scenario layer alone and emits no program."""

    RUN_LAYERS = ("ussir.integrator", "ussir.criteria", "ussir.montecarlo", "ussir.cli", "fractions")

    def test_build_loads_no_run_layer_and_emits_nothing(self):
        out = _fresh(
            "import sys\n"
            "from ussir.scenario import build_model, bundled_scenario_path, load_scenario\n"
            "from ussir import expr\n"
            "for i in range(1, 8):\n"
            "    build_model(load_scenario(bundled_scenario_path(f'table{i}')))\n"
            "print(expr._compile_source.cache_info().misses, *sorted(sys.modules))\n"
        )
        misses, *loaded = out.split()
        assert not set(self.RUN_LAYERS) & set(loaded), loaded
        assert misses == "0"

    def test_custom_build_emits_no_block_program(self, tmp_path):
        from test_custom_parity import custom_text

        path = tmp_path / "table2_custom.scn"
        path.write_text(custom_text(load_scenario(bundled_scenario_path("table2"))))
        out = _fresh(
            "import sys\n"
            "from ussir import expr\n"
            "from ussir.scenario import build_model, load_scenario\n"
            "sources, compile_source = [], expr._compile_source\n"
            "expr._compile_source = lambda source: sources.append(source) or compile_source(source)\n"
            "model = build_model(load_scenario(sys.argv[1]))\n"
            "print(model.domain, len(sources), sum('def _program(env, normals' in s for s in sources))\n",
            str(path),
        )
        # the simplex gates emit the group programs they call and the time coefficients, not the block program
        domain, emitted, blocks = out.split()
        assert domain == "simplex" and int(emitted) > 0 and blocks == "0"

    def test_path_keys_share_one_seed_class_made_on_first_use(self):
        out = _fresh(
            "import sys\n"
            "from ussir import integrator\n"
            "print('numpy.random' in sys.modules)\n"
            "seeds = [integrator.path_generator(seed).bit_generator.seed_seq for seed in (1, 2)]\n"
            "print(type(seeds[0]) is type(seeds[1]))\n"
        )
        assert out.split() == ["False", "True"]

    def test_validate_loads_no_run_layer(self):
        out = _fresh(
            "import sys\n"
            "from ussir.cli import main\n"
            "assert main(['validate', '--config', 'table1']) == 0\n"
            "print(*sorted(sys.modules))\n"
        )
        loaded = out.splitlines()[-1].split()
        assert "ussir.cli" in loaded and not {"ussir.integrator", "ussir.montecarlo"} & set(loaded), loaded
