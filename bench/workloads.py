"""The three benchmark workloads.

Each workload is a closed loop with one caller in one process: a pass runs
its operations one after another, and each operation is checked as soon as
it returns (outside the timed region).  The workload seed reaches the
library only as ``--seed`` or ``SimConfig.seed``.

``cli_scenarios``
    ``ussir.cli.main`` in-process for simulate, ensemble, criteria and
    validate on every bundled scenario, at the scenarios' own 50 paths and
    a horizon cut to 2.  This is the user-facing path; at 50 paths the
    fixed per-step cost (coefficient closures, the ``run_paths`` loop)
    dominates, and the pass also writes every panel, ensemble and criteria
    file.
``wide_ensemble``
    ``montecarlo.run_ensemble`` with 2000 paths on ``table6`` (ex34a, with
    jumps) and ``table3`` (xc, no jumps), plus the ensemble CSVs.  This is
    the marginal cost per path: the per-path jump loop, the per-generator
    RNG draws and the per-path statistics.  The xc member has no jumps, so
    a jump-loop change that slows the vectorised arithmetic shows there.
``custom_expr``
    A generated ``custom`` scenario restating ``table2``'s ex1b
    coefficients as raw expressions, run through ``ussir ensemble`` (50
    paths, horizon 0.25, so that an operation is short next to the swings
    of the host's speed) and ``criteria.generic_alpha_estimate``.  Only
    here do the expression AST walk and the 1001-node compensator
    quadrature carry the work; the results must match the named ex1b
    model run on the same seed.
"""

from __future__ import annotations

import io
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import ussir.cli
import ussir.criteria
import ussir.montecarlo
from ussir.scenario import build_model, bundled_scenario_path, load_scenario, sim_config

import checks

SIMPLEX_MODELS = {"ex1", "ex1b"}
JUMP_MODELS = {"ex1", "ex1b", "ex34a", "ex34b"}


@dataclass
class Op:
    """One operation of a pass: ``call`` is timed, ``check`` is not."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], list]


def run_cli(argv: list[str]):
    """``ussir.cli.main`` with its output captured; returns (code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = ussir.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def resolve(ref: str) -> Path:
    """A bundled scenario name or a scenario file path."""
    return Path(ref) if ref.endswith(".scn") else bundled_scenario_path(ref)


class Workload:
    name = ""

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.out = work / "out"

    def scenarios(self) -> list[str]:
        """Scenarios whose models the workload loads and builds (set-up)."""
        raise NotImplementedError

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def rerun_argv(self) -> list[str]:
        """A small CLI command whose rerun must reproduce its bytes."""
        raise NotImplementedError

    def reset(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)

    def rerun_check(self) -> list[str]:
        dirs = [self.work / "rerun_a", self.work / "rerun_b"]
        problems = []
        for d in dirs:
            shutil.rmtree(d, ignore_errors=True)
            rc, _, err = run_cli(self.rerun_argv() + ["--out", str(d)])
            if rc not in (0, 2):
                problems.append(f"rerun exited {rc}: {err.strip()}")
        return problems or checks.same_bytes(*dirs)


class CliScenarios(Workload):
    name = "cli_scenarios"
    HORIZON = 2.0
    # the classification README.md gives for each bundled scenario
    EXPECTED = {
        "table1": "extinct",
        "table2": "persistent",
        "table3": "extinct",
        "table4": "extinct",
        "table5": "persistent",
        "table6": "persistent",
        "table7": "extinct",
    }

    def __init__(self, work, seed):
        super().__init__(work, seed)
        self.configs = {name: load_scenario(resolve(name)) for name in self.EXPECTED}

    def scenarios(self):
        return list(self.EXPECTED)

    def rerun_argv(self):
        return ["simulate", "--config", "table6", "--horizon", "0.5", "--seed", str(self.seed)]

    def ops(self):
        ops = []
        for name, cfg in self.configs.items():
            common = ["--config", name, "--out", str(self.out)]
            run = ["--horizon", str(self.HORIZON), "--seed", str(self.seed)]
            ops += [
                Op(f"simulate {name}", lambda c=common + run: run_cli(["simulate"] + c),
                   lambda res, cfg=cfg: self._check_simulate(res, cfg)),
                Op(f"ensemble {name}", lambda c=common + run: run_cli(["ensemble"] + c),
                   lambda res, cfg=cfg: self._check_ensemble(res, cfg)),
                Op(f"criteria {name}", lambda c=common: run_cli(["criteria"] + c),
                   lambda res, cfg=cfg, name=name: self._check_criteria(res, cfg, name)),
                Op(f"validate {name}", lambda c=common: run_cli(["validate"] + c),
                   self._check_validate),
            ]
        return ops

    def _check_simulate(self, res, cfg):
        rc, _, err = res
        if rc != 0:
            return [f"exit {rc}: {err.strip()}"]
        panels = ["stochastic", "deterministic", "diffusion_only"]
        if cfg.model_id in JUMP_MODELS:
            panels.append("jumps_only")
        records = checks.expected_records(self.HORIZON, cfg.dt, cfg.record_stride)
        problems = []
        for panel in panels:
            path = self.out / f"{cfg.stem}_{panel}.csv"
            problems += checks.check_trajectory_csv(path, records, cfg.model_id in SIMPLEX_MODELS)
        return problems

    def _check_ensemble(self, res, cfg):
        rc, stdout, err = res
        if rc not in (0, 2):
            return [f"exit {rc}: {err.strip()}"]
        _, problems = checks.read_ensemble_csv(self.out / f"{cfg.stem}_ensemble.csv", cfg.paths)
        return checks.check_verdict(rc, stdout) + problems

    def _check_criteria(self, res, cfg, name):
        rc, _, err = res
        if rc != 0:
            return [f"exit {rc}: {err.strip()}"]
        return checks.check_criteria(self.out, cfg.stem, cfg.model_id, self.EXPECTED[name])

    @staticmethod
    def _check_validate(res):
        rc, stdout, err = res
        if rc != 0:
            return [f"exit {rc}: {stdout.strip()} {err.strip()}"]
        return [] if "passed=True" in stdout else ["validate printed no passing check"]


class WideEnsemble(Workload):
    name = "wide_ensemble"
    PATHS = 2000
    # (scenario, horizon): ex34a carries jumps; xc has none and gets three
    # times the steps so that its share of the pass is steady
    MEMBERS = (("table6", 1.0), ("table3", 3.0))

    def __init__(self, work, seed):
        super().__init__(work, seed)
        self.members = []
        for name, horizon in self.MEMBERS:
            cfg = load_scenario(resolve(name))
            sim = sim_config(cfg, seed=seed, horizon=horizon)
            self.members.append((name, cfg, build_model(cfg), sim))

    def scenarios(self):
        return [name for name, _ in self.MEMBERS]

    def rerun_argv(self):
        return ["ensemble", "--config", "table6", "--paths", "20", "--horizon", "0.2",
                "--seed", str(self.seed)]

    def ops(self):
        return [
            Op(f"run_ensemble {m[0]}", lambda m=m: self._run(*m), self._check)
            for m in self.members
        ]

    def _run(self, name, cfg, model, sim):
        stats = ussir.montecarlo.run_ensemble(model, cfg.initial_state, sim, self.PATHS,
                                              y_extinct=cfg.y_extinct)
        target = self.out / f"{name}_ensemble.csv"
        ussir.montecarlo.write_ensemble_csv(stats, target)
        return stats, target

    def _check(self, res):
        stats, target = res
        problems = checks.check_ensemble_arrays(
            stats.lyapunov, stats.mean_infected, stats.tail_mean_infected, stats.y_final,
            self.PATHS, "run_ensemble",
        )
        columns, csv_problems = checks.read_ensemble_csv(target, self.PATHS)
        problems += csv_problems
        if columns is not None and not np.array_equal(columns["y_final"], stats.y_final):
            problems.append(f"{target.name}: Y_T column does not round-trip")
        return problems


def custom_scenario_text(base, horizon: float) -> str:
    """``base`` (an ex1b scenario) restated as a ``custom`` scenario: the
    same drift, diffusion column and jump vectors as raw expressions."""
    p = {k: f"({v})" for k, v in base.params.items()}
    j = base.jumps
    beta, g1, g2, sigma = p["beta"], p["gamma1"], p["gamma2"], p["sigma"]

    def jump(a, b):
        return (f'"-{a!r}*x*y*z"', f'"{a - b!r}*x*y*z"', f'"{b!r}*x*y*z"')

    h = jump(j["h1"], j["h2"])
    g = jump(j["g1"], j["g2"])
    lo, hi = base.measure_support
    return f"""# {base.stem} restated as raw coefficient expressions
[model]
id = custom
domain = simplex
brownian_dim = 1

[params]
b1 = "-{beta}*x*y"
b2 = "({beta}*x-{g1}+{g2}*z)*y"
b3 = "({g1}-{g2}*z)*y"
sigma11 = "-{sigma}*x*y*z"
sigma21 = "2*{sigma}*x*y*z"
sigma31 = "-{sigma}*x*y*z"
h1 = {h[0]}
h2 = {h[1]}
h3 = {h[2]}
g1 = {g[0]}
g2 = {g[1]}
g3 = {g[2]}

[measure]
support = ({lo!r}, {hi!r})
density = {base.measure_density!r}

[initial]
state = ({", ".join(repr(v) for v in base.initial_state)})

[sim]
dt = {base.dt!r}
horizon = {horizon!r}
seed = {base.seed}
paths = {base.paths}
record_stride = {base.record_stride}
"""


def write_custom_scenario(work: Path, base_ref: str = "table2", horizon: float = 1.0) -> Path:
    path = work / f"custom_{base_ref}.scn"
    path.write_text(custom_scenario_text(load_scenario(resolve(base_ref)), horizon))
    return path


class CustomExpr(Workload):
    name = "custom_expr"
    BASE = "table2"
    HORIZON = 0.25
    T_GRID = np.linspace(0.0, 2.0 * np.pi, 4)
    GRID_N = 16
    # custom and named models differ only in rounding (<1e-15 per
    # coefficient); these bound how far that may carry
    ENSEMBLE_RTOL = 1e-8
    ALPHA_RTOL = 1e-9

    def __init__(self, work, seed):
        super().__init__(work, seed)
        base = load_scenario(resolve(self.BASE))
        self.path = write_custom_scenario(work, self.BASE, self.HORIZON)
        self.cfg = load_scenario(self.path)
        self.model = build_model(self.cfg)
        self.states = ussir.criteria.simplex_grid(self.GRID_N, self.GRID_N)
        named = build_model(base)
        sim = sim_config(base, seed=seed, horizon=self.HORIZON)
        self.reference = ussir.montecarlo.run_ensemble(named, base.initial_state, sim, base.paths)
        self.reference_alpha = ussir.criteria.generic_alpha_estimate(named, self.T_GRID, self.states)

    def scenarios(self):
        return [str(self.path), self.BASE]

    def rerun_argv(self):
        return ["ensemble", "--config", str(self.path), "--horizon", "0.1", "--seed", str(self.seed)]

    def ops(self):
        argv = ["ensemble", "--config", str(self.path), "--horizon", str(self.HORIZON),
                "--seed", str(self.seed), "--out", str(self.out)]
        return [
            Op("ensemble custom", lambda: run_cli(argv), self._check_ensemble),
            Op("generic_alpha custom",
               lambda: ussir.criteria.generic_alpha_estimate(self.model, self.T_GRID, self.states),
               self._check_alpha),
        ]

    def _check_ensemble(self, res):
        rc, stdout, err = res
        if rc != 0:
            return [f"exit {rc}: {err.strip()}"]
        problems = checks.check_verdict(rc, stdout)
        if "verdict: inapplicable" not in stdout:
            problems.append("custom model was given a closed-form verdict")
        columns, csv_problems = checks.read_ensemble_csv(
            self.out / f"{self.path.stem}_ensemble.csv", self.cfg.paths)
        problems += csv_problems
        if columns is None:
            return problems
        ref = self.reference
        for name, expected in (("y_final", ref.y_final), ("mean_infected", ref.mean_infected),
                               ("lyapunov", ref.lyapunov)):
            if not np.allclose(columns[name], expected, rtol=self.ENSEMBLE_RTOL, atol=1e-12):
                problems.append(f"custom {name} differs from the named ex1b ensemble")
        return problems

    def _check_alpha(self, alpha):
        ref = self.reference_alpha
        if not np.isfinite(alpha) or abs(alpha - ref) > self.ALPHA_RTOL * max(1.0, abs(ref)):
            return [f"generic alpha {alpha!r}, named ex1b gives {ref!r}"]
        return []


WORKLOADS = {w.name: w for w in (CliScenarios, WideEnsemble, CustomExpr)}
