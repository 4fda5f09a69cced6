"""Command line front end: scenario ingestion and CSV emission.

Subcommands::

    ussir simulate --config table1.scn [--out DIR] [--seed N] [--dt X] [--horizon T]
    ussir ensemble --config table2.scn [--paths P] [--slack S] [--out DIR] [--seed N] [...]
    ussir criteria --config table3.scn [--out DIR]
    ussir validate --config table1.scn [--out DIR]

``--config`` takes a filesystem path or the name of a bundled scenario
(``table1`` .. ``table7``), which :func:`main` loads and builds once.  ``--out``
defaults to ``ussir_out``; ``validate`` writes nothing.  Flag overrides beat
file values.  A flag the command does not read, or a value out of range
(``--slack`` included), is a usage error, refused before any file is read.
Any other error is one ``error:`` line, which names the scenario file once
it has loaded.  Exit status: 0 success, 1 error (including failed
validation), 2 usage error (from argparse) or theory-versus-simulation
verdict "inconsistent".

``simulate`` writes the stochastic trajectory plus panel companions: the
deterministic run (all noise zeroed) and, where the model carries that kind
of noise, drift-free diffusion-only and jumps-only runs.  The panels are the
rows of one run on the seed's stream 0.  All outputs are
plain CSV with fixed formatting, so rerunning a scenario with the same seed
reproduces every file byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from functools import lru_cache
from pathlib import Path

from . import __version__
from .models import ModelSpec, check_structure
from .scenario import (
    ScenarioConfig,
    ScenarioError,
    build_model,
    bundled_scenario_path,
    bundled_scenarios,
    load_scenario,
    sim_config,
)

__all__ = ["main"]


def _flag_type(convert, ok, what: str):
    """An argparse ``type=``: ``convert`` the text and refuse it unless
    ``ok`` holds, so argparse reports the flag and exits 2."""

    def parse(text: str):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not {what}")

    return parse


_FINITE_POSITIVE = _flag_type(float, lambda v: math.isfinite(v) and v > 0, "a finite positive number")
_POSITIVE_INT = _flag_type(int, lambda v: v > 0, "a positive integer")
_SEED = _flag_type(int, lambda v: -(2**63) <= v < 2**63, "a signed 64-bit integer")
_SLACK = _flag_type(float, lambda v: 0 < v < 1, "a number in (0, 1)")  # at 1 or more a persistence verdict cannot fail


def _add_flags(parser: argparse.ArgumentParser, run: bool) -> None:
    """``--config`` and ``--out``; with ``run``, also the flags a run reads."""
    parser.add_argument("--config", required=True, help="scenario file or bundled scenario name")
    parser.add_argument("--out", type=Path, default="ussir_out", help="output directory (default ussir_out)")
    if run:
        parser.add_argument("--seed", type=_SEED, default=None, help="override the scenario seed")
        parser.add_argument("--dt", type=_FINITE_POSITIVE, default=None, help="override the time step")
        parser.add_argument("--horizon", type=_FINITE_POSITIVE, default=None, help="override the horizon")


def cmd_simulate(args, cfg: ScenarioConfig, model: ModelSpec) -> int:
    from .integrator import simulate  # each command imports the layers it runs: validate loads no run layer
    sim = sim_config(cfg, seed=args.seed, dt=args.dt, horizon=args.horizon)
    args.out.mkdir(parents=True, exist_ok=True)
    # each panel is a row of one run: which of drift, diffusion, jumps act on it
    panels = {"stochastic": (True, True, True), "deterministic": (True, False, False)}
    if model.has_diffusion:
        panels["diffusion_only"] = (False, True, False)
    if model.has_small_jumps or model.has_large_jumps:
        panels["jumps_only"] = (False, False, True)
    traj = simulate(model, cfg.initial_state, sim, groups=list(panels.values()))
    for i, label in enumerate(panels):
        target = args.out / f"{cfg.stem}_{label}.csv"
        traj[i : i + 1].write_csv(target)
        print(f"wrote {target} (floor_hits={int(traj.floor_hits[i])})")
    return 0


def cmd_ensemble(args, cfg: ScenarioConfig, model: ModelSpec) -> int:
    from .criteria import NoCriterionError, report_for_model
    from .montecarlo import run_ensemble, verdict, write_ensemble_csv
    sim = sim_config(cfg, seed=args.seed, dt=args.dt, horizon=args.horizon)
    paths = args.paths if args.paths is not None else cfg.paths
    args.out.mkdir(parents=True, exist_ok=True)
    stats = run_ensemble(model, cfg.initial_state, sim, paths, y_extinct=cfg.y_extinct)
    target = args.out / f"{cfg.stem}_ensemble.csv"
    summary = write_ensemble_csv(stats, target)
    print(f"wrote {target}")
    print(f"floor_hits: {stats.floor_hits.sum()} ({(stats.floor_hits > 0).sum()} of {stats.paths} paths)")
    try:
        report = report_for_model(model)
    except NoCriterionError:
        print("verdict: inapplicable (no closed-form criterion for this model)")
        return 0
    outcome = verdict(stats, report, slack=args.slack)
    print(f"classification: {report.classification}")
    print(f"median_lyapunov: {summary['lyapunov_median']:.6g}")
    print(f"median_tail_mean_infected: {summary['tail_mean_infected_median']:.6g}")
    print(f"verdict: {outcome}")
    return 2 if outcome == "inconsistent" else 0


def cmd_criteria(args, cfg: ScenarioConfig, model: ModelSpec) -> int:
    from .criteria import CRITERIA_CSV_HEADER, report_for_model
    report = report_for_model(model)
    args.out.mkdir(parents=True, exist_ok=True)
    text_target = args.out / f"{cfg.stem}_criteria.txt"
    text_target.write_text(report.to_text())
    csv_target = args.out / f"{cfg.stem}_criteria.csv"
    with open(csv_target, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CRITERIA_CSV_HEADER)
        writer.writerow(report.to_csv_row())
    sys.stdout.write(report.to_text())
    print(f"wrote {text_target}")
    print(f"wrote {csv_target}")
    return 0


def cmd_validate(args, cfg: ScenarioConfig, model: ModelSpec) -> int:
    report, positivity = check_structure(model)
    if report is None:
        print("conservation: not applicable (octant domain)")
    else:
        print(
            f"conservation: max_deviation={report.max_abs_deviation:.3e} "
            f"tolerance={report.tolerance:.1e} passed={report.passed}"
        )
        for name, value in report.breakdown.items():
            print(f"  {name}: {value:.3e}")
    print(f"positivity: min_ratio={positivity.min_ratio:.6g} passed={positivity.passed}")
    return 0 if positivity.passed and (report is None or report.passed) else 1


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; :func:`main` looks up the command it names when it runs."""
    parser = argparse.ArgumentParser(
        prog="ussir",
        description="Stochastic SIR scenarios: simulate, ensemble statistics, "
        "closed-form criteria, and model validation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    _add_flags(sub.add_parser("simulate", help="one stochastic path plus noise-panel companions"), run=True)
    p_ens = sub.add_parser("ensemble", help="seeded path ensemble, statistics, and verdict")
    _add_flags(p_ens, run=True)
    p_ens.add_argument("--paths", type=_POSITIVE_INT, default=None, help="override the path count")
    p_ens.add_argument("--slack", type=_SLACK, default=0.5, help="comparator slack (default 0.5)")
    _add_flags(sub.add_parser("criteria", help="closed-form extinction/persistence report"), run=False)
    _add_flags(sub.add_parser("validate", help="conservation and jump-positivity checks"), run=False)
    sub.add_parser("scenarios", help="list bundled scenarios")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    source = None  # the scenario file, once loaded; later errors are located there
    try:
        if args.command == "scenarios":
            print("\n".join(bundled_scenarios()))
            return 0
        path = Path(args.config)
        cfg = load_scenario(path if path.is_file() else bundled_scenario_path(args.config))
        source = cfg.source
        return globals()[f"cmd_{args.command}"](args, cfg, build_model(cfg))
    except (ValueError, OSError) as exc:  # a ScenarioError names its file itself
        located = source is not None and isinstance(exc, ValueError) and not isinstance(exc, ScenarioError)
        print(f"error: {source}: {exc}" if located else f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
