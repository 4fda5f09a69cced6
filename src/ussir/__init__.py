"""Stochastic SIR dynamics with Brownian and jump noise.

A small numpy library for simulating three-compartment epidemic systems
driven by white noise and a compensated Poisson random measure, computing
closed-form extinction/persistence thresholds, and checking theory against
seeded Monte Carlo ensembles.  The ``ussir`` command line front end runs
bundled parameter scenarios end to end.
"""

from .expr import BoundsPair, TimeFunction, bounds, parse, serialize
from .levy import LevyMeasure
from .models import (
    ModelSpec,
    build_custom,
    build_named,
    check_conservation,
    check_positivity_ratios,
)
from .integrator import SimConfig, Trajectory, convergence_probe, simulate
from .criteria import (
    CriteriaReport,
    SideCondition,
    ex1_extinction,
    ex1b_persistence,
    ex34a_persistence,
    ex34b_extinction,
    generic_alpha_estimate,
    generic_alpha_star_estimate,
    k_value,
    report_for_model,
    xc_report,
)
from .montecarlo import (
    EnsembleStats,
    lyapunov_estimate,
    run_ensemble,
    time_average_infected,
    verdict,
)
from .scenario import ScenarioConfig, ScenarioError, build_model, load_scenario

__version__ = "0.1.0"

__all__ = [
    "BoundsPair",
    "CriteriaReport",
    "EnsembleStats",
    "LevyMeasure",
    "ModelSpec",
    "ScenarioConfig",
    "ScenarioError",
    "SideCondition",
    "SimConfig",
    "TimeFunction",
    "Trajectory",
    "bounds",
    "build_custom",
    "build_model",
    "build_named",
    "check_conservation",
    "check_positivity_ratios",
    "convergence_probe",
    "ex1_extinction",
    "ex1b_persistence",
    "ex34a_persistence",
    "ex34b_extinction",
    "generic_alpha_estimate",
    "generic_alpha_star_estimate",
    "k_value",
    "load_scenario",
    "lyapunov_estimate",
    "parse",
    "report_for_model",
    "run_ensemble",
    "serialize",
    "simulate",
    "time_average_infected",
    "verdict",
    "xc_report",
]
