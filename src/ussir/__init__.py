"""Stochastic SIR dynamics with Brownian and jump noise.

A small numpy library for simulating three-compartment epidemic systems
driven by white noise and a compensated Poisson random measure, computing
closed-form extinction/persistence thresholds, and checking theory against
seeded Monte Carlo ensembles.  The ``ussir`` command line front end runs
bundled parameter scenarios end to end.
"""

from .expr import BoundsPair, bounds, parse, serialize
from .levy import LevyMeasure
from .models import (
    ModelSpec,
    build_custom,
    build_named,
    check_conservation,
    check_positivity_ratios,
)
from .integrator import SimConfig, Trajectory, convergence_probe, simulate
from .criteria import CriteriaReport, generic_alpha_estimate, report_for_model
from .montecarlo import EnsembleStats, run_ensemble, verdict
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
    "SimConfig",
    "Trajectory",
    "bounds",
    "build_custom",
    "build_model",
    "build_named",
    "check_conservation",
    "check_positivity_ratios",
    "convergence_probe",
    "generic_alpha_estimate",
    "load_scenario",
    "parse",
    "report_for_model",
    "run_ensemble",
    "serialize",
    "simulate",
    "verdict",
]
