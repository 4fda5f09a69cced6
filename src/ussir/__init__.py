"""Stochastic SIR dynamics with Brownian and jump noise.

A small numpy library for simulating three-compartment epidemic systems
driven by white noise and a compensated Poisson random measure, computing
closed-form extinction/persistence thresholds, and checking theory against
seeded Monte Carlo ensembles.  The ``ussir`` command line front end runs
bundled parameter scenarios end to end.

``import ussir`` loads no submodule: an exported name, or a submodule named
as an attribute (``ussir.integrator``), imports its module on first access;
a model likewise emits each of its programs on first use (``ussir.models``).
"""

from importlib import import_module

__version__ = "0.1.0"

# the module each exported name lives in
_HOMES = {
    "expr": ("BoundsPair", "bounds", "parse", "serialize"),
    "levy": ("LevyMeasure",),
    "models": ("ModelSpec", "build_custom", "build_named", "check_structure"),
    "integrator": ("Trajectory", "convergence_probe", "simulate"),
    "criteria": ("CriteriaReport", "generic_alpha_estimate", "report_for_model"),
    "montecarlo": ("EnsembleStats", "run_ensemble", "verdict"),
    "scenario": ("ScenarioConfig", "ScenarioError", "SimConfig", "build_model", "load_scenario"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        return getattr(import_module(f".{_HOME[name]}", __name__), name)
    if name in _HOMES:  # a submodule: importing it binds it here
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
