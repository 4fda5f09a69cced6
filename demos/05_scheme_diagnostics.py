"""Numerical diagnostics of the integrator itself.

Three independent checks: the strong convergence order of the engine
against the geometric Brownian closed form (should be about one half;
``convergence_probe`` runs the scheme through ``run_paths``), the zero-mean
property of compensated small-jump increments, and containment of the
demography model inside its invariant set.
"""

import numpy as np

from ussir import SimConfig, convergence_probe, report_for_model
from ussir.integrator import _path_key, path_generator, run_paths
from ussir.levy import SMALL
from ussir.scenario import build_model, bundled_scenario_path, load_scenario


def convergence():
    print("strong error against the geometric Brownian closed form")
    table = convergence_probe(
        a=0.1, b=0.2, s0=1.0, horizon=1.0,
        dt_list=[1e-2, 5e-3, 2.5e-3, 1.25e-3], paths=500, seed=1,
    )
    for dt, err in table.rows():
        print(f"    dt={dt:<8g} E|error| = {err:.3e}")
    print(f"    observed order: {table.order:.3f} (target 0.5)\n")


def compensation():
    print("compensated small-jump increments average to zero")
    cfg = load_scenario(bundled_scenario_path("table1"))
    model = build_model(cfg)
    state = np.asarray(cfg.initial_state)
    pv = model.param_values(0.0)
    nodes, weights = model.mark_rules[SMALL]  # the small region's integral of the jump vector, by its mark rule
    comp = (model.small_jump_fn(pv, state, nodes) * weights[:, None]).sum(axis=0)
    small_mass = model.measure.mass(SMALL)
    rng = path_generator(99)
    dt, steps = 0.001, 20_000
    acc = np.zeros(3)
    for _ in range(steps):
        marks = model.measure.inverse_cdf(SMALL, rng.random(int(rng.poisson(small_mass * dt))))
        acc -= comp * dt
        if len(marks):
            acc += model.small_jump_fn(pv, state, marks).sum(axis=0)
    print(f"    mean increment over {steps} steps: {(acc / steps).round(10).tolist()}\n")


def invariant_set():
    print("demography model stays inside its invariant set")
    cfg = load_scenario(bundled_scenario_path("table3"))
    model = build_model(cfg)
    bound = report_for_model(model).invariant_set_bound
    sim = SimConfig(horizon=50.0, dt=cfg.dt, seed=0, record_stride=100)
    traj = run_paths(model, cfg.initial_state, sim, [_path_key(seed, 0) for seed in (0, 1, 2)])
    worst = float(traj.states.sum(axis=2).max())
    print(f"    largest total population over 3 seeds: {worst:.4f}")
    print(f"    invariant-set bound:                   {bound:.4f}")


def main():
    convergence()
    compensation()
    invariant_set()


if __name__ == "__main__":
    main()
