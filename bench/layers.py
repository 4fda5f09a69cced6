"""Layer timings taken in isolation, outside any workload pass.

The two engine numbers of ROADMAP.md, per model family, through
``integrator.run_paths``: microseconds per step at 50 paths (the fixed
per-step cost) and nanoseconds per path-step at 5000 paths (the marginal
cost); the RNG block draw through ``integrator.path_generator``; and the
line count of ``src/ussir``.  Each timing is the median of ``REPS`` runs.
"""

from __future__ import annotations

import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

from ussir.integrator import SimConfig, path_generator, run_paths
from ussir.scenario import build_model, load_scenario

from workloads import resolve

REPS = 3
# family -> (scenario, steps at 50 paths, steps at 5000 paths); the custom
# model costs about 15x (50 paths) and 60x (5000 paths) a named one per step
FAMILIES = {
    "ex1": ("table1", 1000, 100),
    "ex1b": ("table2", 1000, 100),
    "xc": ("table3", 1000, 100),
    "ex34a": ("table6", 1000, 100),
    "ex34b": ("table7", 1000, 100),
    "custom": (None, 100, 4),
}
RNG_PATHS, RNG_BLOCK = 200, 1000


def _median_time(fn) -> float:
    samples = []
    for _ in range(REPS):
        t0 = perf_counter()
        fn()
        samples.append(perf_counter() - t0)
    return statistics.median(samples)


def _engine_time(model, s0, dt, seed, paths, steps) -> float:
    cfg = SimConfig(horizon=steps * dt, dt=dt, seed=seed, record_stride=steps)
    gens = [path_generator(seed, i) for i in range(paths)]
    keys = [g.bit_generator.state["state"]["key"] for g in gens]
    return _median_time(lambda: run_paths(model, s0, cfg, keys))


def engine_numbers(custom_scenario: Path, seed: int) -> dict:
    out = {}
    for family, (ref, steps50, steps5000) in FAMILIES.items():
        cfg = load_scenario(resolve(ref) if ref else custom_scenario)
        model = build_model(cfg)
        t50 = _engine_time(model, cfg.initial_state, cfg.dt, seed, 50, steps50)
        t5000 = _engine_time(model, cfg.initial_state, cfg.dt, seed, 5000, steps5000)
        out[f"integrator.us_per_step_50.{family}"] = (t50 / steps50 * 1e6, "us")
        out[f"integrator.ns_per_path_step_5000.{family}"] = (t5000 / (5000 * steps5000) * 1e9, "ns")
    return out


def rng_block_ns(seed: int) -> float:
    """One engine block of draws for ex34a's streams (two Brownian columns,
    small- and large-jump counts at mass 2 and dt 0.001), per path-step."""
    gens = [path_generator(seed, i) for i in range(RNG_PATHS)]

    def draw():
        np.stack([g.standard_normal((RNG_BLOCK, 2)) for g in gens])
        np.stack([g.poisson(0.002, RNG_BLOCK) for g in gens])
        np.stack([g.poisson(0.002, RNG_BLOCK) for g in gens])

    return _median_time(draw) / (RNG_PATHS * RNG_BLOCK) * 1e9


def src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((root / "src" / "ussir").rglob("*.py")))
