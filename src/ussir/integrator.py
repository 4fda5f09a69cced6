"""Jump-adapted Euler-Maruyama time stepping.

One step advances the state by drift * dt, the Brownian increment through
the diffusion matrix, the compensated small-jump contribution (sampled
marks minus compensator * dt), and the uncompensated large-jump marks, then
applies the positivity safeguard.

Randomness is organized per path: each path owns a Philox counter-based
generator keyed by a hash of (master seed, path index), so paths are
independent, reproducible, and independent of how many run together.  The
per-path stream is consumed in fixed blocks of ``CHUNK_STEPS`` steps:
Brownian increments for the block, then small-jump counts, then large-jump
counts, then marks step by step (small before large).  With ``chunk=1``
the per-step order is therefore Brownian increments, small-jump count,
large-jump count, small marks, large marks.

The safeguard raises components at or below zero to the configured floor
and counts every such clamp; positive values below the floor are legitimate
decay and pass through untouched.  Simplex states are renormalized only
when the unit-sum deviation exceeds 1e-9 (the coefficient rows cancel
algebraically, so only accumulated rounding ever needs correction).
"""

from __future__ import annotations

import csv
import hashlib
import math
import struct
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .levy import LARGE, SMALL
from .models import SIMPLEX, ModelSpec, check_admissible

__all__ = [
    "CHUNK_STEPS",
    "ConvergenceTable",
    "SimConfig",
    "Trajectory",
    "convergence_probe",
    "path_generator",
    "simulate",
    "simulate_batch",
]

CHUNK_STEPS = 8192

RENORM_TOL = 1e-9


@dataclass(frozen=True)
class SimConfig:
    """Time grid, seed, and safeguard settings for one run."""

    horizon: float
    dt: float = 0.001
    seed: int = 0
    positivity_floor: float = 1e-12
    record_stride: int = 1

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.horizon < self.dt:
            raise ValueError("horizon must cover at least one step")
        if self.record_stride < 1 or int(self.record_stride) != self.record_stride:
            raise ValueError("record_stride must be a positive integer")
        if self.positivity_floor <= 0:
            raise ValueError("positivity_floor must be positive")
        if not -(2**63) <= int(self.seed) < 2**63:
            raise ValueError("seed must fit in a signed 64-bit integer")

    @property
    def n_steps(self) -> int:
        return max(1, int(math.ceil(self.horizon / self.dt - 1e-9)))


@dataclass(frozen=True)
class Trajectory:
    """Recorded times and states of one path, with safeguard diagnostics.

    ``floor_hits`` counts component clamps; ``simplex_drift`` is the largest
    unit-sum deviation seen on simplex models (None on the octant).
    """

    times: np.ndarray
    states: np.ndarray
    floor_hits: int
    simplex_drift: Optional[float]

    @property
    def x(self) -> np.ndarray:
        return self.states[:, 0]

    @property
    def y(self) -> np.ndarray:
        return self.states[:, 1]

    @property
    def z(self) -> np.ndarray:
        return self.states[:, 2]

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def write_csv(self, path) -> None:
        """Write ``t,X,Y,Z`` rows with 17 significant digits."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "X", "Y", "Z"])
            for t, (x, y, z) in zip(self.times, self.states):
                writer.writerow([f"{v:.17g}" for v in (t, x, y, z)])


def _path_key(seed: int, index: int) -> np.ndarray:
    """128-bit Philox key derived from (master seed, path index)."""
    digest = hashlib.blake2b(struct.pack("<qq", int(seed), int(index)), digest_size=16).digest()
    return np.frombuffer(digest, dtype=np.uint64).copy()


def path_generator(seed: int, index: int = 0) -> np.random.Generator:
    """The generator a given path owns under master ``seed``."""
    return np.random.Generator(np.random.Philox(key=_path_key(seed, index)))


def path_key_hex(seed: int, index: int) -> str:
    return "".join(f"{w:016x}" for w in _path_key(seed, index))


@dataclass(frozen=True)
class PathBundle:
    """Raw engine output for a batch of paths sharing one time grid."""

    times: np.ndarray
    states: np.ndarray  # (paths, records, 3)
    floor_hits: np.ndarray  # (paths,)
    simplex_drift: Optional[np.ndarray]  # (paths,) or None

    def trajectory(self, i: int) -> Trajectory:
        return Trajectory(
            times=self.times,
            states=self.states[i],
            floor_hits=int(self.floor_hits[i]),
            simplex_drift=None if self.simplex_drift is None else float(self.simplex_drift[i]),
        )


def run_paths(
    model: ModelSpec,
    s0,
    cfg: SimConfig,
    keys: Sequence[np.ndarray],
    chunk: int = CHUNK_STEPS,
) -> PathBundle:
    """Advance every keyed path over the full grid, vectorized across paths.

    The paths are mathematically independent (private generators); batching
    them only amortizes interpreter overhead.
    """
    s0_arr = check_admissible(s0, model.domain)
    n_paths = len(keys)
    dt = cfg.dt
    sqrt_dt = math.sqrt(dt)
    K = cfg.n_steps
    n_brownian = model.brownian_dim
    simplex = model.domain == SIMPLEX

    record_at = list(range(0, K + 1, cfg.record_stride))
    if record_at[-1] != K:
        record_at.append(K)
    record_set = {k: idx for idx, k in enumerate(record_at)}

    t_grid = np.arange(K, dtype=float) * dt
    pv_grid = {
        name: np.broadcast_to(np.asarray(vals, dtype=float), (K,))
        for name, vals in model.param_values(t_grid).items()
    }

    gens = [np.random.Generator(np.random.Philox(key=key)) for key in keys]
    small_mass = model.measure.mass(SMALL) if model.has_small_jumps else 0.0
    large_mass = model.measure.mass(LARGE) if model.has_large_jumps else 0.0
    draw_small = model.has_small_jumps and small_mass > 0.0
    draw_large = model.has_large_jumps and large_mass > 0.0

    states = np.tile(s0_arr, (n_paths, 1))
    recorded = np.empty((n_paths, len(record_at), 3))
    recorded[:, 0, :] = states
    floor_hits = np.zeros(n_paths, dtype=np.int64)
    drift_max = np.zeros(n_paths) if simplex else None
    floor = cfg.positivity_floor

    for k0 in range(0, K, chunk):
        block = min(chunk, K - k0)
        if model.has_diffusion:
            normals = np.stack([g.standard_normal((block, n_brownian)) for g in gens])
            normals *= sqrt_dt
        small_counts = (
            np.stack([g.poisson(small_mass * dt, block) for g in gens]) if draw_small else None
        )
        large_counts = (
            np.stack([g.poisson(large_mass * dt, block) for g in gens]) if draw_large else None
        )
        for j in range(block):
            k = k0 + j
            pv = {name: arr[k] for name, arr in pv_grid.items()}
            incr = model.drift_pv(pv, states) * dt
            if model.has_diffusion:
                sig = model.diffusion_pv(pv, states)
                incr += (sig * normals[:, j, None, :]).sum(axis=-1)
            if model.has_small_jumps:
                if draw_small:
                    for i in np.nonzero(small_counts[:, j])[0]:
                        marks = model.measure.sample_marks(SMALL, int(small_counts[i, j]), gens[i])
                        incr[i] += model.small_jump_pv(pv, states[i], marks).sum(axis=0)
                incr -= model.compensator_pv(pv, states) * dt
            if draw_large:
                for i in np.nonzero(large_counts[:, j])[0]:
                    marks = model.measure.sample_marks(LARGE, int(large_counts[i, j]), gens[i])
                    incr[i] += model.large_jump_pv(pv, states[i], marks).sum(axis=0)
            states = states + incr
            below = states <= 0.0
            if below.any():
                floor_hits += below.sum(axis=1)
                states = np.where(below, floor, states)
            if simplex:
                sums = states.sum(axis=1)
                dev = np.abs(sums - 1.0)
                np.maximum(drift_max, dev, out=drift_max)
                fix = dev > RENORM_TOL
                if fix.any():
                    states[fix] /= sums[fix, None]
            idx = record_set.get(k + 1)
            if idx is not None:
                recorded[:, idx, :] = states

    return PathBundle(
        times=np.asarray(record_at, dtype=float) * dt,
        states=recorded,
        floor_hits=floor_hits,
        simplex_drift=drift_max,
    )


def simulate(model: ModelSpec, s0, cfg: SimConfig) -> Trajectory:
    """Single path under ``cfg.seed`` (stream index 0 of that seed)."""
    bundle = run_paths(model, s0, cfg, [_path_key(cfg.seed, 0)])
    return bundle.trajectory(0)


def simulate_batch(model: ModelSpec, s0, cfg: SimConfig, seeds: Sequence[int]) -> list[Trajectory]:
    """Independent master seeds run as one vectorized batch.

    Produces bit-identical trajectories to calling :func:`simulate` once
    per seed; the batching is purely a speed device.
    """
    bundle = run_paths(model, s0, cfg, [_path_key(s, 0) for s in seeds])
    return [bundle.trajectory(i) for i in range(len(seeds))]


@dataclass(frozen=True)
class ConvergenceTable:
    """Strong-error table of the scheme on the geometric Brownian oracle."""

    dts: tuple[float, ...]
    errors: tuple[float, ...]
    order: float

    def rows(self) -> list[tuple[float, float]]:
        return list(zip(self.dts, self.errors))


def convergence_probe(
    a: float,
    b: float,
    s0: float,
    horizon: float,
    dt_list: Sequence[float],
    paths: int,
    seed: int,
) -> ConvergenceTable:
    """Strong error E|S_T - S^_T| of Euler-Maruyama against the closed-form
    geometric Brownian solution built from the same increments.

    The observed order (log-log regression slope) should sit near 1/2.
    """
    dts = [float(dt) for dt in dt_list]
    if any(d2 >= d1 for d1, d2 in zip(dts, dts[1:])):
        raise ValueError("dt_list must be strictly decreasing")
    if paths < 1:
        raise ValueError("paths must be positive")
    errors = []
    for level, dt in enumerate(dts):
        K = max(1, int(round(horizon / dt)))
        gen = path_generator(seed, level)
        approx = np.full(paths, float(s0))
        b_total = np.zeros(paths)
        for _ in range(K):
            dW = gen.standard_normal(paths) * math.sqrt(dt)
            approx = approx + a * approx * dt + b * approx * dW
            b_total += dW
        exact = s0 * np.exp((a - 0.5 * b * b) * (K * dt) + b * b_total)
        errors.append(float(np.mean(np.abs(approx - exact))))
    if len(dts) >= 2 and all(e > 0 for e in errors):
        slope = np.polyfit(np.log(dts), np.log(errors), 1)[0]
    else:
        slope = float("nan")
    return ConvergenceTable(dts=tuple(dts), errors=tuple(errors), order=float(slope))
