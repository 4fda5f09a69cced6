"""Euler-Maruyama time stepping on a fixed grid, jumps included.

One step advances the state by drift * dt, the Brownian increment through
the diffusion matrix, the compensated small-jump contribution (sampled
marks minus compensator * dt) and the uncompensated large-jump marks, all
at the step's start state, then applies the positivity safeguard.  One
call of the model's block program steps a block in place on a (3, paths)
state, each step multiplying stacked drift, diffusion and compensator
rows by the tile's; a step with marks adds its small marks (u-free ones
are rows of the program's small-jump vector), less the compensator, then
its large marks.  A run returns one :class:`Trajectory` of the per-path
outputs of ``_OUTPUTS`` it keeps, laid out in one zeroed buffer: the states
at record steps, or an ensemble's reducer, which sums Y's trapezoid terms
as it records and so does not grow with the horizon.  Its first attempt
steps with the block program, every flag the caller does not ignore
raising, here or in forked workers that share the buffer (``MIN_SPLIT_PATHS``
paths per CPU); any fault steps the run again, whole and here, with the
checked program at the caller's error settings, so a split run has the
serial run's bytes, errors and warnings.

Randomness is organized per path: each path owns a Philox generator keyed
by a hash of (master seed, path index), so paths are independent,
reproducible, and independent of how many run together.  A path's stream
is consumed per block of ``CHUNK_STEPS`` steps: Brownian increments, then
small-jump counts, then large-jump counts, then the block's marks as one
run of uniforms, split step by step (small before large), scaled by the
region's mass and mapped by inverse CDF (with ``CHUNK_STEPS`` = 1, each
step's order).  Only the regions in the model's ``mark_rules`` are drawn,
and a block keeps only its marked cells, (path, step * regions + region,
count), whose marks form one table grouped by (step, region).  A run in
which no row draws marks draws normals alone, in sequence, in blocks of
``MARK_FREE_STEPS`` on the same stream.  Every ``TILE_STEPS`` steps the
block's next normals, times sqrt(dt), fill a (steps, 1 + drivers (+ 1),
3, paths) tile between its dt rows: a step's multipliers, paths contiguous.

The safeguard raises components at or below zero to ``POSITIVITY_FLOOR``
and counts every such clamp; positive values below the floor are legitimate
decay and pass through untouched.  Simplex states are renormalized only
when the unit-sum deviation exceeds 1e-9 (the coefficient rows cancel
algebraically, so only accumulated rounding ever needs correction).

A run's ``groups`` may switch drift, diffusion or jumps off per path (row).
A row without diffusion draws no normals, one without jumps no counts and
so no marks, so a row consumes its stream as the model rebuilt without
those groups does and matches it bit for bit; :func:`simulate` runs
several such rows (the CLI's noise panels) on one stream.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import mmap
import os
import signal
import struct
import sys
import warnings
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from typing import Optional, Sequence

import numpy as np

from .levy import SMALL
from .models import OCTANT, SIMPLEX, ModelSpec, build_custom, check_admissible
from .scenario import SimConfig  # defined with the loader, which checks [sim] as one

__all__ = [
    "CHUNK_STEPS",
    "ConvergenceTable",
    "SimConfig",
    "Trajectory",
    "convergence_probe",
    "path_generator",
    "simulate",
]

CHUNK_STEPS = 8192
MARK_FREE_STEPS = 1024  # the block of a run that draws no marks
TILE_STEPS = 16  # the steps of scaled normals a run copies at once, each step's paths contiguous
MIN_SPLIT_PATHS = 500  # the fewest paths per worker a run splits across CPUs

POSITIVITY_FLOOR = 1e-12
RENORM_TOL = 1e-9


_REDUCER = ("y_final", "y_area", "tail_area")  # all an ensemble keeps of a path (see _record)
# each per-path output of a run by its Trajectory field: a path's shape ("records": the run's), dtype, keeping domains,
# and whether it is recorded (by :func:`_record`, at record steps), which a run does only if its ``keep`` names it
_OUTPUTS = {"states": (("records", 3), float, (OCTANT, SIMPLEX), True),
            "floor_hits": ((), np.int64, (OCTANT, SIMPLEX), False), "simplex_drift": ((), float, (SIMPLEX,), False),
            **dict.fromkeys(_REDUCER, ((), float, (OCTANT, SIMPLEX), True))}


@dataclass(frozen=True)
class Trajectory:
    """The outputs of ``_OUTPUTS`` a run keeps (None: not kept) for paths over their shared ``times``: ``states``
    (paths, records, 3) or the reducer's (see :func:`_record`), each path's ``floor_hits`` (component clamps) and
    ``simplex_drift`` (largest unit-sum deviation; None on the octant).  ``result[rows]``: the paths ``rows`` alone."""

    times: np.ndarray
    floor_hits: np.ndarray
    states: Optional[np.ndarray] = None
    simplex_drift: Optional[np.ndarray] = None
    y_final: Optional[np.ndarray] = None
    y_area: Optional[np.ndarray] = None
    tail_area: Optional[np.ndarray] = None

    def __getitem__(self, rows: slice) -> Trajectory:
        return replace(self, **{name: a[rows] for name, a in vars(self).items() if name in _OUTPUTS and a is not None})

    def write_csv(self, path) -> None:
        """Write the ``t,X,Y,Z`` rows of a one-path result with 17
        significant digits, lines ended by ``\\n``."""
        if self.states is None:
            raise ValueError("write_csv needs recorded states; this result kept none")
        if len(self.states) != 1:
            raise ValueError(f"write_csv writes one path, this result has {len(self.states)}")
        lines = ["t,X,Y,Z"]
        for t, (x, y, z) in zip(self.times.tolist(), self.states[0].tolist()):  # Python floats format faster
            lines.append(f"{t:.17g},{x:.17g},{y:.17g},{z:.17g}")
        with open(path, "w", newline="") as fh:
            fh.write("\n".join(lines) + "\n")


def _path_key(seed: int, index: int) -> np.ndarray:
    """128-bit Philox key derived from (master seed, path index)."""
    digest = hashlib.blake2b(struct.pack("<qq", int(seed), int(index)), digest_size=16).digest()
    return np.frombuffer(digest, dtype=np.uint64).copy()


@lru_cache(maxsize=1)
def _path_key_class() -> type:
    """The seed class of a path key, made on first use: numpy.random loads then, not with ussir."""

    class PathKey(np.random.bit_generator.ISeedSequence):
        def __init__(self, key: np.ndarray):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
            return self.key  # Philox asks for its key: 2 words of np.uint64

    return PathKey


def _generators(keys) -> list[np.random.Generator]:
    """The generator of each path key, in the state of ``Philox(key=key)``
    without the SeedSequence that Philox would first draw from OS entropy."""
    PathKey = _path_key_class()
    return [np.random.Generator(np.random.Philox(PathKey(key))) for key in keys]


def path_generator(seed: int, index: int = 0) -> np.random.Generator:
    """The generator a given path owns under master ``seed``."""
    return _generators([_path_key(seed, index)])[0]


def _block_marks(measure, gens, regions, block: int, cells) -> tuple:
    """Draw the marks of one block from its marked cells, ``(path, step *
    regions + region, count)`` arrays per path and region: per path one run
    of uniforms by step, small before large.  The table groups the cells by
    ``step * regions + region``: group bounds, each cell's path and mark
    offset, then each mark's path and value, a path's marks in draw order."""
    groups = block * len(regions)
    none = [np.empty(0, dtype=np.int64)]
    flat = np.concatenate(none + [p * groups + cell for p, cell, _ in cells])
    order = np.argsort(flat, kind="stable")  # (path, step, region): the runs' order
    hits, n = flat[order], np.concatenate(none + [k for _, _, k in cells])[order]
    first = np.concatenate(([0], np.cumsum(n)))  # each cell's first uniform, then their count
    path, cell = np.divmod(hits, groups)  # cell = step * regions + region
    per_path = np.diff(first[np.searchsorted(path, np.arange(len(gens) + 1))]).tolist()
    uniforms = np.concatenate([np.empty(0)] + [g.random(m) for g, m in zip(gens, per_path) if m])
    order = np.argsort(cell, kind="stable")
    path, cell, n = path[order], cell[order], n[order]
    offsets = np.concatenate(([0], np.cumsum(n)))
    marks = uniforms[np.repeat(first[order] - offsets[:-1], n) + np.arange(offsets[-1])]
    of_region = np.repeat(cell % len(regions), n)
    for r, name in enumerate(regions):
        at = of_region == r
        marks[at] = measure.inverse_cdf(name, marks[at])
    bounds = np.searchsorted(cell, np.arange(groups + 1)).tolist()
    return bounds, path, offsets, np.repeat(path, n), marks


def run_paths(
    model: ModelSpec,
    s0,
    cfg: SimConfig,
    keys: Sequence[np.ndarray],
    groups=None,
    *, keep: Sequence[str] = ("states",),
) -> Trajectory:
    """Advance every keyed path over the full grid, vectorized across paths.

    The paths are mathematically independent (private generators); batching
    amortizes interpreter overhead, and a wide run splits across CPUs (see
    above).  Time coefficients are evaluated per block of ``CHUNK_STEPS``
    steps (at most ``MARK_FREE_STEPS`` in a run that draws no marks), so
    memory grows with the horizon only if ``keep``, the outputs kept on
    request (see ``_OUTPUTS``), names ``states``; an ensemble keeps
    ``_REDUCER`` instead.  ``groups``, (paths, 3) booleans, says whether
    drift, diffusion and jumps act on each path (None: all); a drift or
    compensator switched off steps by 0 and a noise switched off draws
    nothing (see above).
    """
    s0_arr = check_admissible(s0, model.domain)
    n_paths = len(keys)
    on = np.ones((n_paths, 3), dtype=bool) if groups is None else np.asarray(groups, dtype=bool)
    if on.shape != (n_paths, 3):
        raise ValueError(f"groups must have shape {(n_paths, 3)}, got {on.shape}")
    K, stride = cfg.n_steps, cfg.record_stride
    times = np.minimum(np.arange(-(-K // stride) + 1) * stride, K) * cfg.dt  # steps 0, stride, 2*stride, ..., K
    # the kernel would reap the workers of a process that ignores SIGCHLD unseen
    fork = sys.platform == "linux" and signal.getsignal(signal.SIGCHLD) != signal.SIG_IGN
    workers = max(1, min(len(os.sched_getaffinity(0)), n_paths // MIN_SPLIT_PATHS)) if fork else 1
    # each program a run steps with is emitted here, before a split forks: its workers emit nothing
    model._param_fns, [model.small_jump_fn if region == SMALL else model.large_jump_fn for region in model.mark_rules]
    out = None
    with contextlib.suppress(Exception):  # any fault discards the first attempt
        with np.errstate(all="raise", under="ignore" if np.geterr()["under"] == "ignore" else "raise"):
            out = _split_rows(model, s0_arr, cfg, keys, on, workers, times, keep, model.step_fn)
    if out is None:  # the checked program raises its error, or gives its values and warnings
        out = _split_rows(model, s0_arr, cfg, keys, on, 1, times, keep, model.checked_step_fn)
    return Trajectory(times, **out)


def _outputs(domain: str, keep, n_paths: int, records: int, shared: bool) -> dict:
    """The zeroed outputs that ``domain`` keeps (one kept on request if ``keep`` names it), by name, one after
    another in one buffer, shared if ``shared``."""
    kept = {name: ((n_paths, *(records if d == "records" else d for d in row)), dtype)
            for name, (row, dtype, domains, asked) in _OUTPUTS.items()
            if domain in domains and (name in keep or not asked)}
    ends = np.cumsum([0] + [math.prod(shape) * np.dtype(dtype).itemsize for shape, dtype in kept.values()]).tolist()
    buffer = mmap.mmap(-1, ends[-1]) if shared else np.zeros(ends[-1], np.uint8)
    return {name: np.ndarray(shape, dtype, buffer, at) for (name, (shape, dtype)), at in zip(kept.items(), ends)}


def _split_rows(model, s0_arr, cfg, keys, on, workers, times, keep, step):
    """One attempt at a run with the block program ``step``: ``workers`` row slices at once, slice 0 here and one
    in each forked child, into one :func:`_outputs` (shared if it forks).  None after a failed child."""
    n = len(keys)
    out = _outputs(model.domain, keep, n, len(times), shared=workers > 1)

    def run(w):
        rows = slice(n * w // workers, n * (w + 1) // workers)
        _step_rows(model, s0_arr, cfg, keys[rows], on[rows], step, {name: a[rows] for name, a in out.items()}, times)

    children = []
    try:
        if workers > 1:
            sys.stdout.flush()
            sys.stderr.flush()
            # a child runs on a CPU of the mask other than this thread's (field 39 of its stat):
            # in a cpuset without load balancing, the kernel keeps it on its parent's CPU
            with open("/proc/thread-self/stat") as fh:
                cpus = sorted(os.sched_getaffinity(0) - {int(fh.read().rsplit(")", 1)[1].split()[36])})
        for w in range(1, workers):
            with warnings.catch_warnings():  # Python 3.12 warns of fork() beside OpenBLAS's threads
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
            if pid == 0:
                try:
                    with contextlib.suppress(OSError):  # a CPU the mask names but the machine lacks
                        os.sched_setaffinity(0, {cpus[w - 1]})
                    run(w)
                    os._exit(0)
                finally:  # the child never returns into the caller's stack
                    os._exit(1)
            children.append(pid)
        run(0)
        while children:
            status = os.waitpid(children[-1], 0)[1]
            children.pop()
            if status:
                return None
    finally:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return out


def _tail_start(times) -> int:
    """The first record of the tail half of ``times``: the first at or after the midpoint."""
    return int(np.searchsorted(times, times[0] + 0.5 * (times[-1] - times[0])))


def _record(out, times, tail, S3, r) -> None:
    """Record the state ``S3`` of record ``r`` in the kept outputs ``out``: ``states``, or the reducer's Y_T and
    np.trapezoid's terms d_r * (y_r + y_{r-1}) / 2.0 of Y, summed in record order over all records (``y_area``)
    and over those from record ``tail`` on (``tail_area``); Y_{r-1} is ``y_final``'s."""
    if "states" in out:
        out["states"][:, r] = S3.T
    if r and "y_area" in out:
        term = (times[r] - times[r - 1]) * (S3[1] + out["y_final"]) / 2.0
        out["y_area"] += term
        if r > tail:
            out["tail_area"] += term
    if "y_final" in out:
        out["y_final"][...] = S3[1]


def _step_rows(model, s0_arr, cfg, keys, on, step, out, times) -> None:
    """The blocks of :func:`run_paths`, one call of the block program ``step`` each, at the caller's error settings:
    the rows of ``keys`` and ``on`` into ``out``, their outputs by name (see :func:`_outputs`) at record ``times``."""
    n_paths, dt, K, stride = len(keys), cfg.dt, cfg.n_steps, cfg.record_stride
    gens = _generators(keys)
    regions = list(model.mark_rules)
    S3 = np.tile(s0_arr[:, None], n_paths)  # (3, paths): each component's paths contiguous
    record = partial(_record, out, times, _tail_start(times), S3)
    record(0)
    chunk = CHUNK_STEPS if regions and on[:, 2].any() else min(CHUNK_STEPS, MARK_FREE_STEPS)
    width = min(chunk, K)  # each block's normals are written in place, one row per path
    # one spare step per row: a power-of-two row stride crowds a step's column into few cache sets
    normal_buf = np.zeros((n_paths, width + 1, model.brownian_dim))  # a row without diffusion stays zero
    # each step's multipliers of the program's rows, over the three components: drift_dt, each driver's scaled
    # normals and, with a small rule, comp_dt; a drift or compensator off in a row steps it by 0
    tile = np.empty((min(TILE_STEPS, width), 1 + model.brownian_dim + (SMALL in regions), 3, n_paths))
    tile[:, 0], tile[:, 1 + model.brownian_dim:] = (np.where(on[:, g], dt, 0.0) for g in (0, 2))
    run = (S3, tile, math.sqrt(dt), *map(np.array, (POSITIVITY_FLOOR, RENORM_TOL)), stride, K, out, record)
    u_free = SMALL in regions and model.mark_rules[SMALL][0].size == 1  # H holds every path's small-jump vector

    def jumps(j, incr, comp, H):  # a step with marks, small before large, less the compensator after the small
        bounds, paths, offsets, owners, values = table  # each (step, region) group's marks in one call
        for r, region in enumerate(regions):
            a, b = bounds[j * len(regions) + r], bounds[j * len(regions) + r + 1]
            if a < b:  # the program gets 0-d views of what it reads; each path's marks sum in draw order
                fn, lo, hi = model.small_jump_fn if region == SMALL else model.large_jump_fn, offsets[a], offsets[b]
                marks = H.T[owners[lo:hi]] if u_free and region == SMALL else fn(
                    {name: pv_block[name][j, ...] for name in fn.reads}, S3.T[owners[lo:hi]], values[lo:hi])
                incr.T[paths[a:b]] += np.add.reduceat(marks, offsets[a:b] - lo)
            if region == SMALL:
                incr -= comp

    for k0 in range(0, K, chunk):
        block = min(chunk, K - k0)
        pv_block = model.param_values(np.arange(k0, k0 + block, dtype=float) * dt)
        normals = normal_buf[:, :block]
        if model.has_diffusion:
            for p in np.flatnonzero(on[:, 1]):
                gens[p].standard_normal(out=normals[p])
        cells = []
        for r, region in enumerate(regions):
            rate = model.measure.mass(region) * dt
            for p in np.flatnonzero(on[:, 2]):
                c = gens[p].poisson(rate, block)
                hit = c.nonzero()[0]
                if hit.size:
                    cells.append((p, hit * len(regions) + r, c[hit]))
        table = _block_marks(model.measure, gens, regions, block, cells) if regions else None
        marked = np.diff(table[0]).reshape(block, -1).any(axis=1).tolist() if regions else [False] * block
        step(pv_block, normals, marked, jumps, k0, run)


def simulate(model: ModelSpec, s0, cfg: SimConfig, groups=None) -> Trajectory:
    """The path of stream index 0 under ``cfg.seed``: one row per entry of
    ``groups`` (see :func:`run_paths`), each on that stream, or one row
    with every group when ``groups`` is None."""
    rows = 1 if groups is None else len(groups)
    return run_paths(model, s0, cfg, [_path_key(cfg.seed, 0)] * rows, groups=groups)


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
    """Strong error E|X_T - X^_T| of :func:`run_paths` on a custom octant
    model whose ``x`` is geometric Brownian (a x drift, b x diffusion) and
    whose driftless ``z``, with diffusion 1 on the same driver, records
    W_T = z_T - z_0 for the closed form s0 exp((a - b^2/2) T + b W_T).
    z_0 is 16 standard deviations of W_T, and any clamp raises.  Each dt
    level runs its own path keys; the log-log slope should sit near 1/2.
    """
    dts = [float(dt) for dt in dt_list]
    if any(d2 >= d1 for d1, d2 in zip(dts, dts[1:])):
        raise ValueError("dt_list must be strictly decreasing")
    if paths < 1:
        raise ValueError("paths must be positive")
    model = build_custom(OCTANT, drift=(f"{a:.17g}*x", "0", "0"), diffusion=((f"{b:.17g}*x", "0", "1"),))
    z0 = 16.0 * math.sqrt(horizon)
    errors = []
    for level, dt in enumerate(dts):
        cfg = SimConfig(horizon=horizon, dt=dt, record_stride=math.ceil(horizon / dt))
        keys = [_path_key(seed, level * paths + i) for i in range(paths)]
        traj = run_paths(model, (s0, 1.0, z0), cfg, keys)
        if traj.floor_hits.any():
            raise ValueError(f"the positivity safeguard clamped the oracle at dt={dt:g}")
        approx, w_T = traj.states[:, -1, 0], traj.states[:, -1, 2] - z0
        exact = s0 * np.exp((a - 0.5 * b * b) * traj.times[-1] + b * w_T)
        errors.append(float(np.mean(np.abs(approx - exact))))
    if len(dts) >= 2 and all(e > 0 for e in errors):
        slope = np.polyfit(np.log(dts), np.log(errors), 1)[0]
    else:
        slope = float("nan")
    return ConvergenceTable(dts=tuple(dts), errors=tuple(errors), order=float(slope))
