"""Spans around the public functions of each ussir module, taken from outside.

A :class:`Tracer` replaces module and class attributes with timing wrappers
at the places callers look them up (for example both
``ussir.integrator.run_paths`` and the copy ``ussir.montecarlo`` imported by
name), and puts the originals back on exit.  No file of the library changes.

Every wrapped call updates an in-memory aggregate per layer name: inclusive
time, self time (its duration minus the time covered by wrapped calls
nested inside it) and a call count.  Calls of the coarse layers are also
kept as spans ``(id, parent, op, name, start, end)``, which :meth:`dump`
writes out at the end; fine-grained per-step calls are aggregated only, so
memory stays flat however long the run is.

With ``full=False`` only ``run_paths`` is wrapped: that probe gives the
path-step count and the simulation time for the end-to-end metrics at the
cost of two clock reads per simulation call.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter

import ussir.cli
import ussir.criteria
import ussir.expr
import ussir.integrator
import ussir.models
import ussir.montecarlo
import ussir.scenario
from ussir.integrator import Trajectory
from ussir.levy import LevyMeasure
from ussir.models import ModelSpec


def _engine_counts(tracer, args, kwargs, out):
    model, _, cfg, keys = args[:4]
    default_chunk = getattr(ussir.integrator, "CHUNK_STEPS", cfg.n_steps)
    chunk = kwargs.get("chunk", args[4] if len(args) > 4 else default_chunk)
    steps = cfg.n_steps
    c = tracer.counts
    c["path_steps"] += len(keys) * steps
    c["floor_hits"] += int(out.floor_hits.sum())
    # computed from array shapes, not measured: one float per time-varying
    # coefficient (and t) per step, and one 8-byte draw per path, step and
    # stream (Brownian columns, small-jump and large-jump counts) per block
    c["pv_grid_bytes"] = max(c["pv_grid_bytes"], steps * (len(model.params) + 1) * 8)
    streams = model.brownian_dim if model.has_diffusion else 0
    for has, region in ((model.has_small_jumps, "small"), (model.has_large_jumps, "large")):
        streams += bool(has and model.measure.mass(region) > 0.0)
    c["rng_block_bytes"] = max(c["rng_block_bytes"], len(keys) * min(chunk, steps) * streams * 8)


def _count_marks(tracer, args, kwargs, out):
    tracer.counts["marks_drawn"] += len(out)


def _count_grid_bounds(tracer, args, kwargs, out):
    tracer.counts["bounds_grid_calls"] += out.method == "grid"


def _count_csv_rows(tracer, args, kwargs, out):
    tracer.counts["csv_rows"] += len(args[0].times)


# (layer name, owners, attribute, keep spans, after-call counter)
ENGINE = [
    ("integrator.run_paths", (ussir.integrator, ussir.montecarlo), "run_paths", True, _engine_counts),
]
LAYERS = ENGINE + [
    ("cli.main", (ussir.cli,), "main", True, None),
    ("scenario.load", (ussir.scenario, ussir.cli), "load_scenario", True, None),
    ("scenario.build", (ussir.scenario, ussir.cli), "build_model", True, None),
    ("expr.evaluate", (ussir.expr, ussir.models), "evaluate", False, None),
    ("expr.bounds", (ussir.models, ussir.criteria), "bounds", True, _count_grid_bounds),
    ("levy.sample_marks", (LevyMeasure,), "sample_marks", False, _count_marks),
    ("levy.quadrature", (LevyMeasure,), "quadrature", False, None),
    ("models.param_values", (ModelSpec,), "param_values", False, None),
    ("models.drift", (ModelSpec,), "drift_pv", False, None),
    ("models.diffusion", (ModelSpec,), "diffusion_pv", False, None),
    ("models.compensator", (ModelSpec,), "compensator_pv", False, None),
    ("models.small_jump", (ModelSpec,), "small_jump_pv", False, None),
    ("models.large_jump", (ModelSpec,), "large_jump_pv", False, None),
    ("models.checks", (ussir.models, ussir.cli), "check_conservation", True, None),
    ("models.checks", (ussir.models, ussir.cli), "check_positivity_ratios", True, None),
    ("integrator.write_csv", (Trajectory,), "write_csv", True, _count_csv_rows),
    ("montecarlo.run_ensemble", (ussir.montecarlo, ussir.cli), "run_ensemble", True, None),
    ("montecarlo.write_csv", (ussir.montecarlo, ussir.cli), "write_ensemble_csv", True, None),
    ("criteria.report", (ussir.criteria, ussir.cli), "report_for_model", True, None),
    ("criteria.generic_alpha", (ussir.criteria,), "generic_alpha_estimate", True, None),
]


class Tracer:
    """Context manager that installs the wrappers and collects spans."""

    def __init__(self, full: bool):
        self.layers = LAYERS if full else ENGINE
        self.totals = defaultdict(lambda: [0.0, 0.0, 0])  # inclusive s, self s, calls
        self.counts = defaultdict(int)
        self.spans = []
        self.op = None
        self._child = [0.0]
        self._parent = [None]
        self._next_id = 0
        self._saved = []
        self.missing = []

    def _wrap(self, name, fn, keep, after):
        child, parent, totals, spans = self._child, self._parent, self.totals, self.spans
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if keep:
                sid = tracer._next_id
                tracer._next_id += 1
                caller = parent[-1]
                parent.append(sid)
            child.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                dur = t1 - t0
                agg = totals[name]
                agg[0] += dur
                agg[1] += dur - child.pop()
                agg[2] += 1
                child[-1] += dur
                if keep:
                    parent.pop()
                    spans.append((sid, caller, tracer.op, name, t0, t1))
            if after is not None:
                after(tracer, args, kwargs, out)
            return out

        return traced

    def __enter__(self):
        self.missing = []
        for name, owners, attr, keep, after in self.layers:
            for owner in owners:
                original = owner.__dict__.get(attr)
                if original is None:  # the library no longer has it; its layer reads 0
                    self.missing.append(f"{owner.__name__}.{attr}")
                    continue
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, keep, after))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    def time_of(self, name: str) -> float:
        return self.totals[name][0]

    def self_time_of(self, name: str) -> float:
        return self.totals[name][1]

    def calls_of(self, name: str) -> int:
        return self.totals[name][2]

    def dump(self, path) -> None:
        """Write the kept spans and the per-layer aggregates as JSON."""
        doc = {
            "spans": [
                {"id": s, "parent": p, "op": op, "name": n, "start": a, "end": b}
                for s, p, op, n, a, b in self.spans
            ],
            "layers": {
                n: {"total_s": v[0], "self_s": v[1], "calls": v[2]} for n, v in self.totals.items()
            },
            "counts": dict(self.counts),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
