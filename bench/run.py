"""ussir benchmark: one workload per process, checked outputs, JSON result.

Run from the repository root::

    python3 bench/run.py --workload cli_scenarios --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload wide_ensemble --seed 1 --seconds 25 --trace 1 --record r.jsonl
    python3 bench/run.py --compare base.jsonl new.jsonl

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median of
``SETUP_REPS`` fresh interpreters, each importing ``ussir`` and loading and
building every scenario model of the workload), ``wall_s`` (median pass
time), ``path_steps_per_s`` (path-steps over the time spent inside
``run_paths``), and ``peak_rss_mb`` (peak resident memory once the first
pass is done: what one run of the workload needs; later passes are only
repeats for timing, and the allocator's reuse of freed blocks makes the
peak over many passes vary between runs).  ``failed_frac`` (failed over
attempted operations) is printed above the result line and carried by its
``attempted`` and ``failed`` fields.  ``--trace 1`` runs the same passes
with every layer wrapped (see tracing.py), alternating with untraced passes
to measure the tracing overhead, and the isolated layer timings of
layers.py.

The times behind ``wall_s`` and ``path_steps_per_s`` are given at the
host's reference speed.  The host's speed swings by a third or more
within a minute, whatever runs on it, so raw times of the same code
spread too widely between runs to show a regression.  A fixed
calibration kernel (calibrate.py) runs before the first operation and
after each one; each operation's time is multiplied by ``CAL_REF_S`` over
the mean of the kernel times just before and after it.  Interpreter
start-ups swing with the host in their own way, which the kernel does not
follow, so ``setup_s`` is scaled instead by a reference start-up
(``START_REFERENCE``, numpy and standard modules without ``ussir``) run
in alternation with the set-up probes: the median probe is multiplied by
``START_REF_S`` over the median reference.  The unscaled figures are
printed above the result line.

With ``--trace 0`` the benchmark re-executes itself with glibc's
allocator told to keep freed memory for reuse (``MALLOC_TUNABLES``).  By
default every large array the library frees goes back to the kernel, so
each ``custom_expr`` ensemble takes about 140 000 fresh pages; in a
virtual machine the cost of a fresh page depends on the host and swings
the time of that operation by a factor of two between processes.  With
the setting the pages are reused and that cost drops out; the traced run
keeps the default and reports the churn as ``process.minor_faults`` per
untraced pass.

Passes repeat while the next one is expected to end within ``--seconds``
(there is always at least one); every pass of a run uses the
same seed, so passes do the same work.  The last line of standard output is
the result object; ``--record FILE`` also appends it, with the machine
description, as one JSON line for ``--compare``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# one BLAS thread, set before numpy is first imported here or in a child
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPS = 11
# about the seconds the calibration kernel (calibrate.py) takes on a
# 2-core Xeon host at its usual speed; end-to-end times are scaled to it
CAL_REF_S = 0.022
# a start-up without ussir: numpy and the standard modules the library
# imports, timed in a fresh interpreter, and about the seconds it takes on
# a 2-core Xeon host at its usual speed; set-up times are scaled to it
START_REFERENCE = (
    "import time; t0 = time.perf_counter(); "
    "import numpy, numpy.random, json, csv, argparse, dataclasses, math; "
    "print(time.perf_counter() - t0)"
)
START_REF_S = 0.11
# glibc's allocator keeps freed memory for reuse (see the module docstring)
MALLOC_TUNABLES = "glibc.malloc.mmap_threshold=268435456:glibc.malloc.trim_threshold=1073741824"
E2E = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("path_steps_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def setup_probe(refs: list[str]) -> None:
    """Child process: time importing ussir and building the given models."""
    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    from ussir.scenario import build_model, bundled_scenario_path, load_scenario

    for ref in refs:
        build_model(load_scenario(Path(ref) if ref.endswith(".scn") else bundled_scenario_path(ref)))
    print(perf_counter() - t0)


def measure_setup(refs: list[str]) -> tuple[list[float], list[float]]:
    """Times of ``SETUP_REPS`` set-up probes and of as many reference
    start-ups (``START_REFERENCE``), alternating, each in a fresh
    interpreter."""
    probe = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", *refs]
    reference = [sys.executable, "-c", START_REFERENCE]
    samples, references = [], []
    for _ in range(SETUP_REPS):
        for argv, out in ((probe, samples), (reference, references)):
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=120, cwd=ROOT)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
            out.append(float(proc.stdout.split()[-1]))
    return samples, references


def machine(seed: int) -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def run_passes(workload, seconds: float, tracer, failures: list, calibrated: bool = False) -> dict:
    """Repeat passes for ``seconds`` under ``tracer``.

    Returns per-pass lists of per-operation wall times and ``run_paths``
    times, the operations attempted, the peak RSS after the first pass and,
    if ``calibrated``, the times of the calibration kernel, run before the
    first operation and after each one.
    """
    import calibrate

    ops = workload.ops()
    walls, sims, attempted, first_rss = [], [], 0, None
    cals = [calibrate.timed()] if calibrated else []
    start = perf_counter()
    with tracer:
        # start another pass only if, at the mean pass time so far, it ends in time
        while not walls or (perf_counter() - start) * (len(walls) + 1) / len(walls) <= seconds:
            workload.reset()
            walls.append([])
            sims.append([])
            for op in ops:
                tracer.op = f"{len(walls) - 1}:{op.label}"
                attempted += 1
                sim0 = tracer.time_of("integrator.run_paths")
                t0 = perf_counter()
                try:
                    result, error = op.call(), None
                except Exception as exc:  # a crash is a failed operation, not a failed run
                    result, error = None, exc
                walls[-1].append(perf_counter() - t0)
                sims[-1].append(tracer.time_of("integrator.run_paths") - sim0)
                problems = [repr(error)] if error else op.check(result)
                if problems:
                    failures.append(f"{op.label}: {'; '.join(problems)}")
                if calibrated:
                    cals.append(calibrate.timed())
            first_rss = first_rss or peak_rss_mb()
    if tracer.missing:
        print(f"not traced (absent from the library): {tracer.missing}", file=sys.stderr)
    return {"walls": walls, "sims": sims, "attempted": attempted, "rss": first_rss, "cals": cals}


def pass_totals(times: list[list[float]], cals: list[float]) -> list[float]:
    """Per-pass sums of ``times[pass][op]`` at the host's reference speed:
    each operation's time is multiplied by ``CAL_REF_S`` over the mean of
    the kernel times run just before and just after it (``cals``, in run
    order, one more than the operations)."""
    flat = [t for row in times for t in row]
    scaled = [t * 2.0 * CAL_REF_S / (before + after) for t, before, after in zip(flat, cals, cals[1:])]
    n = len(times[0])
    return [sum(scaled[p * n:(p + 1) * n]) for p in range(len(times))]


def end_to_end(workload, args, failures) -> tuple[dict, int]:
    from tracing import Tracer

    setup, references = measure_setup(workload.scenarios())
    probe = Tracer(full=False)
    run = run_passes(workload, args.seconds, probe, failures, calibrated=True)
    walls = pass_totals(run["walls"], run["cals"])
    sims = pass_totals(run["sims"], run["cals"])
    steps_per_pass = probe.counts["path_steps"] / len(walls)
    metrics = {
        "setup_s": statistics.median(setup) * START_REF_S / statistics.median(references),
        "wall_s": statistics.median(walls),
        "path_steps_per_s": steps_per_pass / statistics.median(sims),
        "peak_rss_mb": run["rss"],
    }
    raw_walls = [sum(w) for w in run["walls"]]
    raw_sims = [sum(s) for s in run["sims"]]
    print(f"passes: {len(walls)}  wall_s per pass: {[round(w, 4) for w in walls]}")
    print(f"setup_s per interpreter: {[round(s, 4) for s in setup]}")
    print(f"calibration kernel: median {statistics.median(run['cals']):.5f} s over {len(run['cals'])}, "
          f"reference {CAL_REF_S} s")
    print(f"reference start-up: median {statistics.median(references):.5f} s, reference {START_REF_S} s")
    print(f"unscaled: setup_s {statistics.median(setup):.6g}  wall_s {statistics.median(raw_walls):.6g}  "
          f"path_steps_per_s {steps_per_pass / statistics.median(raw_sims):.6g}")
    return {name: {"value": metrics[name], "unit": unit} for name, unit in E2E}, run["attempted"]


def per_layer(workload, args, failures) -> tuple[dict, int]:
    import layers
    from tracing import Tracer
    from workloads import write_custom_scenario

    # traced and untraced passes alternate, so that a change in machine
    # speed during the run does not land in the tracing overhead
    tracer = Tracer(full=True)
    traced, plain, faults, attempted = [], [], [], 0
    start = perf_counter()
    while not traced or (perf_counter() - start) * (len(traced) + 1) / len(traced) <= args.seconds:
        for t, walls in ((tracer, traced), (Tracer(full=False), plain)):
            faults0 = minor_faults()
            run = run_passes(workload, 0.0, t, failures)
            walls.append(sum(run["walls"][0]))
            attempted += run["attempted"]
        faults.append(minor_faults() - faults0)
    n = len(traced)
    traces = BENCH / "traces"
    traces.mkdir(exist_ok=True)
    tracer.dump(traces / f"{args.workload}-seed{args.seed}.json")

    m = {}

    def layer(prefix, name, calls=True, self_time=False):
        m[f"{prefix}_s"] = (tracer.time_of(name) / n, "s")
        if self_time:
            m[f"{prefix}_self_s"] = (tracer.self_time_of(name) / n, "s")
        if calls:
            m[f"{prefix}_calls"] = (tracer.calls_of(name) / n, "count")

    def count(name, key, unit="count"):
        m[name] = (tracer.counts[key] / n, unit)

    m["scenario.load_s"] = (tracer.time_of("scenario.load") / n, "s")
    m["scenario.calls"] = (tracer.calls_of("scenario.load") / n, "count")
    layer("scenario.build", "scenario.build")
    layer("expr.evaluate", "expr.evaluate")
    layer("expr.bounds", "expr.bounds")
    count("expr.bounds_grid_calls", "bounds_grid_calls")
    layer("levy.sample_marks", "levy.sample_marks")
    count("levy.marks_drawn", "marks_drawn")
    layer("levy.quadrature", "levy.quadrature")
    for part in ("param_values", "drift", "diffusion", "compensator", "small_jump", "large_jump", "checks"):
        layer(f"models.{part}", f"models.{part}")
    layer("integrator.run_paths", "integrator.run_paths", self_time=True)
    count("integrator.path_steps", "path_steps")
    count("integrator.floor_hits", "floor_hits")
    layer("integrator.write_csv", "integrator.write_csv")
    count("integrator.csv_rows", "csv_rows")
    m["integrator.pv_grid_bytes"] = (tracer.counts["pv_grid_bytes"], "bytes_computed")
    m["integrator.rng_block_bytes"] = (tracer.counts["rng_block_bytes"], "bytes_computed")
    m["integrator.rng_block_ns_per_path_step"] = (layers.rng_block_ns(args.seed), "ns")
    custom = write_custom_scenario(workload.work)
    m.update(layers.engine_numbers(custom, args.seed))
    m["montecarlo.stats_s"] = (tracer.self_time_of("montecarlo.run_ensemble") / n, "s")
    m["montecarlo.run_ensemble_calls"] = (tracer.calls_of("montecarlo.run_ensemble") / n, "count")
    layer("montecarlo.write_csv", "montecarlo.write_csv", calls=False)
    layer("criteria.report", "criteria.report")
    layer("criteria.generic_alpha", "criteria.generic_alpha")
    m["cli.main_self_s"] = (tracer.self_time_of("cli.main") / n, "s")
    m["cli.main_calls"] = (tracer.calls_of("cli.main") / n, "count")
    traced_wall, plain_wall = statistics.median(traced), statistics.median(plain)
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    m["trace.spans"] = (len(tracer.spans) / n, "count")
    m["process.minor_faults"] = (statistics.median(faults), "count")
    m["src_lines"] = (layers.src_lines(ROOT), "lines")
    print(f"traced passes: {n}  traced wall_s {traced_wall:.4f}  untraced wall_s {plain_wall:.4f}")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}, attempted


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the result as one JSON line to this file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"), help="compare two record files")
    parser.add_argument("--setup-probe", nargs="+", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0
    if args.compare:
        import compare

        return compare.main(*args.compare, ROOT / "BENCHMARK.json")
    if args.trace == 0 and os.environ.get("GLIBC_TUNABLES") != MALLOC_TUNABLES:
        # the allocator settings take effect only in a fresh image
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "GLIBC_TUNABLES": MALLOC_TUNABLES})
    if not (SRC / "ussir" / "__init__.py").is_file():
        print(f"error: no ussir sources under {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import ussir

    if Path(ussir.__file__).resolve().parent != SRC / "ussir":
        print(f"error: imported ussir from {ussir.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import shutil

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    work = BENCH / ".work" / f"{args.workload}-{os.getpid()}"
    failures: list[str] = []
    try:
        work.mkdir(parents=True)
        workload = WORKLOADS[args.workload](work, args.seed)
        rerun = workload.rerun_check()
        if rerun:
            failures.append(f"rerun: {'; '.join(rerun)}")
        measure = per_layer if args.trace else end_to_end
        metrics, attempted = measure(workload, args, failures)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    attempted += 1  # the rerun check
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    host = machine(args.seed)
    print(f"machine: {json.dumps(host)}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"  failed_frac = {len(failures) / attempted:.6g} fraction ({len(failures)}/{attempted})")
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    if args.record:
        with open(args.record, "a") as fh:
            fh.write(json.dumps({"workload": args.workload, "trace": args.trace,
                                 "machine": host, "result": result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
