"""Acceptance gate: every criterion at its stated tolerance and budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Empirical criteria use the bundled scenario seeds, so every
number here is reproducible.
"""

import math
import time

import filecmp
import numpy as np
import pytest

from test_integrator import _step_block
from ussir.cli import main
from ussir.integrator import SimConfig, _path_key, convergence_probe, run_paths
from ussir.levy import SMALL
from ussir.criteria import report_for_model
from ussir.models import check_structure
from ussir.montecarlo import run_ensemble, verdict
from ussir.scenario import build_model, bundled_scenario_path, load_scenario, sim_config


def _finish(cid, failures, elapsed, budget, detail=""):
    status = "PASS" if not failures else "FAIL"
    line = f"[acceptance] {cid}: {status} ({elapsed:.2f}s, budget {budget:.0f}s)"
    if detail:
        line += f" {detail}"
    print(line)
    assert not failures, f"{cid}: " + "; ".join(failures)
    assert elapsed < budget, f"{cid}: runtime {elapsed:.2f}s over budget {budget}s"


def _fresh_report(name):
    cfg = load_scenario(bundled_scenario_path(name))
    model = build_model(cfg)
    return cfg, model, report_for_model(model)


def test_c01_ex1_extinction_rate():
    t0 = time.perf_counter()
    _, _, report = _fresh_report("table1")
    failures = []
    if report.classification != "extinct":
        failures.append(f"classification {report.classification}")
    if abs(report.extinction_rate_lb - 0.16) > 1e-12:
        failures.append(f"rate {report.extinction_rate_lb!r}")
    _finish("C1 ex1 extinction rate", failures, time.perf_counter() - t0, 1.0,
            f"rate={report.extinction_rate_lb:.17g}")


def test_c02_ex1b_persistence_pair():
    t0 = time.perf_counter()
    _, _, report = _fresh_report("table2")
    oracle = 0.55 - 0.13 - 2.0 * (
        (0.141 + 0.02 * math.sqrt(2.0)) ** 2 + 0.019 - math.log(0.982 * 0.9)
    )
    failures = []
    if abs(report.lambda0 - 0.55) > 1e-12:
        failures.append(f"lambda0 {report.lambda0!r}")
    if abs(report.lam - oracle) > 1e-12:
        failures.append(f"lambda {report.lam!r} vs formula {oracle!r}")
    if abs(report.lam - 0.0776367) > 1e-5:
        failures.append(f"lambda {report.lam!r} vs 0.0776367")
    ratio = report.mean_infected_lb
    if ratio < 0.14115 - 1e-4 or abs(ratio - 0.14115) > 1e-3:
        failures.append(f"ratio {ratio!r}")
    _finish("C2 ex1b persistence pair", failures, time.perf_counter() - t0, 1.0,
            f"lambda={report.lam:.7f} ratio={ratio:.6f}")


def test_c03_xc_low_noise_regime():
    t0 = time.perf_counter()
    _, _, report = _fresh_report("table3")
    failures = []
    if abs(report.invariant_set_bound - 8.484848) > 1e-6:
        failures.append(f"invariant bound {report.invariant_set_bound!r}")
    if abs(report.r_tilde - 0.7646) > 5e-4:
        failures.append(f"r_tilde {report.r_tilde!r}")
    if abs(report.extinction_rate_lb - 0.241) > 1e-3:
        failures.append(f"rate {report.extinction_rate_lb!r}")
    gate = report.condition("sigma_inf_sq_le_low_noise_cap")
    if not gate.satisfied:
        failures.append("low-noise gate not satisfied")
    if not gate.lhs < 0.0121:
        failures.append(f"sigma_inf_sq {gate.lhs!r} not below 0.0121")
    if abs(gate.rhs - 0.0165) > 1e-6:
        failures.append(f"cap {gate.rhs!r} not 0.0165")
    _finish("C3 xc low-noise extinction", failures, time.perf_counter() - t0, 1.0,
            f"r_tilde={report.r_tilde:.5f} rate={report.extinction_rate_lb:.5f}")


def test_c04_xc_high_noise_regime():
    t0 = time.perf_counter()
    _, _, report = _fresh_report("table4")
    gate = report.condition("sigma_inf_sq_gt_high_noise_floor")
    sigma_inf_sq = gate.rhs
    failures = []
    if not gate.satisfied:
        failures.append("high-noise gate not satisfied")
    if sigma_inf_sq < 0.29:
        failures.append(f"sigma_inf_sq {sigma_inf_sq!r} below 0.29")
    if abs(report.extinction_rate_lb - 0.993) > 1e-3:
        failures.append(f"rate {report.extinction_rate_lb!r}")
    _finish("C4 xc high-noise extinction", failures, time.perf_counter() - t0, 1.0,
            f"sigma_inf_sq={sigma_inf_sq:.5f} rate={report.extinction_rate_lb:.5f}")


def test_c05_xc_persistence_threshold():
    t0 = time.perf_counter()
    _, _, report = _fresh_report("table5")
    # independent hand computation from the table bounds
    denom = 0.074 + 0.35 + 0.22
    hand = 0.55 * 0.44 / (0.074 * denom) - (0.24 + 0.01 * math.sqrt(2.0)) ** 2 * 0.56**2 / (
        2.0 * 0.066**2 * denom
    )
    failures = []
    if report.classification != "persistent":
        failures.append(f"classification {report.classification}")
    if not report.r_tilde > 1.0:
        failures.append(f"threshold {report.r_tilde!r} not above 1")
    if abs(report.r_tilde - hand) > 1e-9:
        failures.append(f"threshold {report.r_tilde!r} vs hand value {hand!r}")
    _finish("C5 xc persistence threshold", failures, time.perf_counter() - t0, 1.0,
            f"recorded r_tilde_pers={report.r_tilde:.6f} (hand {hand:.6f})")


def test_c06_truncated_model_criteria():
    t0 = time.perf_counter()
    _, _, r6 = _fresh_report("table6")
    _, _, r7 = _fresh_report("table7")
    failures = []
    if abs(r6.lambda0 - 1.16) > 1e-12:
        failures.append(f"lambda0 {r6.lambda0!r}")
    if r6.lam < 0.075 - 1e-3 or abs(r6.lam - 0.075) > 1e-3:
        failures.append(f"lambda {r6.lam!r}")
    if r6.mean_infected_lb < 0.064 - 1e-3 or abs(r6.mean_infected_lb - 0.064) > 1e-3:
        failures.append(f"bound {r6.mean_infected_lb!r}")
    if abs(r7.extinction_rate_lb - 0.165) > 1e-3:
        failures.append(f"rate {r7.extinction_rate_lb!r}")
    _finish("C6 truncated-model criteria", failures, time.perf_counter() - t0, 1.0,
            f"lambda0={r6.lambda0} lambda={r6.lam:.6f} bound={r6.mean_infected_lb:.6f} "
            f"rate={r7.extinction_rate_lb:.6f}")


def test_c07_conservation(scenario):
    t0 = time.perf_counter()
    failures = []
    for name in ("table1", "table2"):
        _, model = scenario(name)
        report, _ = check_structure(model)
        if not report.passed:
            failures.append(f"{name} max deviation {report.max_abs_deviation:.3e}")
    _finish("C7 conservation sums", failures, time.perf_counter() - t0, 1.0)


def test_c08_simplex_drift(scenario):
    t0 = time.perf_counter()
    cfg, model = scenario("table1")
    seeds = [0, 1, 2, 3, 4]
    maxima = {}
    failures = []
    for dt in (0.001, 0.0005):
        sim = SimConfig(horizon=10.0, dt=dt, seed=0, record_stride=100)
        traj = run_paths(model, cfg.initial_state, sim, [_path_key(s, 0) for s in seeds])
        drifts = traj.simplex_drift.tolist()
        maxima[dt] = max(drifts)
        if any(d > 1e-2 for d in drifts):
            failures.append(f"dt={dt}: drift {max(drifts):.3e} above 1e-2")
    # the scheme conserves the sum exactly up to rounding, so both maxima sit
    # at the float-noise floor; "shrinks" is vacuous below 1e-9
    if not (maxima[0.0005] <= maxima[0.001] or max(maxima.values()) <= 1e-9):
        failures.append(f"halved dt did not shrink drift: {maxima}")
    _finish("C8 simplex drift", failures, time.perf_counter() - t0, 30.0,
            f"max(dt=1e-3)={maxima[0.001]:.2e} max(dt=5e-4)={maxima[0.0005]:.2e}")


def test_c09_invariant_set(scenario):
    t0 = time.perf_counter()
    cfg, model = scenario("table3")
    report = report_for_model(model)
    bound = report.invariant_set_bound + 1e-3
    sim = SimConfig(horizon=100.0, dt=0.001, seed=0, record_stride=100)
    traj = run_paths(model, cfg.initial_state, sim, [_path_key(s, 0) for s in range(20)])
    totals = traj.states.sum(axis=2)
    outside = int((totals > bound).sum())
    worst = float(totals.max())
    failures = [] if outside == 0 else [f"{outside} recorded states outside the inflated set"]
    _finish("C9 invariant set containment", failures, time.perf_counter() - t0, 120.0,
            f"max total={worst:.4f} vs bound={report.invariant_set_bound:.6f}")


def test_c10_extinction_ensembles(scenario):
    t0 = time.perf_counter()
    failures = []
    details = []
    for name in ("table1", "table3", "table4", "table7"):
        cfg, model = scenario(name)
        stats = run_ensemble(model, cfg.initial_state, sim_config(cfg), paths=50)
        report = report_for_model(model)
        median = float(np.median(stats.lyapunov))
        outcome = verdict(stats, report, slack=0.5)
        details.append(f"{name}: median={median:.3f}")
        if median >= 0.0:
            failures.append(f"{name}: median log slope {median:.4f} not negative")
        if outcome != "consistent":
            failures.append(f"{name}: verdict {outcome}")
    _finish("C10 extinction ensembles", failures, time.perf_counter() - t0, 600.0,
            " ".join(details))


def test_c11_persistence_ensembles(scenario):
    t0 = time.perf_counter()
    failures = []
    details = []
    for name, half_bound in (("table2", 0.14115 / 2), ("table6", 0.064 / 2), ("table5", None)):
        cfg, model = scenario(name)
        stats = run_ensemble(model, cfg.initial_state, sim_config(cfg), paths=50)
        report = report_for_model(model)
        median = float(np.median(stats.tail_mean_infected))
        threshold = half_bound if half_bound is not None else report.mean_infected_lb / 2.0
        outcome = verdict(stats, report, slack=0.5)
        details.append(f"{name}: median={median:.4f} (floor {threshold:.4f})")
        if median < threshold:
            failures.append(f"{name}: median tail average {median:.4f} below {threshold:.4f}")
        if outcome != "consistent":
            failures.append(f"{name}: verdict {outcome}")
    _finish("C11 persistence ensembles", failures, time.perf_counter() - t0, 900.0,
            " ".join(details))


def test_c12_strong_convergence_order():
    t0 = time.perf_counter()
    table = convergence_probe(
        a=0.1, b=0.2, s0=1.0, horizon=1.0,
        dt_list=[1e-2, 5e-3, 2.5e-3, 1.25e-3], paths=1000, seed=42,
    )
    failures = []
    if not 0.35 <= table.order <= 0.65:
        failures.append(f"order {table.order:.3f} outside [0.35, 0.65]")
    _finish("C12 strong convergence order", failures, time.perf_counter() - t0, 60.0,
            f"order={table.order:.3f}")


def test_c13_compensation_property(scenario):
    t0 = time.perf_counter()
    _, model = scenario("table1")
    state = np.array([0.8, 0.19, 0.01])
    dt, steps = 0.001, 100_000
    pv = model.param_values(0.0)
    one_step = model.param_values(np.zeros(1))
    _, (comp,) = _step_block(model, one_step, state[None], np.zeros((1, model.brownian_dim)), 0.0, 1.0)  # comp_dt 1
    small_mass = model.measure.mass(SMALL)
    rng = np.random.Generator(np.random.Philox(key=[2024, 13]))
    acc = np.zeros(3)
    acc_sq = np.zeros(3)
    for _ in range(steps):
        marks = model.measure.inverse_cdf(SMALL, rng.random(int(rng.poisson(small_mass * dt))))
        inc = -comp * dt
        if len(marks):
            inc = inc + model.small_jump_fn(pv, state, marks).sum(axis=0)
        acc += inc
        acc_sq += inc**2
    mean = acc / steps
    se = np.sqrt((acc_sq / steps - mean**2) / steps)
    failures = []
    if not np.all(np.abs(mean) <= 3.0 * se + 1e-18):
        failures.append(f"mean {mean.tolist()} beyond 3 standard errors {se.tolist()}")
    _finish("C13 compensation property", failures, time.perf_counter() - t0, 30.0,
            f"mean/se={(np.abs(mean) / np.maximum(se, 1e-300)).round(2).tolist()}")


def test_c14_byte_identical_reruns(tmp_path):
    t0 = time.perf_counter()
    args_sets = [
        ["simulate", "--config", "table1", "--horizon", "2", "--seed", "5"],
        ["ensemble", "--config", "table1", "--horizon", "2", "--paths", "3", "--seed", "5"],
    ]
    for sub in ("one", "two"):
        for args in args_sets:
            code = main(args + ["--out", str(tmp_path / sub)])
            assert code == 0
    names = sorted(p.name for p in (tmp_path / "one").iterdir())
    match, mismatch, errors = filecmp.cmpfiles(
        tmp_path / "one", tmp_path / "two", names, shallow=False
    )
    failures = []
    if mismatch or errors:
        failures.append(f"mismatched files {mismatch} errors {errors}")
    if len(names) < 5:
        failures.append(f"expected at least five output files, saw {names}")
    _finish("C14 byte-identical reruns", failures, time.perf_counter() - t0, 60.0,
            f"{len(names)} files compared")
