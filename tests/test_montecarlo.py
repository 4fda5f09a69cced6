import math
import tracemalloc

import numpy as np
import pytest

from ussir.criteria import CriteriaReport
from ussir.integrator import _REDUCER, SimConfig, _path_key, _record, _tail_start, run_paths, simulate
from ussir.models import OCTANT, build_custom
from ussir.montecarlo import EnsembleStats, run_ensemble, verdict, write_ensemble_csv


@pytest.fixture
def drift_only(reduced):
    """Factory of one-path ensembles of a model whose only term is the drift ``y_drift`` of y, from y = ``y0``,
    recording every step."""

    def run(y_drift, y0, horizon, dt):
        model = reduced(build_custom(OCTANT, drift=("0", y_drift, "0"), diffusion=(("0", "0", "0"),)))
        return run_ensemble(model, (0.5, y0, 0.5), SimConfig(horizon=horizon, dt=dt, record_stride=1), paths=1)

    return run


def _reduced(times, ys) -> dict:
    """The reducer's outputs of one path whose infected component is ``ys`` at the record ``times``, fed record
    by record through its update."""
    times = np.asarray(times, dtype=float)
    out = {name: np.zeros(1) for name in _REDUCER}
    for r, y in enumerate(ys):
        _record(out, times, _tail_start(times), np.array([[0.5], [y], [0.5]]), r)
    return out


def _stats(lyapunov=(), tail=()):
    lyap = np.asarray(lyapunov, dtype=float)
    tail = np.asarray(tail, dtype=float) if len(tail) else np.zeros_like(lyap)
    n = max(len(lyap), len(tail))
    return EnsembleStats(
        path_seeds=tuple(f"{i:032x}" for i in range(n)),
        lyapunov=lyap if len(lyap) else np.zeros(n),
        mean_infected=np.zeros(n),
        tail_mean_infected=tail,
        y_final=np.full(n, 0.1),
        floor_hits=np.zeros(n, dtype=np.int64),
        y_extinct=1e-6,
    )


class TestLyapunov:
    def test_constant_is_zero(self, drift_only):
        stats = drift_only("0", 0.3, horizon=2.0, dt=1.0)
        assert stats.lyapunov == 0.0

    def test_exact_exponential(self, drift_only):
        # Euler's y_k = y_0 (1 + c dt)^k is exp(-0.2 t) at the records when c dt = exp(-0.2 dt) - 1
        dt = 0.1
        stats = drift_only(f"{math.expm1(-0.2 * dt) / dt:.17g}*y", 0.3, horizon=10.0, dt=dt)
        assert stats.lyapunov == pytest.approx(-0.2, abs=1e-12)


class TestTimeAverage:
    def test_constant(self, drift_only):
        stats = drift_only("0", 0.4, horizon=2.0, dt=1.0)
        assert stats.mean_infected == pytest.approx(0.4)

    @staticmethod
    def _linear():
        return _reduced(np.linspace(0.0, 1.0, 11), np.linspace(0.0, 1.0, 11))  # Y_0 = 0: no model runs it

    def test_linear_exact(self):
        assert self._linear()["y_area"] / 1.0 == pytest.approx(0.5, abs=1e-15)

    def test_tail_half_of_linear(self):
        assert self._linear()["tail_area"] / 0.5 == pytest.approx(0.75, abs=1e-15)

    def test_running_sums_within_the_summation_bound_of_trapezoid(self, scenario):
        # the reducer sums np.trapezoid's terms in record order, numpy pairwise; a sum in order errs by at most
        # about (n - 1) 2^-53 of the sum of its terms' magnitudes (Higham 1993), the bound held here; the rest is exact
        cfg, model = scenario("table6")
        sim = SimConfig(horizon=1.0, dt=0.01, seed=4, record_stride=3)
        traj = run_paths(model, cfg.initial_state, sim, [_path_key(4, i) for i in range(6)], keep=("states", *_REDUCER))
        stats = run_ensemble(model, cfg.initial_state, sim, paths=6)
        times, y = traj.times, traj.states[:, :, 1]
        start = _tail_start(times)
        assert len(times) - 1 >= 20 and len(times) - 1 - start > 8  # numpy sums 8 or more terms pairwise
        for total, mean, t, ys in ((traj.y_area, stats.mean_infected, times, y),
                                   (traj.tail_area, stats.tail_mean_infected, times[start:], y[:, start:])):
            terms = np.diff(t) * (ys[:, 1:] + ys[:, :-1]) / 2.0
            bound = (terms.shape[1] - 1) * 2.0**-53 * np.abs(terms).sum(axis=1)
            assert np.all(np.abs(total - np.trapezoid(ys, t)) <= bound)
            span = t[-1] - t[0]
            assert np.all(np.abs(mean - np.trapezoid(ys, t) / span) <= bound / span)
            assert mean.tobytes() == (total / span).tobytes()
        horizon = times[-1] - times[0]
        assert stats.lyapunov.tobytes() == ((np.log(y[:, -1]) - np.log(y[:, 0])) / horizon).tobytes()
        assert stats.y_final.tobytes() == traj.y_final.tobytes() == y[:, -1].tobytes()


class TestRunEnsemble:
    def test_single_path_summaries_match_path(self, scenario):
        cfg, model = scenario("table1")
        sim = SimConfig(horizon=1.0, dt=0.001, seed=5, record_stride=10)
        stats = run_ensemble(model, cfg.initial_state, sim, paths=1)
        assert stats.paths == 1
        summary = stats.summary()
        assert summary["lyapunov_median"] == stats.lyapunov[0]
        assert summary["tail_mean_infected_median"] == stats.tail_mean_infected[0]
        assert summary["lyapunov_iqr"] == 0.0

    def test_same_seed_reproduces_everything(self, scenario):
        cfg, model = scenario("table1")
        sim = SimConfig(horizon=0.5, dt=0.001, seed=17, record_stride=10)
        s1 = run_ensemble(model, cfg.initial_state, sim, paths=4)
        s2 = run_ensemble(model, cfg.initial_state, sim, paths=4)
        assert np.array_equal(s1.lyapunov, s2.lyapunov)
        assert np.array_equal(s1.mean_infected, s2.mean_infected)
        assert np.array_equal(s1.y_final, s2.y_final)
        assert s1.path_seeds == s2.path_seeds

    def test_noise_free_reduction_reproduces_deterministic_path(self, scenario, reduced):
        cfg, model = scenario("table1")
        silent = reduced(model)
        sim = SimConfig(horizon=1.0, dt=0.001, seed=3, record_stride=100)
        stats = run_ensemble(silent, cfg.initial_state, sim, paths=5)
        solo = simulate(silent, cfg.initial_state, sim)
        y = solo.states[0, :, 1]
        assert np.all(stats.lyapunov == (np.log(y[-1]) - np.log(y[0])) / (solo.times[-1] - solo.times[0]))
        assert np.all(stats.y_final == solo.states[0, -1, 1])

    @pytest.mark.parametrize("stride", [1, 3, 1000])
    def test_bundle_statistics_match_per_path_calls(self, scenario, stride):
        cfg, model = scenario("table6")
        sim = SimConfig(horizon=1.0, dt=0.01, seed=4, record_stride=stride)
        keys = [_path_key(4, i) for i in range(6)]
        bundle = run_paths(model, cfg.initial_state, sim, keys, keep=_REDUCER)
        rows = [run_paths(model, cfg.initial_state, sim, [key], keep=("states", *_REDUCER)) for key in keys]
        for name in _REDUCER:
            assert np.array_equal(getattr(bundle, name), np.concatenate([getattr(tr, name) for tr in rows])), name
        stats = run_ensemble(model, cfg.initial_state, sim, paths=6)
        times = bundle.times
        horizon, tail = times[-1] - times[0], times[_tail_start(times)]
        y = np.concatenate([tr.states[:, :, 1] for tr in rows])
        assert np.array_equal(stats.lyapunov, (np.log(y[:, -1]) - np.log(y[:, 0])) / horizon)
        assert np.array_equal(stats.mean_infected, bundle.y_area / horizon)
        if stride < sim.n_steps:
            assert np.array_equal(stats.tail_mean_infected, bundle.tail_area / (times[-1] - tail))
        else:  # one tail record
            assert np.array_equal(stats.tail_mean_infected, y[:, -1])
        assert np.array_equal(stats.y_final, [tr.states[0, -1, 1] for tr in rows])
        assert stats.path_seeds[1] == "".join(f"{w:016x}" for w in _path_key(4, 1))

    def test_memory_does_not_grow_with_the_horizon(self, scenario):
        # the ensemble keeps no states: ten times the records cost no more memory
        cfg, model = scenario("table3")
        peaks = []
        for horizon in (0.1, 2.0, 20.0):  # the first run builds what every run reuses
            tracemalloc.start()
            try:
                run_ensemble(model, cfg.initial_state, SimConfig(horizon=horizon, seed=1, record_stride=10), paths=50)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[2] - peaks[1]) < 0.25 * 2**20, peaks

    def test_extinction_fraction_uses_threshold(self):
        stats = _stats(lyapunov=[0.0, 0.0])
        assert stats.extinction_fraction == 0.0  # y_final 0.1 above 1e-6

    def test_paths_must_be_positive(self, scenario):
        cfg, model = scenario("table1")
        with pytest.raises(ValueError):
            run_ensemble(model, cfg.initial_state, SimConfig(horizon=1.0), paths=0)

    def test_clamps_counted_alike_split_and_serial(self, split_runs):
        # y is driven through zero and clamped at every later step
        model = build_custom(domain=OCTANT, drift=("0", "-2", "0"), diffusion=(("0", "0.1*y", "0"),))
        sim = SimConfig(horizon=0.5, dt=0.01, seed=9)
        serial = run_ensemble(model, (1.0, 0.5, 0.5), sim, paths=6)
        calls = split_runs(2)
        split = run_ensemble(model, (1.0, 0.5, 0.5), sim, paths=6)
        assert calls == [3]
        assert serial.floor_hits.sum() > 0 and np.array_equal(split.floor_hits, serial.floor_hits)
        for name in ("y_final", "lyapunov", "mean_infected", "tail_mean_infected"):
            assert getattr(split, name).tobytes() == getattr(serial, name).tobytes(), name

    @pytest.mark.parametrize("y_extinct", [float("nan"), -1.0, 0.0, float("inf")])
    def test_bad_threshold_refused_before_simulating(self, monkeypatch, y_extinct):
        # nan and -1 used to count no path extinct, and inf every path
        model = build_custom(domain=OCTANT, drift=("0", "-y", "0"), diffusion=(("0", "0.1*y", "0"),))
        runs = []
        monkeypatch.setattr("ussir.montecarlo.run_paths", lambda *args: runs.append(args))
        with pytest.raises(ValueError, match=rf"^y_extinct must be positive and finite, got {y_extinct}$"):
            run_ensemble(model, (1.0, 0.5, 0.5), SimConfig(horizon=0.1, dt=0.01), paths=2, y_extinct=y_extinct)
        assert runs == []


class TestVerdict:
    def test_extinct_consistent(self):
        report = CriteriaReport(model_id="x", classification="extinct", extinction_rate_lb=0.16)
        stats = _stats(lyapunov=[-0.2, -0.2, -0.2])
        assert verdict(stats, report, slack=0.5) == "consistent"

    def test_extinct_inconsistent(self):
        # rate 0.16 at slack 0.5: the threshold is -0.16 * 0.5 + 0.5 = +0.42, below the median slope +0.5
        report = CriteriaReport(model_id="x", classification="extinct", extinction_rate_lb=0.16)
        stats = _stats(lyapunov=[0.4, 0.5, 0.6])
        assert verdict(stats, report, slack=0.5) == "inconsistent"

    def test_persistent_inconsistent(self):
        report = CriteriaReport(
            model_id="x", classification="persistent", lambda0=1.0, lam=0.14, mean_infected_lb=0.14
        )
        stats = _stats(lyapunov=[0, 0, 0], tail=[0.05, 0.05, 0.05])
        assert verdict(stats, report, slack=0.3) == "inconsistent"

    def test_indeterminate_inapplicable(self):
        report = CriteriaReport(model_id="x", classification="indeterminate")
        assert verdict(_stats(lyapunov=[0.0]), report, slack=0.5) == "inapplicable"

    def test_slack_must_be_positive(self):
        report = CriteriaReport(model_id="x", classification="indeterminate")
        for slack in (0.0, -0.1, float("nan"), float("inf"), 1.0, 1.5):  # at 1 a persistence verdict cannot fail
            with pytest.raises(ValueError):
                verdict(_stats(lyapunov=[0.0]), report, slack=slack)


class TestEnsembleCsv:
    def test_deterministic_bytes_and_layout(self, tmp_path):
        stats = _stats(lyapunov=[-0.1, -0.2], tail=[0.3, 0.4])
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_ensemble_csv(stats, p1)
        write_ensemble_csv(stats, p2)
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().splitlines()
        assert lines[0] == "path,seed,lyapunov,mean_infected,tail_mean_infected,Y_T"
        assert len([l for l in lines if not l.startswith("#")]) == 3
        assert any(l.startswith("# lyapunov_median") for l in lines)
