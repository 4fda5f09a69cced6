import numpy as np
import pytest

from ussir.criteria import CriteriaReport
from ussir.integrator import SimConfig, Trajectory, _path_key, run_paths, simulate
from ussir.models import OCTANT, build_custom
from ussir.montecarlo import EnsembleStats, _path_statistics, run_ensemble, verdict, write_ensemble_csv


def _traj(times, ys):
    """A one-path result whose infected component is ``ys``."""
    times = np.asarray(times, dtype=float)
    ys = np.asarray(ys, dtype=float)
    states = np.stack([np.full_like(ys, 0.5), ys, np.full_like(ys, 0.5)], axis=-1)
    return Trajectory(times=times, states=states[None], floor_hits=np.zeros(1, dtype=np.int64), simplex_drift=None)


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
    def test_constant_is_zero(self):
        lyapunov, _, _ = _path_statistics(_traj([0, 1, 2], [0.3, 0.3, 0.3]))
        assert lyapunov == 0.0

    def test_exact_exponential(self):
        times = np.linspace(0.0, 10.0, 101)
        lyapunov, _, _ = _path_statistics(_traj(times, np.exp(-0.2 * times)))
        assert lyapunov == pytest.approx(-0.2, abs=1e-12)


class TestTimeAverage:
    def test_constant(self):
        _, full, _ = _path_statistics(_traj([0, 1, 2], [0.4, 0.4, 0.4]))
        assert full == pytest.approx(0.4)

    @staticmethod
    def _linear():
        times = np.linspace(0.0, 1.0, 11)
        with np.errstate(divide="ignore"):  # the log slope of a path from Y_0 = 0
            return _path_statistics(_traj(times, times))

    def test_linear_exact(self):
        _, full, _ = self._linear()
        assert full == pytest.approx(0.5, abs=1e-15)

    def test_tail_half_of_linear(self):
        _, _, tail = self._linear()
        assert tail == pytest.approx(0.75, abs=1e-15)


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
        expected, _, _ = _path_statistics(solo)
        assert np.all(stats.lyapunov == expected)
        assert np.all(stats.y_final == solo.states[0, -1, 1])

    @pytest.mark.parametrize("stride", [1, 3, 1000])
    def test_bundle_statistics_match_per_path_calls(self, scenario, stride):
        cfg, model = scenario("table6")
        sim = SimConfig(horizon=1.0, dt=0.01, seed=4, record_stride=stride)
        keys = [_path_key(4, i) for i in range(6)]
        bundle = run_paths(model, cfg.initial_state, sim, keys)
        rows = [run_paths(model, cfg.initial_state, sim, [key]) for key in keys]
        statistics = _path_statistics(bundle)
        per_path = [_path_statistics(tr) for tr in rows]
        names = ("lyapunov", "mean_infected", "tail_mean_infected")
        for k, (name, values) in enumerate(zip(names, statistics)):
            assert np.array_equal(values, np.concatenate([row[k] for row in per_path])), name
        stats = run_ensemble(model, cfg.initial_state, sim, paths=6)
        for name, values in zip(names, statistics):
            assert np.array_equal(getattr(stats, name), values), name
        assert np.array_equal(stats.y_final, [tr.states[0, -1, 1] for tr in rows])
        assert stats.path_seeds[1] == "".join(f"{w:016x}" for w in _path_key(4, 1))

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
        assert split.y_final.tobytes() == serial.y_final.tobytes()
        assert split.lyapunov.tobytes() == serial.lyapunov.tobytes()

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
