import dataclasses
import math

import numpy as np
import pytest

from ussir.integrator import (
    SimConfig,
    Trajectory,
    _path_key,
    convergence_probe,
    path_generator,
    run_paths,
    simulate,
    simulate_batch,
)
from ussir.levy import LARGE, SMALL
from ussir.models import OCTANT, SIMPLEX, build_custom, suppress

ZEROS = ("0", "0", "0")


@pytest.fixture
def zero_model():
    return build_custom(domain=OCTANT, drift=("0", "0", "0"), diffusion=(("0", "0", "0"),))


class TestSimConfig:
    def test_defaults(self):
        cfg = SimConfig(horizon=10.0)
        assert cfg.dt == 0.001
        assert cfg.positivity_floor == 1e-12
        assert cfg.n_steps == 10_000

    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(horizon=1.0, dt=0.0)
        with pytest.raises(ValueError):
            SimConfig(horizon=0.0005, dt=0.001)
        with pytest.raises(ValueError):
            SimConfig(horizon=1.0, record_stride=0)
        with pytest.raises(ValueError):
            SimConfig(horizon=1.0, seed=2**64)


class TestProject:
    """The engine's positivity safeguard, one deterministic step at a time."""

    def test_negative_component_raised_to_floor(self):
        overshoot = build_custom(domain=SIMPLEX, drift=("-2000*x", "1000*x", "1000*x"), diffusion=(ZEROS,))
        out = _one_step(overshoot, (1e-13, 0.5, 0.5 - 1e-13), 0.001, 0)
        assert out[0] == 1e-12
        assert abs(out.sum() - 1.0) <= 1e-9

    def test_admissible_state_unchanged(self):
        state = (0.3, 0.45, 0.25)
        still = build_custom(domain=SIMPLEX, drift=ZEROS, diffusion=(ZEROS,))
        assert np.array_equal(_one_step(still, state, 0.001, 0), state)

    def test_renormalization(self):
        # a non-conserving drift on the simplex (the custom gate would refuse it)
        grow = dataclasses.replace(
            build_custom(domain=OCTANT, drift=("0", "0", "100"), diffusion=(ZEROS,)), domain=SIMPLEX
        )
        out = _one_step(grow, (0.2, 0.3, 0.5), 0.001, 0)
        assert np.allclose(out, np.array([0.2, 0.3, 0.6]) / 1.1, atol=1e-15)

    def test_octant_never_renormalizes(self):
        grow = build_custom(domain=OCTANT, drift=("0", "0", "100"), diffusion=(ZEROS,))
        out = _one_step(grow, (2.0, 3.0, 4.0), 0.001, 0)
        assert np.array_equal(out, (2.0, 3.0, 4.0 + 100.0 * 0.001))

    def test_tiny_positive_values_pass_through(self, zero_model):
        out = _one_step(zero_model, (1e-20, 0.5, 0.5), 0.001, 0)
        assert out[0] == 1e-20


def _safeguard(state, domain, floor):
    """The engine's safeguard restated: clamp at the floor, renormalize a
    drifted simplex state."""
    state = np.where(state <= 0.0, floor, state)
    total = state.sum()
    if domain == SIMPLEX and abs(total - 1.0) > 1e-9:
        state = state / total
    return state


def _reference_step(model, t, state, dt, rng, floor=1e-12, counts=None):
    """One Euler-Maruyama step written out plainly, drawing in the engine's
    block-of-one order: Brownian increments, small-jump count, large-jump
    count, small marks, large marks.  Inactive noise groups draw nothing.
    ``counts`` (a dict), when given, accumulates the marks drawn per region."""
    s = np.asarray(state, dtype=float)
    pv = model.param_values(t)
    incr = model.drift_pv(pv, s) * dt
    if model.has_diffusion:
        dB = rng.standard_normal(model.brownian_dim) * math.sqrt(dt)
        incr = incr + (model.diffusion_pv(pv, s) * dB).sum(axis=-1)
    n_small = n_large = 0
    if model.has_small_jumps:
        small_mass = model.measure.mass(SMALL)
        if small_mass > 0.0:
            n_small = int(rng.poisson(small_mass * dt))
    if model.has_large_jumps:
        large_mass = model.measure.mass(LARGE)
        if large_mass > 0.0:
            n_large = int(rng.poisson(large_mass * dt))
    if counts is not None:
        counts["small"] = counts.get("small", 0) + n_small
        counts["large"] = counts.get("large", 0) + n_large
    if model.has_small_jumps:
        if n_small:
            marks = model.measure.sample_marks(SMALL, n_small, rng)
            incr = incr + model.small_jump_pv(pv, s, marks).sum(axis=0)
        incr = incr - model.compensator_pv(pv, s) * dt
    if n_large:
        marks = model.measure.sample_marks(LARGE, n_large, rng)
        incr = incr + model.large_jump_pv(pv, s, marks).sum(axis=0)
    return _safeguard(s + incr, model.domain, floor)


def _one_step(model, state, dt, seed):
    return simulate(model, state, SimConfig(horizon=dt, dt=dt, seed=seed)).final_state


class TestStep:
    def test_deterministic_drift_step(self, scenario):
        _, model = scenario("table3")
        silent = suppress(model)
        out = _one_step(silent, (2.0, 0.8, 1.0), 0.001, 0)
        assert out[0] == pytest.approx(2.000144, abs=1e-12)

    def test_zero_model_identity(self, zero_model):
        s = (1.0, 2.0, 3.0)
        out = _one_step(zero_model, s, 0.01, 0)
        assert np.array_equal(out, s)

    def test_fixed_seed_repeatable(self, scenario):
        _, model = scenario("table1")
        s = (0.8, 0.19, 0.01)
        a = _one_step(model, s, 0.001, 42)
        b = _one_step(model, s, 0.001, 42)
        assert np.array_equal(a, b)

    def test_rejects_bad_dt(self, scenario):
        _, model = scenario("table1")
        with pytest.raises(ValueError):
            _one_step(model, (0.8, 0.19, 0.01), 0.0, 0)


class TestSimulate:
    def test_zero_model_constant_trajectory(self, zero_model):
        cfg = SimConfig(horizon=1.0, dt=0.01, seed=5)
        traj = simulate(zero_model, (1.0, 2.0, 3.0), cfg)
        assert np.all(traj.states == [1.0, 2.0, 3.0])
        assert traj.floor_hits == 0

    def test_deterministic_repetition(self, scenario):
        _, model = scenario("table1")
        cfg = SimConfig(horizon=1.0, dt=0.001, seed=71, record_stride=10)
        t1 = simulate(model, (0.8, 0.19, 0.01), cfg)
        t2 = simulate(model, (0.8, 0.19, 0.01), cfg)
        assert np.array_equal(t1.states, t2.states)
        assert np.array_equal(t1.times, t2.times)

    @staticmethod
    def _engine_and_manual(model, s0, horizon, seed):
        """Chunk-of-one engine states, the reference loop's states, and the
        reference's mark counts."""
        cfg = SimConfig(horizon=horizon, dt=0.001, seed=seed, record_stride=1)
        bundle = run_paths(model, s0, cfg, [_path_key(seed, 0)], chunk=1)
        gen = path_generator(seed, 0)
        s = np.array(s0, dtype=float)
        manual = [s.copy()]
        counts = {}
        for k in range(cfg.n_steps):
            s = _reference_step(model, k * cfg.dt, s, cfg.dt, gen, counts=counts)
            manual.append(s.copy())
        return bundle.states[0], np.array(manual), counts

    def test_engine_matches_manual_step_loop(self, scenario):
        # chunk-of-one engine consumes the stream exactly like the reference step
        _, model = scenario("table1")
        engine, manual, _ = self._engine_and_manual(model, (0.8, 0.19, 0.01), 0.3, 7)
        assert np.array_equal(engine, manual)

    def test_engine_matches_manual_step_loop_with_large_marks(self, scenario):
        # long enough that large marks are drawn, so the large-jump branch is compared too
        cfg, model = scenario("table7")
        engine, manual, counts = self._engine_and_manual(model, cfg.initial_state, 2.0, 7)
        assert counts["large"] >= 1 and counts["small"] >= 1
        assert np.array_equal(engine, manual)

    def test_batch_matches_solo_runs(self, scenario):
        _, model = scenario("table2")
        cfg = SimConfig(horizon=0.5, dt=0.001, seed=0, record_stride=50)
        batch = simulate_batch(model, (0.85, 0.1, 0.05), cfg, seeds=[3, 9])
        for seed, traj in zip([3, 9], batch):
            solo_cfg = SimConfig(horizon=0.5, dt=0.001, seed=seed, record_stride=50)
            solo = simulate(model, (0.85, 0.1, 0.05), solo_cfg)
            assert np.array_equal(traj.states, solo.states)

    def test_rejects_inadmissible_start(self, scenario):
        _, model = scenario("table1")
        cfg = SimConfig(horizon=1.0)
        with pytest.raises(ValueError):
            simulate(model, (0.5, 0.2, 0.2), cfg)  # sums to 0.9

    def test_recording_grid(self, zero_model):
        cfg = SimConfig(horizon=1.0, dt=0.01, seed=0, record_stride=7)
        traj = simulate(zero_model, (1.0, 1.0, 1.0), cfg)
        # steps 0, 7, ..., 98 plus the forced final step 100
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(1.0)
        assert len(traj.times) == 16
        assert np.all(np.diff(traj.times) > 0)

    def test_simplex_drift_tracked_small(self, scenario):
        _, model = scenario("table1")
        cfg = SimConfig(horizon=2.0, dt=0.001, seed=11, record_stride=100)
        traj = simulate(model, (0.8, 0.19, 0.01), cfg)
        assert traj.simplex_drift is not None
        assert traj.simplex_drift <= 1e-9

    def test_octant_has_no_simplex_drift(self, scenario):
        _, model = scenario("table3")
        cfg = SimConfig(horizon=0.1, dt=0.001, seed=1)
        traj = simulate(model, (2.0, 0.8, 1.0), cfg)
        assert traj.simplex_drift is None


class TestFloorSemantics:
    def test_decay_below_floor_is_not_clamped(self):
        model = build_custom(domain=OCTANT, drift=("0", "-5*y", "0"), diffusion=(("0", "0", "0"),))
        cfg = SimConfig(horizon=10.0, dt=0.001, seed=0, record_stride=1000)
        traj = simulate(model, (1.0, 1.0, 1.0), cfg)
        assert traj.floor_hits == 0
        assert 0.0 < traj.y[-1] < 1e-12  # legitimate tiny value, untouched

    def test_zero_crossing_is_clamped_and_counted(self):
        model = build_custom(domain=OCTANT, drift=("0", "-2", "0"), diffusion=(("0", "0", "0"),))
        cfg = SimConfig(horizon=1.0, dt=0.01, seed=0)
        traj = simulate(model, (1.0, 0.5, 1.0), cfg)
        assert traj.floor_hits > 0
        assert traj.y[-1] >= 1e-12


class TestTrajectoryCsv:
    def test_format_and_determinism(self, zero_model, tmp_path):
        cfg = SimConfig(horizon=0.05, dt=0.01, seed=0)
        traj = simulate(zero_model, (1.0, 0.5, 0.25), cfg)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        traj.write_csv(p1)
        traj.write_csv(p2)
        content = p1.read_bytes()
        assert content == p2.read_bytes()
        lines = content.decode().splitlines()
        assert lines[0] == "t,X,Y,Z"
        assert lines[1].startswith("0,1,0.5,0.25")
        assert len(lines) == len(traj.times) + 1


class TestConvergenceProbe:
    def test_noise_free_reduces_to_euler(self):
        a, s0, horizon = 0.1, 1.0, 1.0
        table = convergence_probe(a, 0.0, s0, horizon, [0.01], paths=1, seed=0)
        k = round(horizon / 0.01)
        euler = s0 * (1.0 + a * 0.01) ** k
        assert table.errors[0] == pytest.approx(abs(euler - s0 * math.exp(a * horizon)), rel=1e-12)
        assert table.errors[0] < 0.01 * a**2 * math.exp(a)  # O(dt) for the linear flow

    def test_single_step_error_closed_form(self):
        a, s0, horizon = 0.3, 2.0, 1.0
        table = convergence_probe(a, 0.0, s0, horizon, [horizon], paths=1, seed=0)
        assert table.errors[0] == pytest.approx(abs(s0 * (1 + a) - s0 * math.exp(a)), rel=1e-12)

    def test_requires_decreasing_dts(self):
        with pytest.raises(ValueError):
            convergence_probe(0.1, 0.2, 1.0, 1.0, [0.01, 0.01], paths=10, seed=0)

    def test_strong_order_near_half(self):
        table = convergence_probe(
            0.1, 0.2, 1.0, 1.0, [0.01, 0.005, 0.0025, 0.00125], paths=400, seed=9
        )
        assert 0.35 <= table.order <= 0.65
        assert all(e2 < e1 for e1, e2 in zip(table.errors, table.errors[1:]))
