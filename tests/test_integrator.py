import dataclasses
import math
import os
import re
import signal
import tracemalloc
import warnings

import numpy as np
import pytest

from test_custom_parity import custom_text
from ussir import integrator
from ussir.expr import BinOp, EvalDomainError, Var, compile_program
from ussir.integrator import (
    CHUNK_STEPS,
    MARK_FREE_STEPS,
    POSITIVITY_FLOOR,
    RENORM_TOL,
    TILE_STEPS,
    SimConfig,
    Trajectory,
    _path_key,
    convergence_probe,
    path_generator,
    run_paths,
    simulate,
)
from ussir.levy import LARGE, QUAD_NODES, SMALL, LevyMeasure
from ussir.models import OCTANT, SIMPLEX, ModelSpec, build_custom
from ussir.scenario import build_model, load_scenario

ZEROS = ("0", "0", "0")


@pytest.fixture
def zero_model():
    return build_custom(domain=OCTANT, drift=("0", "0", "0"), diffusion=(("0", "0", "0"),))


class TestSimConfig:
    def test_defaults(self):
        cfg = SimConfig(horizon=10.0)
        assert cfg.dt == 0.001
        assert POSITIVITY_FLOOR == 1e-12
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
        with pytest.raises(ValueError, match="^horizon and dt must be finite$"):
            SimConfig(horizon=math.inf)
        with pytest.raises(ValueError, match="^horizon / dt must be a finite number of steps$"):
            SimConfig(horizon=1e300, dt=1e-300)  # the step count overflows to inf

    @pytest.mark.parametrize("seed", [5.9, -0.5, math.nan, math.inf])
    def test_non_integral_seed_refused(self, seed):
        with pytest.raises(ValueError, match="seed must fit in a signed 64-bit integer"):
            SimConfig(horizon=1.0, seed=seed)

    def test_integral_seed_stored_as_int(self):
        seed = SimConfig(horizon=1.0, seed=np.float64(5.0)).seed
        assert seed == 5 and type(seed) is int


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
    A region's marks sum as the engine sums each path's: numpy's reduceat,
    which sums 8 or more rows pairwise.  ``counts`` (a dict), when given,
    accumulates the marks drawn per region and keeps the most small marks
    of one step."""
    s = np.asarray(state, dtype=float)
    pv = model.param_values(t)
    incr = model.drift_fn(pv, s) * dt
    if model.has_diffusion:
        dB = rng.standard_normal(model.brownian_dim) * math.sqrt(dt)
        incr = incr + (model.diffusion_fn(pv, s) * dB).sum(axis=-1)
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
        counts["most_small"] = max(counts.get("most_small", 0), n_small)
    if model.has_small_jumps:
        if n_small:
            marks = model.measure.inverse_cdf(SMALL, rng.random(n_small))
            incr = incr + np.add.reduceat(model.small_jump_fn(pv, s, marks), [0])[0]
        if SMALL in model.mark_rules:  # the small region's integral of the jump vector, by its mark rule
            nodes, weights = model.mark_rules[SMALL]
            incr = incr - (model.small_jump_fn(pv, s, nodes) * weights[:, None]).sum(axis=0) * dt
    if n_large:
        marks = model.measure.inverse_cdf(LARGE, rng.random(n_large))
        incr = incr + np.add.reduceat(model.large_jump_fn(pv, s, marks), [0])[0]
    return _safeguard(s + incr, model.domain, floor)


def _dense_marks_model():
    """An octant model whose u-free small jumps use /, ^, ln and min and
    whose large jumps read u, at a measure density of 6 marks per step of
    0.001 in each region on average."""
    return build_custom(
        domain=OCTANT, drift=("0.1-0.1*x", "0.05-0.1*y", "0.02-0.05*z"), diffusion=(("0.1*x", "0.05*y", "0"),),
        small_jump=("0.02*min(x,1)/(1+y)", "-0.02*ln(1+y)^2+0.02*z^0.5", "0.02*min(z,1)/(x+z)"),
        large_jump=("0.0001*u*x", "0", "0.0001*u"), measure=LevyMeasure(-2.0, 2.0, 3000.0),
    )


def _one_step(model, state, dt, seed):
    return simulate(model, state, SimConfig(horizon=dt, dt=dt, seed=seed)).states[0, -1]


class TestStep:
    def test_deterministic_drift_step(self, scenario, reduced):
        _, model = scenario("table3")
        silent = reduced(model)
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
    def _engine_and_manual(monkeypatch, model, s0, horizon, seed):
        """Chunk-of-one engine states, the reference loop's states, and the
        reference's mark counts."""
        cfg = SimConfig(horizon=horizon, dt=0.001, seed=seed, record_stride=1)
        monkeypatch.setattr(integrator, "CHUNK_STEPS", 1)
        bundle = run_paths(model, s0, cfg, [_path_key(seed, 0)])
        gen = path_generator(seed, 0)
        s = np.array(s0, dtype=float)
        manual = [s.copy()]
        counts = {}
        for k in range(cfg.n_steps):
            s = _reference_step(model, k * cfg.dt, s, cfg.dt, gen, counts=counts)
            manual.append(s.copy())
        return bundle.states[0], np.array(manual), counts

    def test_engine_matches_manual_step_loop(self, scenario, monkeypatch):
        # chunk-of-one engine consumes the stream exactly like the reference step
        _, model = scenario("table1")
        engine, manual, _ = self._engine_and_manual(monkeypatch, model, (0.8, 0.19, 0.01), 0.3, 7)
        assert np.array_equal(engine, manual)

    def test_engine_matches_manual_step_loop_with_large_marks(self, scenario, monkeypatch):
        # long enough that large marks are drawn, so the large-jump branch is compared too
        cfg, model = scenario("table7")
        engine, manual, counts = self._engine_and_manual(monkeypatch, model, cfg.initial_state, 2.0, 7)
        assert counts["large"] >= 1 and counts["small"] >= 1
        assert np.array_equal(engine, manual)

    def test_u_free_small_marks_are_the_step_program_rows(self, monkeypatch):
        # u-free small jumps through /, ^, ln and min, dense enough that a step holds 8 or more small marks:
        # each small mark is its path's row of the step program's jump vector, summed as the jump programs'
        # marks are (count * row moves bits), while the large marks, which read u, go through their program
        model, s0 = _dense_marks_model(), (1.0, 0.5, 0.5)
        assert model.mark_rules[SMALL][0].size == 1 and model.mark_rules[LARGE][0].size == 2 * QUAD_NODES
        engine, manual, counts = self._engine_and_manual(monkeypatch, model, s0, 0.3, 7)
        assert counts["most_small"] >= 8 and counts["large"] >= 1
        assert np.array_equal(engine, manual)
        # each path's marks read its own row, in blocks of several steps
        monkeypatch.setattr(integrator, "CHUNK_STEPS", 16)
        object.__setattr__(model, "small_jump_fn", None)  # a run never calls the small-jump program
        cfg = SimConfig(horizon=0.1, dt=0.001, seed=7)
        batch = run_paths(model, s0, cfg, [_path_key(7, i) for i in range(5)])
        for i in range(5):
            assert np.array_equal(batch.states[i], run_paths(model, s0, cfg, [_path_key(7, i)]).states[0])

    @pytest.mark.parametrize("seed, index", [(0, 0), (7, 3), (-5, 2**40)])
    def test_path_generator_is_philox_keyed(self, seed, index):
        # the engine seeds Philox with the key itself instead of a SeedSequence drawn from OS entropy
        gen, keyed = path_generator(seed, index), np.random.Generator(np.random.Philox(key=_path_key(seed, index)))
        assert repr(gen.bit_generator.state) == repr(keyed.bit_generator.state)  # key, counter and buffer
        for draw in (lambda g: g.standard_normal((7, 3)), lambda g: g.poisson(0.8, 50), lambda g: g.random(9)):
            assert draw(gen).tobytes() == draw(keyed).tobytes()

    def test_batch_matches_solo_runs(self, scenario):
        _, model = scenario("table2")
        cfg = SimConfig(horizon=0.5, dt=0.001, seed=0, record_stride=50)
        batch = run_paths(model, (0.85, 0.1, 0.05), cfg, [_path_key(seed, 0) for seed in (3, 9)])
        for seed, states in zip([3, 9], batch.states):
            solo_cfg = SimConfig(horizon=0.5, dt=0.001, seed=seed, record_stride=50)
            solo = simulate(model, (0.85, 0.1, 0.05), solo_cfg)
            assert np.array_equal(states, solo.states[0])

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

    def test_float_record_stride_records_the_integer_grid(self, zero_model):
        cfgs = [SimConfig(horizon=1.0, dt=0.01, seed=0, record_stride=stride) for stride in (7, 7.0)]
        assert cfgs[1].record_stride == 7 and type(cfgs[1].record_stride) is int
        a, b = (simulate(zero_model, (1.0, 1.0, 1.0), cfg) for cfg in cfgs)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.states, b.states)

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


def _replayed_counts(model, cfg, keys, chunk):
    """Each path's jump counts per drawn region, (paths, steps), read by
    replaying its stream in the engine's block order: Brownian increments,
    small-jump counts, large-jump counts, then all the block's marks as one
    run of uniforms."""
    drawn = list(model.mark_rules)
    masses = {region: model.measure.mass(region) for region in drawn}
    rows = {region: [] for region in drawn}
    for key in keys:
        g = np.random.Generator(np.random.Philox(key=key))
        blocks = {region: [] for region in drawn}
        for k0 in range(0, cfg.n_steps, chunk):
            block = min(chunk, cfg.n_steps - k0)
            if model.has_diffusion:
                g.standard_normal((block, model.brownian_dim))
            counts = [g.poisson(masses[region] * cfg.dt, block) for region in drawn]
            g.random(sum(int(c.sum()) for c in counts))
            for region, c in zip(drawn, counts):
                blocks[region].append(c)
        for region in drawn:
            rows[region].append(np.concatenate(blocks[region]))
    return {region: np.array(r) for region, r in rows.items()}


class TestBatchedJumps:
    """Batched mark draws and jump evaluation against one path at a time.
    At dt 0.02 with 120 paths, some steps have several paths jumping in one
    region and some paths take several marks of one region in one step.
    The bundled jump coefficients do not read the mark, so ``marked`` (a
    custom model whose jumps do, differently per region) checks the mark
    values and their order in the stream as well.  ``small_only`` and
    ``large_only`` run it under a measure with one region of zero mass."""

    CFG = SimConfig(horizon=1.0, dt=0.02, seed=4, record_stride=1)
    KEYS = [_path_key(4, i) for i in range(120)]
    # case: (the custom model's measure, None for a bundled scenario; the regions a run draws)
    CASES = {
        "table1": (None, [SMALL, LARGE]),
        "table6": (None, [SMALL, LARGE]),
        "marked": (LevyMeasure(), [SMALL, LARGE]),
        "small_only": (LevyMeasure(-0.5, 0.5), [SMALL]),
        "large_only": (LevyMeasure(1.5, 3.0, 2.0), [LARGE]),
    }

    def _model(self, scenario, name):
        measure = self.CASES[name][0]
        if measure is None:
            cfg, model = scenario(name)
            return model, cfg.initial_state
        model = build_custom(
            domain=OCTANT, drift=("-0.1*x", "0", "0"), diffusion=(("0.2*x", "0", "0"),),
            small_jump=("0.1*u*x", "u", "0"), large_jump=("0.05*u*x", "0", "u"), measure=measure,
        )
        return model, (1.0, 5.0, 5.0)

    def _assert_crowded(self, model, name, chunk):
        counts = _replayed_counts(model, self.CFG, self.KEYS, chunk)
        assert list(counts) == self.CASES[name][1]
        assert max((c > 0).sum(axis=0).max() for c in counts.values()) >= 2  # paths jumping in one step
        assert max(c.max() for c in counts.values()) >= 2  # marks of one path in one step

    def test_compensator_quadrature_built_with_the_model(self, scenario, monkeypatch):
        # the compensator's nodes and weights are fixed per model, so no step rebuilds them
        model, s0 = self._model(scenario, "marked")
        assert model.mark_rules[SMALL][0].size == QUAD_NODES
        calls = []
        quadrature = LevyMeasure.quadrature
        monkeypatch.setattr(LevyMeasure, "quadrature", lambda *args: calls.append(args) or quadrature(*args))
        run_paths(model, s0, self.CFG, self.KEYS[:3])
        assert calls == []

    @pytest.mark.parametrize("name", CASES)
    def test_batch_matches_one_key_runs(self, scenario, name):
        model, s0 = self._model(scenario, name)
        self._assert_crowded(model, name, CHUNK_STEPS)
        batch = run_paths(model, s0, self.CFG, self.KEYS)
        for p, key in enumerate(self.KEYS):
            solo = run_paths(model, s0, self.CFG, [key])
            assert np.array_equal(batch.states[p], solo.states[0])
            assert batch.floor_hits[p] == solo.floor_hits[0]

    @pytest.mark.parametrize("name", CASES)
    def test_chunk_of_one_matches_reference_loops(self, scenario, monkeypatch, name):
        model, s0 = self._model(scenario, name)
        self._assert_crowded(model, name, 1)
        monkeypatch.setattr(integrator, "CHUNK_STEPS", 1)
        batch = run_paths(model, s0, self.CFG, self.KEYS)
        for p, key in enumerate(self.KEYS):
            gen = np.random.Generator(np.random.Philox(key=key))
            s = np.array(s0, dtype=float)
            manual = [s]
            for k in range(self.CFG.n_steps):
                s = _reference_step(model, k * self.CFG.dt, s, self.CFG.dt, gen)
                manual.append(s)
            assert np.array_equal(batch.states[p], manual)


def test_block_draws_each_row_in_its_streams_order():
    # rows with every group, without diffusion and without jumps: a hand draw on fresh generators in the
    # documented order (normals, small counts, large counts, one run of uniforms) gives the block's normals
    # and mark table, its cells grouped by (step, region), each group's paths in order
    model = build_custom(
        domain=OCTANT, drift=ZEROS, diffusion=(("0.1*x", "0", "0"), ("0", "0.1*y", "0")),
        small_jump=("0.1*u*x", "u", "0"), large_jump=("0.01*u*x", "0", "u"), measure=LevyMeasure(-2.0, 2.0, 100.0),
    )
    regions, dt, block = list(model.mark_rules), 0.01, 7  # 2 marks per cell on average
    assert regions == [SMALL, LARGE]
    on = np.array([(1, 1, 1), (1, 0, 1), (1, 1, 0)], dtype=bool)
    rates = [model.measure.mass(region) * dt for region in regions]
    normals = np.zeros((3, block, 2))
    table = integrator._draw_block(model, integrator._generators([_path_key(5, p) for p in range(3)]), on, rates, normals)
    expected_normals, cells = np.zeros((3, block, 2)), []  # cells: (step * regions + region, path, marks)
    for p, (_, noise, jumps) in enumerate(on):
        g = path_generator(5, p)
        if noise:
            expected_normals[p] = g.standard_normal((block, 2))
        if jumps:
            counts = [g.poisson(rate, block) for rate in rates]
            uniforms = iter(g.random(sum(int(c.sum()) for c in counts)))
            for j in range(block):
                for r, region in enumerate(regions):
                    marks = [next(uniforms) for _ in range(counts[r][j])]
                    if marks:
                        cells.append((j * len(regions) + r, p, model.measure.inverse_cdf(region, np.array(marks))))
    cells.sort(key=lambda cell: cell[:2])
    assert sum(len(marks) > 1 for _, _, marks in cells) >= 5  # cells with several marks
    assert any(a[0] == b[0] for a, b in zip(cells, cells[1:]))  # groups with both jumping rows
    bounds, paths, offsets, owners, values = table
    assert np.array_equal(normals, expected_normals)
    assert bounds == [sum(cell < group for cell, _, _ in cells) for group in range(block * len(regions) + 1)]
    assert paths.tolist() == [p for _, p, _ in cells]
    assert offsets.tolist() == np.cumsum([0] + [len(marks) for _, _, marks in cells]).tolist()
    assert owners.tolist() == [p for _, p, marks in cells for _ in marks]
    assert values.tobytes() == np.concatenate([marks for _, _, marks in cells]).tobytes()


# the rows of one noise-panel run: (which of drift, diffusion, jumps act; the reduced copy it equals)
PANEL_ROWS = {
    "stochastic": ((True, True, True), {"diffusion": False, "jumps": False}),
    "deterministic": ((True, False, False), {}),
    "diffusion_only": ((False, True, False), {"drift": True, "diffusion": False}),
    "jumps_only": ((False, False, True), {"drift": True, "jumps": False}),
}


class TestGroupRows:
    """Rows of one run, each with its own coefficient groups, against
    copies rebuilt from a reduced table and run alone on the same key.
    Every row shares one key, so each must take exactly the draws of its
    copy's stream."""

    CFG = SimConfig(horizon=1.0, dt=0.02, seed=6, record_stride=1)
    MEASURES = {
        "default": LevyMeasure(),
        "lopsided": LevyMeasure(-2.0, 4.0, 0.75),
        "small_only": LevyMeasure(-0.5, 0.5),
        "large_only": LevyMeasure(1.5, 3.0, 2.0),
    }

    def _check_rows(self, model, s0, reduced):
        labels = [label for label in PANEL_ROWS if label != "jumps_only" or model.mark_rules]
        if not model.has_diffusion:
            labels.remove("diffusion_only")
        key = _path_key(self.CFG.seed, 0)
        groups = [PANEL_ROWS[label][0] for label in labels]
        rows = run_paths(model, s0, self.CFG, [key] * len(labels), groups=groups)
        for i, label in enumerate(labels):
            alone = run_paths(reduced(model, **PANEL_ROWS[label][1]), s0, self.CFG, [key])
            assert np.array_equal(rows.states[i], alone.states[0]), label
            assert rows.floor_hits[i] == alone.floor_hits[0], label
            if alone.simplex_drift is None:
                assert rows.simplex_drift is None
            else:
                assert rows.simplex_drift[i] == alone.simplex_drift[0], label
        return labels, rows

    @pytest.mark.parametrize("chunk", [CHUNK_STEPS, 7, 1])
    @pytest.mark.parametrize("name", [f"table{i}" for i in range(1, 8)])
    def test_bundled_rows_match_suppressed_copies(self, scenario, reduced, monkeypatch, name, chunk):
        cfg, model = scenario(name)
        monkeypatch.setattr(integrator, "CHUNK_STEPS", chunk)
        labels, rows = self._check_rows(model, cfg.initial_state, reduced)
        assert len(labels) == (3 if model.model_id == "xc" else 4)
        assert len({rows.states[i].tobytes() for i in range(len(labels))}) == len(labels)  # every row moved its own way

    @pytest.mark.parametrize("chunk", [CHUNK_STEPS, 7, 1])
    @pytest.mark.parametrize("measure", MEASURES)
    def test_marked_rows_match_suppressed_copies(self, reduced, monkeypatch, measure, chunk):
        # the small jumps read u, so a row without jumps also switches off the
        # 1001-node compensator; from y = z = 0.2 the measures with a negative
        # region clamp some rows at the floor
        model = build_custom(
            domain=OCTANT, drift=("-0.1*x", "0", "0"), diffusion=(("0.2*x", "0", "0"),),
            small_jump=("0.1*u*x", "u", "0"), large_jump=("0.05*u*x", "0", "u"), measure=self.MEASURES[measure],
        )
        monkeypatch.setattr(integrator, "CHUNK_STEPS", chunk)
        labels, rows = self._check_rows(model, (1.0, 0.2, 0.2), reduced)
        assert labels == list(PANEL_ROWS)
        assert rows.floor_hits.any() == (self.MEASURES[measure].lo < -1.0)

    def test_all_groups_on_is_the_run_without_groups(self, scenario):
        cfg, model = scenario("table6")
        keys = [_path_key(3, i) for i in range(5)]
        plain = run_paths(model, cfg.initial_state, self.CFG, keys)
        rows = run_paths(model, cfg.initial_state, self.CFG, keys, groups=np.ones((5, 3), dtype=bool))
        assert plain.states.tobytes() == rows.states.tobytes()
        assert np.array_equal(plain.floor_hits, rows.floor_hits)

    def test_simulate_rows_share_stream_zero(self, scenario):
        cfg, model = scenario("table1")
        groups = [PANEL_ROWS[label][0] for label in PANEL_ROWS]
        rows = simulate(model, cfg.initial_state, self.CFG, groups=groups)
        assert np.array_equal(rows.states[0], simulate(model, cfg.initial_state, self.CFG).states[0])
        assert rows.states.shape[0] == len(groups)

    @pytest.mark.parametrize(
        "groups, shape",
        [([(True, True, True)] * 3, (3, 3)), ([(True, False)] * 2, (2, 2)), ([True, True, True], (3,))],
        ids=["three_rows", "two_columns", "one_dimensional"],
    )
    def test_malformed_groups_refused_before_any_draw(self, zero_model, monkeypatch, groups, shape):
        monkeypatch.setattr(np.random, "Philox", lambda *_, **__: pytest.fail("a generator was built"))
        keys = [_path_key(0, i) for i in range(2)]
        with pytest.raises(ValueError, match=rf"groups must have shape \(2, 3\), got {re.escape(str(shape))}"):
            run_paths(zero_model, (1.0, 0.5, 0.25), self.CFG, keys, groups=groups)



class TestSplitRows:
    """A run split across forked workers, each stepping a contiguous slice
    of rows, against the same run in one process: the same bytes, clamps
    and simplex drift.  Three workers take 3, 3 and 4 of ten rows.  A
    fault in any worker's rows discards the attempt, and the serial rerun
    raises or warns as the serial run does."""

    CFG = SimConfig(horizon=1.0, dt=0.02, seed=8, record_stride=1)
    KEYS = [_path_key(8, i) for i in range(10)]
    # the first slice (rows 0-2) draws no marks, so it steps in blocks of at most MARK_FREE_STEPS
    ROWS = [PANEL_ROWS[label][0] for label in (
        "deterministic", "diffusion_only", "deterministic", "stochastic", "jumps_only",
        "diffusion_only", "stochastic", "jumps_only", "deterministic", "stochastic")]

    @pytest.fixture(scope="class")
    def models(self, scenario, tmp_path_factory):
        cfg, _ = scenario("table2")
        path = tmp_path_factory.mktemp("split") / "table2_custom.scn"
        path.write_text(custom_text(cfg))
        custom = load_scenario(path)
        built = {"custom_table2": (build_model(custom), custom.initial_state)}
        built["marked"] = (build_custom(
            domain=OCTANT, drift=("-0.1*x", "0", "0"), diffusion=(("0.2*x", "0", "0"),),
            small_jump=("0.1*u*x", "u", "0"), large_jump=("0.05*u*x", "0", "u"), measure=LevyMeasure(),
        ), (1.0, 0.2, 0.2))
        for name in (f"table{i}" for i in range(1, 8)):
            cfg, model = scenario(name)
            built[name] = (model, cfg.initial_state)
        return built

    @pytest.mark.parametrize("grouped", [False, True], ids=["all_groups", "panel_rows"])
    @pytest.mark.parametrize("chunk", [CHUNK_STEPS, 7, 1])
    @pytest.mark.parametrize("name", [*(f"table{i}" for i in range(1, 8)), "custom_table2", "marked"])
    def test_split_matches_serial(self, models, split_runs, monkeypatch, name, chunk, grouped):
        # forked workers inherit the block length
        model, s0 = models[name]
        groups = self.ROWS if grouped else None
        monkeypatch.setattr(integrator, "CHUNK_STEPS", chunk)
        keep = ("states", *integrator._REDUCER)  # every output of _OUTPUTS
        serial = run_paths(model, s0, self.CFG, self.KEYS, groups, keep=keep)
        calls = split_runs(3)
        split = run_paths(model, s0, self.CFG, self.KEYS, groups, keep=keep)
        assert calls == [3]  # slice 0 here, the others in children, and no checked rerun
        assert split.states.tobytes() == serial.states.tobytes()
        assert np.array_equal(split.floor_hits, serial.floor_hits)
        if serial.simplex_drift is None:
            assert split.simplex_drift is None
        else:
            assert split.simplex_drift.tobytes() == serial.simplex_drift.tobytes()
        for name in integrator._REDUCER:
            assert getattr(split, name).tobytes() == getattr(serial, name).tobytes(), name

    def test_fault_in_a_child_slice_raises_the_serial_error(self, split_runs):
        # the first five rows have no diffusion and keep x above 0.5; the noisy last five,
        # a child's slice, cross it, where (x-0.5)^0.5 leaves the reals
        model = build_custom(domain=OCTANT, drift=("(x-0.5)^0.5", "0", "0"), diffusion=(("2*x", "0", "0"),))
        cfg = SimConfig(horizon=0.05, dt=0.001, seed=2)
        groups = [(True, False, True)] * 5 + [(True, True, True)] * 5
        with pytest.raises(EvalDomainError) as serial:
            run_paths(model, (0.6, 0.5, 0.25), cfg, self.KEYS, groups=groups)
        calls = split_runs(2)
        with pytest.raises(EvalDomainError) as split:
            run_paths(model, (0.6, 0.5, 0.25), cfg, self.KEYS, groups=groups)
        assert str(split.value) == str(serial.value) == "power outside the reals in '(x-0.5)^0.5'"
        assert calls == [5, 10]

    @pytest.mark.parametrize(
        "drift, s0, settings, flags",
        [(("1e3*x*x", "x-x*y", "-2e3*z"), (1.0, 0.5, 1.0), {}, {"overflow", "invalid"}),
         (("x*x", "0", "0"), (1e-200, 0.5, 0.5), {"under": "warn"}, {"underflow"}),
         (("x*x", "0", "0"), (1e-200, 0.5, 0.5), {}, set())],
        ids=["overflow_to_nan", "underflow_warned", "underflow_ignored"],
    )
    def test_warnings_are_the_serial_runs(self, split_runs, drift, s0, settings, flags):
        # the first: test_overflow_to_nan_keeps_the_checked_values' model; the others underflow
        # at every step, which only a caller that asks for it hears of, and which otherwise
        # keeps the split
        model = build_custom(domain=OCTANT, drift=drift, diffusion=(("0.5*x", "0", "0"),))
        cfg = SimConfig(horizon=0.03, dt=0.001, seed=4)
        keys = [_path_key(4, i) for i in range(3)]
        runs = []
        for workers in (None, 3):
            calls = split_runs(workers) if workers else []
            with warnings.catch_warnings(record=True) as warned, np.errstate(**settings):
                warnings.simplefilter("always")
                traj = run_paths(model, s0, cfg, keys)
            runs.append((traj, [(w.category, str(w.message)) for w in warned]))
        (serial, serial_warned), (split, split_warned) = runs
        assert calls == ([1, 3] if flags else [1])
        assert split_warned == serial_warned and {m.split()[0] for _, m in serial_warned} == flags
        assert np.array_equal(split.states, serial.states, equal_nan=True)
        assert np.array_equal(split.floor_hits, serial.floor_hits)

    def test_flag_of_a_time_only_value_warns_of_nothing(self, split_runs):
        # 10^(1e6 t) overflows on the second step, where y reaches 0.5: the caller ignores the
        # overflow, and the serial run raises the checked program's division by zero
        model = build_custom(domain=OCTANT, drift=("10^(1000000*t)*x/(y-0.5)", "-500", "0"), diffusion=(ZEROS,))
        cfg = SimConfig(horizon=0.01, dt=0.001, seed=1)
        errors = []
        for workers in (None, 2):
            calls = split_runs(workers) if workers else []
            with warnings.catch_warnings(record=True) as warned, np.errstate(over="ignore"):
                warnings.simplefilter("always")
                with pytest.raises(EvalDomainError) as error:
                    run_paths(model, (1.0, 1.0, 1.0), cfg, self.KEYS[:4])
            assert warned == []
            errors.append(str(error.value))
        assert errors == ["division by zero in '10.0^(1000000.0*t)*x/(y-0.5)'"] * 2
        assert calls == [2, 4]

    def test_a_child_that_dies_reruns_serially(self, scenario, split_runs, monkeypatch):
        cfg, model = scenario("table6")
        serial = run_paths(model, cfg.initial_state, self.CFG, self.KEYS)
        calls, parent = split_runs(3), os.getpid()
        step_rows = integrator._step_rows

        def die_in_child(*args, **kwargs):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return step_rows(*args, **kwargs)

        monkeypatch.setattr(integrator, "_step_rows", die_in_child)
        split = run_paths(model, cfg.initial_state, self.CFG, self.KEYS)
        assert calls == [3, 10]
        assert split.states.tobytes() == serial.states.tobytes()

    def test_ignored_sigchld_runs_serially(self, scenario, split_runs):
        # the kernel reaps the children of a process that ignores SIGCHLD, exit status and all
        cfg, model = scenario("table6")
        serial = run_paths(model, cfg.initial_state, self.CFG, self.KEYS)
        calls = split_runs(3)
        previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            split = run_paths(model, cfg.initial_state, self.CFG, self.KEYS)
        finally:
            signal.signal(signal.SIGCHLD, previous)
        assert calls == [10]
        assert split.states.tobytes() == serial.states.tobytes()

    def test_an_interrupt_reaps_every_child(self, scenario, split_runs, monkeypatch):
        cfg, model = scenario("table6")
        split_runs(3)
        parent, step_rows, here = os.getpid(), integrator._step_rows, []

        def interrupt_here(*args):
            if os.getpid() == parent:
                here.append(len(args[3]))
                raise KeyboardInterrupt
            return step_rows(*args)

        monkeypatch.setattr(integrator, "_step_rows", interrupt_here)
        with pytest.raises(KeyboardInterrupt):
            run_paths(model, cfg.initial_state, self.CFG, self.KEYS)
        assert here == [3]  # raised in slice 0, while the children stepped theirs

def _step_block(model, pv, S, dW, drift_dt, comp_dt):
    """One step of the model's block program from the (paths, 3) states ``S``
    with the (paths, drivers) Brownian increments ``dW`` and the one-step
    time values ``pv``, the step marked: the increment before jumps and the
    compensator (None without a small-region rule) that it hands to the
    step's jumps, each laid out as ``S``.  The one-step multiplier tile
    holds ``drift_dt``, the drivers' rows and ``comp_dt`` (with a small
    rule), each over the three components."""
    S3, seen, n = np.array(S, dtype=float).T.copy(), [], model.brownian_dim
    tile = np.empty((1, 1 + n + (SMALL in model.mark_rules), 3, len(S)))
    tile[:, 0], tile[:, 1 + n:] = drift_dt, comp_dt
    out = {"floor_hits": np.zeros(len(S), dtype=np.int64)}
    run = (S3, tile, 1.0, POSITIVITY_FLOOR, RENORM_TOL, 1, 1, out, lambda r: None)  # nothing recorded

    def jumps(j, incr, comp, H):
        seen.append((incr.T.copy(), None if comp is None else comp.T.copy()))

    model.step_fn(pv, np.asarray(dW, dtype=float)[:, None], [True], jumps, 0, run)  # sqrt_dt 1 copies dW into the tile
    (step,) = seen
    return step


class TestStepProgram:
    """One step of the block program against the group programs, bit for
    bit: the increment before jumps against drift * dt plus each diffusion
    column times its Brownian increment, and the compensator against the
    small region's mark-rule integral of the small-jump program, at random
    admissible states, with the scalar dt and with per-row dt vectors."""

    DT = 0.001

    def _check(self, model, seed, paths=40):
        rng = np.random.default_rng(seed)
        if model.domain == SIMPLEX:
            S = rng.dirichlet((1.0, 1.0, 1.0), size=paths)
        else:  # around the cap, so that both sides of every truncation are reached
            S = rng.uniform(1e-3, 2.0 * model.constants.get("cap", 5.0), size=(paths, 3))
        block = model.param_values(rng.uniform(0.0, 50.0, 1))
        pv = {name: arr[0, ...] for name, arr in block.items()}
        dW = rng.standard_normal((paths, model.brownian_dim)) * math.sqrt(self.DT)
        rows = np.arange(paths) % 3 > 0
        for drift_dt, comp_dt in [(np.array(self.DT), np.array(self.DT)),
                                  (np.where(rows, self.DT, 0.0), np.where(~rows, self.DT, 0.0))]:
            incr, comp = _step_block(model, block, S, dW, drift_dt, comp_dt)
            sig = model.diffusion_fn(pv, S)
            noise = sum(sig[..., c] * dW[:, c, None] for c in range(model.brownian_dim))
            assert np.array_equal(incr, model.drift_fn(pv, S) * np.reshape(drift_dt, (-1, 1)) + noise)
            if SMALL not in model.mark_rules:
                assert comp is None
                continue
            nodes, weights = model.mark_rules[SMALL]
            integral = (model.small_jump_fn(pv, S, nodes[:, None]) * weights[:, None, None]).sum(axis=0)
            assert np.array_equal(comp, integral * np.reshape(comp_dt, (-1, 1)))

    @pytest.mark.parametrize("name", ["table1", "table2", "table3", "table6", "table7"])
    def test_families(self, scenario, name):
        _, model = scenario(name)
        for seed in range(5):
            self._check(model, seed)

    @pytest.mark.parametrize("measure", TestGroupRows.MEASURES)
    def test_marked_model(self, measure):
        model = build_custom(
            domain=OCTANT, drift=("-0.1*x", "0", "0"), diffusion=(("0.2*x", "0", "0"),),
            small_jump=("0.1*u*x", "u", "0"), large_jump=("0.05*u*x", "0", "u"),
            measure=TestGroupRows.MEASURES[measure],
        )
        assert all(nodes.size >= QUAD_NODES for nodes, _ in model.mark_rules.values())  # both regions read u
        for seed in range(5):
            self._check(model, seed)

    @pytest.mark.parametrize("name", ["table3", "table1_without_jumps"])
    def test_a_block_is_one_program_call(self, scenario, reduced, monkeypatch, name):
        # 50 steps in blocks of 7 are 8 calls of the block program; a run without marks draws normals
        # alone, in sequence, so it matches the reference step loop bit for bit, on the octant and the simplex
        cfg, model = scenario(name.split("_")[0])
        model = dataclasses.replace(model) if name == "table3" else reduced(model, diffusion=False)
        step, calls = model.step_fn, []

        def spy(env, normals, marked, *args):
            calls.append(len(marked))
            return step(env, normals, marked, *args)

        spy.reads = step.reads
        object.__setattr__(model, "step_fn", spy)  # a cached property: the instance's own entry
        monkeypatch.setattr(integrator, "CHUNK_STEPS", 7)
        sim = SimConfig(horizon=0.05, dt=0.001, seed=6)
        traj = run_paths(model, cfg.initial_state, sim, [_path_key(6, 0)])
        assert calls == [7] * 7 + [1]
        gen, s = path_generator(6, 0), np.array(cfg.initial_state, dtype=float)
        manual = [s]
        for k in range(sim.n_steps):
            s = _reference_step(model, k * sim.dt, s, sim.dt, gen)
            manual.append(s)
        assert np.array_equal(traj.states[0], manual)


def test_time_coefficients_evaluated_per_chunk(scenario, monkeypatch):
    # memory for the time coefficients is bounded by the chunk, not the horizon
    cfg, model = scenario("table1")
    seen = []
    evaluate = ModelSpec.param_values

    def spy(self, t):
        seen.append(np.array(t))
        return evaluate(self, t)

    monkeypatch.setattr(ModelSpec, "param_values", spy)
    sim = SimConfig(horizon=0.05, dt=0.001, seed=1)
    monkeypatch.setattr(integrator, "CHUNK_STEPS", 7)
    run_paths(model, cfg.initial_state, sim, [_path_key(1, 0)])
    assert max(t.size for t in seen) == 7
    assert np.array_equal(np.concatenate(seen), np.arange(sim.n_steps) * sim.dt)  # the grid's own floats


def test_time_only_subtrees_evaluated_per_block(scenario, monkeypatch):
    # the step program evaluates mu+gamma+epsilon at its head, once for each block's times
    cfg, model = scenario("table3")
    (tree,) = [tree for tree in model.step_fn.reads.values() if not isinstance(tree, Var)]
    hoisted, seen = compile_program([tree], constants=model.constants), []
    (name,) = [name for name, value in model.step_fn.__globals__.items() if value is hoisted]
    monkeypatch.setitem(model.step_fn.__globals__, name, lambda env: seen.append(env["t"]) or hoisted(env))
    monkeypatch.setattr(integrator, "CHUNK_STEPS", 7)
    sim = SimConfig(horizon=0.05, dt=0.001, seed=1)
    run_paths(model, cfg.initial_state, sim, [_path_key(1, 0)])
    assert [t.size for t in seen] == [7] * 7 + [1]
    assert np.array_equal(np.concatenate(seen), np.arange(sim.n_steps) * sim.dt)


class TestBlockMemory:
    """What one block of a run holds: a run that draws no marks steps in
    short blocks on the same stream, and a run that does keeps only the
    marked cells of its counts."""

    @pytest.mark.parametrize(
        "name, groups",
        [("table3", None), ("table6", [(True, True, False), (False, True, False), (True, False, False)])],
        ids=["xc", "jumps_off_in_every_row"],
    )
    def test_mark_free_runs_do_not_depend_on_block_length(self, scenario, monkeypatch, name, groups):
        # 2500 steps are several short blocks; a mark-free stream is normals alone,
        # and blocks of a tile's steps +-1 end in partial tiles
        cfg, model = scenario(name)
        assert bool(model.mark_rules) == (groups is not None)
        sim = SimConfig(horizon=2.5, dt=0.001, seed=8)
        keys = [_path_key(8, i) for i in range(3)]
        blocks = []
        evaluate = ModelSpec.param_values
        monkeypatch.setattr(ModelSpec, "param_values", lambda self, t: blocks.append(t.size) or evaluate(self, t))
        runs = []
        for chunk in (CHUNK_STEPS, MARK_FREE_STEPS, 7, 1, TILE_STEPS - 1, TILE_STEPS, TILE_STEPS + 1):
            monkeypatch.setattr(integrator, "CHUNK_STEPS", chunk)
            runs.append(run_paths(model, cfg.initial_state, sim, keys, groups=groups))
        assert blocks[:3] == [MARK_FREE_STEPS, MARK_FREE_STEPS, sim.n_steps - 2 * MARK_FREE_STEPS]
        for run in runs[1:]:
            assert run.states.tobytes() == runs[0].states.tobytes()
            assert run.floor_hits.tobytes() == runs[0].floor_hits.tobytes()
            assert (run.simplex_drift is None) == (runs[0].simplex_drift is None)
            if run.simplex_drift is not None:
                assert run.simplex_drift.tobytes() == runs[0].simplex_drift.tobytes()

    @pytest.mark.parametrize("name", ["table6", "renormalised"])
    def test_steps_read_path_contiguous_columns(self, scenario, name):
        # the state is a (paths, 3) view of a (3, paths) array and a step's
        # multipliers a (rows, 3, paths) slice of the tile, through clamps,
        # renormalisation, jumps and a partial last tile
        if name == "renormalised":  # a non-conserving drift on the simplex, clamped within two tiles
            grow = build_custom(domain=OCTANT, drift=("0", "-2", "1"), diffusion=(ZEROS,))
            model, s0 = dataclasses.replace(grow, domain=SIMPLEX), (0.5, 0.05, 0.45)
        else:
            cfg, model = scenario(name)
            model, s0 = dataclasses.replace(model), cfg.initial_state
        step, seen = model.step_fn, []

        def spy(env, normals, marked, jumps, k0, run):
            S3, tile = run[:2]
            seen.append((S3.shape, S3.flags.c_contiguous, tile.shape, tile.flags.c_contiguous))
            return step(env, normals, marked, jumps, k0, run)

        spy.reads = step.reads
        object.__setattr__(model, "step_fn", spy)  # a cached property: the instance's own entry
        sim = SimConfig(horizon=(2 * TILE_STEPS + 3) * 0.001, dt=0.001, seed=1)
        traj = run_paths(model, s0, sim, [_path_key(1, i) for i in range(4)])
        # one block: every step reads a row of the state and a slice of the tile, each contiguous: drift_dt, each
        # driver's increments and comp_dt (with a small rule), each over the three components
        rows = 1 + model.brownian_dim + (SMALL in model.mark_rules)
        assert rows == (4 if name == "table6" else 2)
        assert seen == [((3, 4), True, (TILE_STEPS, rows, 3, 4), True)]
        if name == "renormalised":
            assert traj.floor_hits.all() and (traj.simplex_drift > 1e-9).all()

    def test_jump_programs_get_what_they_read(self, scenario):
        # the small jumps read a coefficient and u (u-free ones are the step
        # program's rows), the large ones t: each program's dict holds exactly
        # its reads, on every step with marks
        _, model = scenario("table1")
        beta_u = BinOp("*", Var("beta"), Var("u"))
        model = dataclasses.replace(model, small_jump=[BinOp("*", tree, beta_u) for tree in model.small_jump],
                                    large_jump=[BinOp("*", tree, Var("t")) for tree in model.large_jump])
        keys = {}
        for group in ("small_jump_fn", "large_jump_fn"):
            program = getattr(model, group)

            def spy(pv, states, marks, program=program, seen=keys.setdefault(group, [])):
                seen.append(set(pv))
                return program(pv, states, marks)

            spy.reads = program.reads
            object.__setattr__(model, group, spy)
        run_paths(model, (0.5, 0.3, 0.2), SimConfig(horizon=0.05, dt=0.001, seed=3), [_path_key(3, i) for i in range(50)])
        assert keys["small_jump_fn"] and all(seen == {"beta"} for seen in keys["small_jump_fn"])
        assert keys["large_jump_fn"] and all(seen == {"t"} for seen in keys["large_jump_fn"])

    def test_block_holds_no_dense_counts(self, scenario):
        # numpy reports its buffers to tracemalloc; dense counts would add
        # an int64 per path, step and region to the block's normals
        cfg, model = scenario("table6")
        steps, paths = CHUNK_STEPS + 100, 50
        sim = SimConfig(horizon=steps * cfg.dt, dt=cfg.dt, seed=2, record_stride=steps)
        assert sim.n_steps == steps
        keys = [_path_key(2, i) for i in range(paths)]
        normals = paths * CHUNK_STEPS * model.brownian_dim * 8
        tracemalloc.start()
        try:
            run_paths(model, cfg.initial_state, sim, keys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < normals + paths * CHUNK_STEPS * 8


class TestFloorSemantics:
    def test_decay_below_floor_is_not_clamped(self):
        model = build_custom(domain=OCTANT, drift=("0", "-5*y", "0"), diffusion=(("0", "0", "0"),))
        cfg = SimConfig(horizon=10.0, dt=0.001, seed=0, record_stride=1000)
        traj = simulate(model, (1.0, 1.0, 1.0), cfg)
        assert traj.floor_hits == 0
        assert 0.0 < traj.states[0, -1, 1] < 1e-12  # legitimate tiny value, untouched

    def test_zero_crossing_is_clamped_and_counted(self):
        model = build_custom(domain=OCTANT, drift=("0", "-2", "0"), diffusion=(("0", "0", "0"),))
        cfg = SimConfig(horizon=1.0, dt=0.01, seed=0)
        traj = simulate(model, (1.0, 0.5, 1.0), cfg)
        assert traj.floor_hits > 0
        assert traj.states[0, -1, 1] >= 1e-12


class TestFloatingPointFaults:
    """The engine steps with plain numpy operations while every flag the
    caller does not ignore raises; a run that flags steps again, whole, with
    the checked step program at the caller's error settings: it raises the
    checked program's error or gives its values, and the caller's settings
    come back unchanged."""

    @pytest.mark.parametrize(
        "expr, s0, message",
        [("1/(y-0.5)", (1.0, 0.5, 0.25), "division by zero in '1.0/(y-0.5)'"),
         ("(x-3)^0.5", (2.0, 0.5, 0.25), "power outside the reals in '(x-3.0)^0.5'"),
         ("ln(x-3)", (2.0, 0.5, 0.25), "ln of non-positive argument in 'ln(x-3.0)'"),
         # a subtree of time alone, evaluated once per block: ln(0) at t = 0.005
         ("ln(0.005-t)*x", (2.0, 0.5, 0.25), "ln of non-positive argument in 'ln(0.005-t)'")],
        ids=["divide", "power", "ln", "ln-of-time"],
    )
    @pytest.mark.parametrize("group", ["drift", "small_jump"])
    @pytest.mark.parametrize("settings", [{}, {"all": "ignore"}, {"all": "raise"}], ids=["default", "ignore", "raise"])
    def test_leaving_the_reals_at_the_start_names_the_subtree(self, expr, s0, message, group, settings):
        rows = {"drift": (expr, "0", "0"), "diffusion": (("0", "0.05*y", "0"),)}
        if group == "small_jump":
            rows = {**rows, "drift": ZEROS, "small_jump": (f"0.01*({expr})", "0", "0")}
        model = build_custom(domain=OCTANT, **rows)
        cfg = SimConfig(horizon=0.01, dt=0.001, seed=3)
        before = np.geterr()
        with np.errstate(**settings):
            inside = np.geterr()
            with pytest.raises(EvalDomainError, match=f"^{re.escape(message)}$"):
                run_paths(model, s0, cfg, [_path_key(3, i) for i in range(4)])
            assert np.geterr() == inside
        assert np.geterr() == before

    def test_non_finite_time_only_value_runs_the_checked_program(self):
        # 10^(1e6 t) overflows to inf on the second step, where y reaches 0.5: inf/0 sets no flag
        model = build_custom(domain=OCTANT, drift=("10^(1000000*t)*x/(y-0.5)", "-500", "0"), diffusion=(ZEROS,))
        message = re.escape("division by zero in '10.0^(1000000.0*t)*x/(y-0.5)'")
        with np.errstate(over="ignore"), pytest.raises(EvalDomainError, match=f"^{message}$"):
            run_paths(model, (1.0, 1.0, 1.0), SimConfig(horizon=0.01, dt=0.001, seed=1), [_path_key(1, 0)])

    def test_shared_row_operations_leave_unused_rows_alone(self, monkeypatch):
        # 1e200*x and 1e200*y but no 1e200*z: one call on the whole state would overflow at z = 1e200, and
        # the flag would step the run again with the checked program, which warns
        model = build_custom(domain=OCTANT, drift=("1e200*x-1e200*y", "1e200*y-1e200*x", "0"), diffusion=(ZEROS,))
        calls, step_rows = [], integrator._step_rows
        monkeypatch.setattr(integrator, "_step_rows", lambda *args: calls.append(args) or step_rows(*args))
        with warnings.catch_warnings(record=True) as warned:
            warnings.simplefilter("always")
            traj = run_paths(model, (1.0, 1.0, 1e200), SimConfig(horizon=0.01, dt=0.001, seed=4), [_path_key(4, 0)])
        assert not [w for w in warned if issubclass(w.category, RuntimeWarning)]
        assert len(calls) == 1
        assert (traj.states == [1.0, 1.0, 1e200]).all()

    @pytest.mark.parametrize("chunk", [CHUNK_STEPS, 7, 1])
    def test_overflow_to_nan_keeps_the_checked_values(self, monkeypatch, chunk):
        # x overflows to inf, then x - x*y is NaN while z is clamped at every
        # step: the reference loop, at the floor -1 to count the clamps
        model = build_custom(domain=OCTANT, drift=("1e3*x*x", "x-x*y", "-2e3*z"), diffusion=(("0.5*x", "0", "0"),))
        cfg = SimConfig(horizon=0.03, dt=0.001, seed=4)
        keys = [_path_key(4, i) for i in range(3)]
        before = np.geterr()
        monkeypatch.setattr(integrator, "CHUNK_STEPS", chunk)
        with pytest.warns(RuntimeWarning) as warned:  # the checked program warns at the caller's settings
            traj = run_paths(model, (1.0, 0.5, 1.0), cfg, keys)
        assert np.geterr() == before
        assert {"overflow", "invalid"} <= {str(w.message).split()[0] for w in warned}
        for p, key in enumerate(keys):
            gen = np.random.Generator(np.random.Philox(key=key))
            s, manual, hits = np.array([1.0, 0.5, 1.0]), [np.array([1.0, 0.5, 1.0])], 0
            with np.errstate(all="ignore"):
                for k in range(cfg.n_steps):
                    s = _reference_step(model, k * cfg.dt, s, cfg.dt, gen, floor=-1.0)
                    hits += np.count_nonzero(s == -1.0)
                    s = np.where(s == -1.0, POSITIVITY_FLOOR, s)
                    manual.append(s)
            assert np.array_equal(traj.states[p], manual, equal_nan=True)
            assert traj.floor_hits[p] == hits
        assert np.isnan(traj.states[:, -1, :2]).all() and (traj.states[:, -1, 2] == POSITIVITY_FLOOR).all()

    def test_a_flagged_run_steps_again_whole_with_the_checked_program(self, monkeypatch):
        # test_overflow_to_nan_keeps_the_checked_values' model overflows on the 11th of 30 steps:
        # the plain program steps up to it, then a second call of the step loop steps all 30 checked
        model = build_custom(domain=OCTANT, drift=("1e3*x*x", "x-x*y", "-2e3*z"), diffusion=(("0.5*x", "0", "0"),))
        steps = {}
        for name in ("step_fn", "checked_step_fn"):
            program = getattr(model, name)

            def spy(env, normals, marked, jumps, k0, run, program=program, seen=steps.setdefault(name, [])):
                # at record stride 1 each step writes its row; no state is -1
                recorded, flagged = run[7]["states"], False
                recorded[:, k0 + 1:] = -1.0
                try:
                    program(env, normals, marked, jumps, k0, run)
                except FloatingPointError:
                    flagged = True
                    raise
                finally:  # the steps: the rows written, and the one that flagged
                    seen.append(np.count_nonzero((recorded[0, k0 + 1:] != -1.0).any(axis=1)) + flagged)

            spy.reads = program.reads
            object.__setattr__(model, name, spy)  # a cached property: the instance's own entry
        calls, step_rows = [], integrator._step_rows
        monkeypatch.setattr(integrator, "_step_rows", lambda *args: calls.append(args) or step_rows(*args))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            run_paths(model, (1.0, 0.5, 1.0), SimConfig(horizon=0.03, dt=0.001, seed=4), [_path_key(4, i) for i in range(3)])
        assert steps["step_fn"] == [11]
        assert steps["checked_step_fn"] == [30]
        assert len(calls) == 2

    def test_any_fault_of_a_serial_attempt_steps_again_with_the_checked_program(self, scenario):
        # an error that is no floating-point flag, raised by the unchecked program of a run in one process,
        # discards that attempt as a split run's would: the checked program steps the whole run again
        cfg, model = scenario("table1")
        sim, keys = SimConfig(horizon=0.05, dt=0.001, seed=2), [_path_key(2, i) for i in range(3)]
        clean = run_paths(model, cfg.initial_state, sim, keys)
        model, calls = dataclasses.replace(model), []
        for name in ("step_fn", "checked_step_fn"):
            program = getattr(model, name)

            def spy(*args, program=program, name=name):
                calls.append(name)
                if name == "step_fn":
                    raise KeyError("not a flag")
                return program(*args)

            spy.reads = program.reads
            object.__setattr__(model, name, spy)  # a cached property: the instance's own entry
        again = run_paths(model, cfg.initial_state, sim, keys)
        assert calls == ["step_fn", "checked_step_fn"]
        for field in ("states", "floor_hits", "simplex_drift"):
            assert getattr(again, field).tobytes() == getattr(clean, field).tobytes()


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

    def test_one_result_type(self, zero_model, tmp_path):
        # simulate is the one-path run: a leading path axis, and write_csv
        # refuses a result holding more than one path
        cfg = SimConfig(horizon=0.05, dt=0.01, seed=0)
        traj = simulate(zero_model, (1.0, 0.5, 0.25), cfg)
        assert traj.states.shape == (1, len(traj.times), 3)
        assert traj.floor_hits.shape == (1,)
        pair = run_paths(zero_model, (1.0, 0.5, 0.25), cfg, [_path_key(0, i) for i in range(2)])
        assert type(traj) is type(pair) is Trajectory
        with pytest.raises(ValueError, match="one path, this result has 2"):
            pair.write_csv(tmp_path / "pair.csv")
        assert not (tmp_path / "pair.csv").exists()

    def test_a_result_without_states_is_refused(self, zero_model, tmp_path):
        # an ensemble keeps its reducer alone: there are no rows to write
        cfg = SimConfig(horizon=0.05, dt=0.01, seed=0)
        reduced = run_paths(zero_model, (1.0, 0.5, 0.25), cfg, [_path_key(0, 0)], keep=integrator._REDUCER)
        assert reduced.states is None
        with pytest.raises(ValueError, match="kept none"):
            reduced.write_csv(tmp_path / "reduced.csv")
        assert not (tmp_path / "reduced.csv").exists()

    @pytest.mark.parametrize("keep", [("state",), "states", ("states", "floor_hits")])
    def test_keep_names_only_outputs_kept_on_request(self, zero_model, monkeypatch, keep):
        # a misspelt name would keep nothing, and a string would be read as its substrings
        monkeypatch.setattr(integrator, "_generators", lambda keys: pytest.fail("drew before refusing keep"))
        cfg = SimConfig(horizon=0.05, dt=0.01, seed=0)
        with pytest.raises(ValueError, match=re.escape(f"got {keep!r}")):
            run_paths(zero_model, (1.0, 0.5, 0.25), cfg, [_path_key(0, 0)], keep=keep)

    @pytest.mark.parametrize("name", ["table1", "table6"])
    def test_rows_of_a_result_are_a_result(self, scenario, tmp_path, name):
        # every per-path output is sliced by rows, the times are shared, and a one-path slice writes its CSV
        cfg, model = scenario(name)
        keys = [_path_key(3, i) for i in range(3)]
        traj = run_paths(model, cfg.initial_state, SimConfig(horizon=0.05, dt=0.01, seed=3), keys)
        row = traj[1:2]
        assert type(row) is Trajectory and row.times is traj.times
        assert row.states.tobytes() == traj.states[1:2].tobytes()
        assert row.floor_hits.tolist() == traj.floor_hits[1:2].tolist()
        assert (row.simplex_drift is None) == (model.domain == OCTANT) == (traj.simplex_drift is None)
        if traj.simplex_drift is not None:
            assert row.simplex_drift.tolist() == traj.simplex_drift[1:2].tolist()
        row.write_csv(tmp_path / "row.csv")
        assert len((tmp_path / "row.csv").read_text().splitlines()) == len(traj.times) + 1


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


class TestJumpOracle:
    """The engine against the stochastic exponential of a jump-diffusion.

    ``x`` has drift a x, diffusion b x and the jump (e^(c u) - 1) x in both
    regions; ``y`` records W (diffusion 1 on the same driver) and ``z``
    records the sum of the marks (jump u in both regions).  Marks in the
    small region depend on u, so its compensator runs the quadrature
    branch.  For the uniform density on [-2, 2] the exact solution is
    x_T = s0 exp((a - b^2/2 - (2 sinh(c)/c - 2)) T + b W_T + c sum(u)).
    """

    A, B, C, S0, R0 = 0.1, 0.2, 0.3, 1.0, 32.0

    def _strong_error(self, dt, level, paths=100, seed=3):
        jump = (f"({math.e!r}^({self.C!r}*u)-1)*x", "0", "u")
        model = build_custom(
            domain=OCTANT, drift=(f"{self.A!r}*x", "0", "0"), diffusion=((f"{self.B!r}*x", "1", "0"),),
            small_jump=jump, large_jump=jump,
        )
        assert model.mark_rules[SMALL][0].size == QUAD_NODES
        cfg = SimConfig(horizon=1.0, dt=dt, record_stride=math.ceil(1.0 / dt))
        keys = [_path_key(seed, level * paths + i) for i in range(paths)]
        bundle = run_paths(model, (self.S0, self.R0, self.R0), cfg, keys)
        assert not bundle.floor_hits.any()  # a clamped recorder would make the oracle wrong
        x_T, (w_T, marks) = bundle.states[:, -1, 0], (bundle.states[:, -1, 1:] - self.R0).T
        compensator = 2.0 * math.sinh(self.C) / self.C - 2.0
        drift = self.A - 0.5 * self.B**2 - compensator
        exact = self.S0 * np.exp(drift * bundle.times[-1] + self.B * w_T + self.C * marks)
        return float(np.mean(np.abs(x_T - exact)))

    def test_strong_error_shrinks_at_order_half(self):
        coarse, fine = self._strong_error(1e-2, level=0), self._strong_error(1.25e-3, level=1)
        assert fine / coarse <= 0.5  # 8^(-1/2) = 0.35 at order 1/2
