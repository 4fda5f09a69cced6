import numpy as np
import pytest

from test_integrator import _step_block
from ussir.expr import BinOp, Num, Var
from ussir.integrator import path_generator
from ussir.levy import LARGE, QUAD_NODES, SMALL, LevyMeasure
from ussir.models import OCTANT, build_custom


@pytest.fixture
def paper_measure():
    return LevyMeasure(-2.0, 2.0)


def _step_marks(measure, region, dt, rng):
    """One step's jumps as the integrator draws them: a Poisson(mass * dt)
    count, then that many uniforms mapped by inverse CDF."""
    count = int(rng.poisson(measure.mass(region) * dt))
    return measure.inverse_cdf(region, rng.random(count))


def _compensator(model, t, state):
    """The compensator of one step of the model's block program at one state
    with comp_dt 1 (None when a run draws no small region)."""
    S = np.asarray(state, dtype=float)[None]
    _, comp = _step_block(model, model.param_values(np.full(1, t)), S, np.zeros((1, model.brownian_dim)), 0.0, 1.0)
    return None if comp is None else comp[0]


class TestRegionMass:
    def test_small_region(self, paper_measure):
        assert paper_measure.mass(SMALL) == pytest.approx(2.0)

    def test_large_region(self, paper_measure):
        assert paper_measure.mass(LARGE) == pytest.approx(2.0)

    def test_narrow_support_has_empty_large_region(self):
        m = LevyMeasure(-0.5, 0.5)
        assert m.mass(LARGE) == 0.0
        assert m.mass(SMALL) == pytest.approx(1.0)

    def test_density_scales_mass(self):
        m = LevyMeasure(-2.0, 2.0, density=0.25)
        assert m.mass(SMALL) == pytest.approx(0.5)

    def test_piecewise(self):
        # an asymmetric support puts two pieces of different length in the large region
        m = LevyMeasure(-2.0, 4.0, density=0.5)
        assert m.region_pieces(LARGE) == ((-2.0, -1.0), (1.0, 4.0))
        assert m.mass(SMALL) == pytest.approx(1.0)
        assert m.mass(LARGE) == pytest.approx(2.0)

    def test_unknown_region(self, paper_measure):
        with pytest.raises(ValueError):
            paper_measure.mass("medium")

    def test_bad_pieces(self):
        with pytest.raises(ValueError, match=r"measure interval \(1\.0, 1\.0\) is empty"):
            LevyMeasure(1.0, 1.0)
        with pytest.raises(ValueError, match="measure density -1.0 is negative"):
            LevyMeasure(0.0, 1.0, -1.0)

    @pytest.mark.parametrize(
        "field,value", [("lo", -np.inf), ("lo", np.nan), ("hi", np.inf), ("density", np.nan), ("density", np.inf)]
    )
    def test_non_finite_refused(self, field, value):
        with pytest.raises(ValueError, match=f"measure {field} must be finite, got {value}"):
            LevyMeasure(**{field: value})


class TestQuadrature:
    def test_constant_exact(self, paper_measure):
        nodes, weights = paper_measure.quadrature(SMALL)
        assert weights.sum() == pytest.approx(2.0, abs=1e-14)

    def test_quadratic_integrand(self, paper_measure):
        nodes, weights = paper_measure.quadrature(LARGE)
        # integral of u^2 over [-2,-1] u [1,2] is 2 * 7/3
        assert (weights * nodes**2).sum() == pytest.approx(14.0 / 3.0, abs=1e-5)

    def test_region_without_support_refused(self):
        with pytest.raises(ValueError, match="the measure has no support in the large region"):
            LevyMeasure(-0.5, 0.5).quadrature(LARGE)


class TestSampling:
    def test_zero_mass_region_yields_empty_batch(self):
        m = LevyMeasure(-0.5, 0.5)
        assert m.mass(LARGE) == 0.0
        assert len(_step_marks(m, LARGE, 0.1, path_generator(0))) == 0

    def test_fixed_seed_reproducible(self, paper_measure):
        b1 = _step_marks(paper_measure, SMALL, 5.0, path_generator(3))
        b2 = _step_marks(paper_measure, SMALL, 5.0, path_generator(3))
        assert np.array_equal(b1, b2)

    def test_marks_live_in_their_region(self, paper_measure):
        rng = path_generator(11)
        small = _step_marks(paper_measure, SMALL, 50.0, rng)
        assert np.all(np.abs(small) < 1.0)
        large = _step_marks(paper_measure, LARGE, 50.0, rng)
        assert np.all(np.abs(large) >= 1.0)
        assert np.all(np.abs(large) <= 2.0)

    def test_count_mean_within_one_percent(self, paper_measure):
        # engine-style block draws; 5e7 steps puts the standard error at
        # 0.32%, so the 1% band is a three-sigma check
        rng = path_generator(12345)
        dt = 0.001
        total = sum(rng.poisson(paper_measure.mass(SMALL) * dt, 10_000_000).sum() for _ in range(5))
        assert total / 5e7 == pytest.approx(0.002, rel=0.01)

    def test_batch_api_mean_count(self, paper_measure):
        rng = path_generator(77)
        dt, calls = 0.05, 20_000
        total = sum(len(_step_marks(paper_measure, SMALL, dt, rng)) for _ in range(calls))
        expected = paper_measure.mass(SMALL) * dt * calls
        assert total == pytest.approx(expected, rel=3.0 / np.sqrt(expected))

    def test_asymmetric_pieces_weighting(self):
        m = LevyMeasure(-2.0, 4.0)
        marks = m.inverse_cdf(LARGE, path_generator(5).random(40_000))
        frac_positive = (marks > 0).mean()
        # pieces [-2, -1] and [1, 4] put 75% of the mass on the positive side
        assert frac_positive == pytest.approx(0.75, abs=0.01)

    @pytest.mark.parametrize("mass", [2.0, 4.0 / 3.0, 0.7])
    def test_scaled_uniform_run_matches_split_uniform_draws(self, mass):
        # the engine draws a path's marks of a block as one run of random()
        # scaled by the mass, where marks were once drawn event by event
        gen = path_generator(6)
        split = np.concatenate([gen.uniform(0.0, mass, n) for n in (3, 1, 5)])
        assert np.array_equal(split, mass * path_generator(6).random(9))

    def test_inverse_cdf_of_uniforms(self):
        m = LevyMeasure(-2.0, 4.0, density=0.5)
        for region in (SMALL, LARGE):
            marks = m.inverse_cdf(region, path_generator(9).random(500))
            assert np.all([any(lo <= u < hi for lo, hi in m.region_pieces(region)) for u in marks])
        # uniforms scale to levels of the large mass 2: [-2, -1] (mass 0.5) fills before [1, 4], at density 0.5
        assert np.array_equal(m.inverse_cdf(LARGE, np.array([0.0, 0.125, 0.25, 0.625])), [-2.0, -1.5, 1.0, 2.5])


class TestCompensator:
    def test_ex1_closed_form(self, scenario):
        _, model = scenario("table1")
        comp = _compensator(model, 0.0, (0.8, 0.19, 0.01))
        assert comp[0] == pytest.approx(-0.01 * 0.8 * 0.19 * 2.0, abs=1e-15)
        assert comp[1] == pytest.approx((0.01 * 0.8 * 0.19 - 0.025 * 0.19 * 0.01) * 2.0, abs=1e-15)
        assert comp[2] == pytest.approx(0.025 * 0.19 * 0.01 * 2.0, abs=1e-15)

    def test_zero_jumps(self, scenario):
        _, model = scenario("table3")
        assert _compensator(model, 1.0, (2.0, 0.8, 1.0)) is None  # no small region, no compensator

    def test_ex1b_components_sum_to_zero(self, scenario):
        _, model = scenario("table2")
        rng = np.random.default_rng(9)
        for _ in range(100):
            state = rng.dirichlet((1, 1, 1))
            comp = _compensator(model, rng.uniform(0, 50), state)
            assert abs(sum(comp)) <= 1e-15

    def test_quadrature_path_matches_closed_form(self, scenario):
        # add 0*u to every entry so the generic quadrature runs instead
        import dataclasses

        _, model = scenario("table1")
        zero_u = BinOp("*", Num(0.0), Var("u"))
        generic = dataclasses.replace(model, small_jump=[BinOp("+", tree, zero_u) for tree in model.small_jump])
        assert generic.mark_rules[SMALL][0].size == QUAD_NODES
        state = (0.7, 0.2, 0.1)
        assert np.allclose(
            _compensator(generic, 0.3, state),
            _compensator(model, 0.3, state),
            atol=1e-12,
        )

    def test_u_free_custom_model_uses_closed_form(self):
        model = build_custom(
            domain=OCTANT,
            drift=("0", "0", "0"),
            diffusion=(("0", "0", "0"),),
            small_jump=("0.01*x*y", "0-0.02*y", "0.003*z*sin(t)"),
            measure=LevyMeasure(-2.0, 2.0, density=0.75),
        )
        assert model.mark_rules[SMALL][0].size == 1
        pv, S = model.param_values(0.4), np.array([2.0, 0.5, 1.5])
        expected = model.measure.mass(SMALL) * model.small_jump_fn(pv, S, 0.0)
        assert np.array_equal(_compensator(model, 0.4, S), expected)

    def test_u_dependent_custom_model_uses_quadrature(self):
        model = build_custom(
            domain=OCTANT,
            drift=("0", "0", "0"),
            diffusion=(("0", "0", "0"),),
            small_jump=("0", "0.1*u*u*y", "0"),
        )
        assert model.mark_rules[SMALL][0].size == QUAD_NODES
        comp = _compensator(model, 0.0, (1.0, 0.6, 1.0))
        # integral of u^2 over (-1, 1) is 2/3
        assert comp[1] == pytest.approx(0.1 * 0.6 * 2.0 / 3.0, rel=1e-5)
        assert comp[0] == comp[2] == 0.0


class TestCompensationProperty:
    def test_compensated_increments_mean_zero(self, scenario):
        # small-jump sums minus compensator*dt average to zero (3 standard errors)
        _, model = scenario("table1")
        state = np.array([0.8, 0.19, 0.01])
        dt, steps = 0.001, 30_000
        pv = model.param_values(0.0)
        comp = _compensator(model, 0.0, state)
        rng = path_generator(2024)
        acc = np.zeros(3)
        acc_sq = np.zeros(3)
        for _ in range(steps):
            marks = _step_marks(model.measure, SMALL, dt, rng)
            inc = -comp * dt
            if len(marks):
                inc = inc + model.small_jump_fn(pv, state, marks).sum(axis=0)
            acc += inc
            acc_sq += inc**2
        mean = acc / steps
        se = np.sqrt((acc_sq / steps - mean**2) / steps)
        assert np.all(np.abs(mean) <= 3.0 * se + 1e-18)
