import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ussir.expr import evaluate, parse
from ussir.models import (
    FAMILIES,
    OCTANT,
    SIMPLEX,
    build_custom,
    build_named,
    check_admissible,
    check_conservation,
    check_positivity_ratios,
    suppress,
)

TABLE1_PARAMS = {
    "beta": "0.3+0.1*sin(4*t)",
    "gamma": "0.8+0.04*cos(7*t)",
    "xi": "1+t/(1+t)",
    "phi1": "0.01+0.005*cos(t)",
    "phi2": "0.01+0.005*cos(t)",
    "phi3": "1+0.5*sin(15*t)",
    "sigma1": "0.5+0.01*cos(7*t)",
    "sigma2": "0.4+0.01*sin(7*t)",
}
TABLE1_JUMPS = {"h1": 0.01, "h2": 0.025, "g1": 0.1, "g2": 0.12}

# the truncations the families write as min(x, cap) and min(x, 1)
_MIN = parse("min(x,c)", variables=("x", "c"))


def _truncate(x, cap):
    return evaluate(_MIN, x, c=cap)


def _at(model, t, state):
    """The (pv, S) arguments of the coefficient callables at one point."""
    return model.param_values(t), np.asarray(state, dtype=float)


def _random_simplex_points(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 50.0, n), rng.dirichlet((1, 1, 1), n), rng.uniform(-2.0, 2.0, n)


class TestEx1:
    def test_recovery_drift_row(self, scenario):
        _, model = scenario("table1")
        b = model.drift_pv(*_at(model, 0.0, (0.8, 0.19, 0.01)))
        assert b[2] == pytest.approx(0.84 * 0.19, abs=1e-15)

    def test_drift_rows_cancel(self, scenario):
        _, model = scenario("table1")
        ts, states, _ = _random_simplex_points(500)
        pv = model.param_values(ts)
        assert np.abs(model.drift_pv(pv, states).sum(axis=-1)).max() <= 1e-12

    def test_recovered_jump_component(self, scenario):
        _, model = scenario("table1")
        vec = model.small_jump_pv(*_at(model, 0.0, (0.8, 0.19, 0.01)), 0.3)
        assert vec[2] == pytest.approx(0.025 * 0.19 * 0.01, abs=1e-18)

    def test_rejects_exponent_below_one(self):
        params = dict(TABLE1_PARAMS, xi="0.5+0.1*sin(t)")
        with pytest.raises(ValueError, match="below 1"):
            build_named("ex1", params, TABLE1_JUMPS)

    def test_rejects_jump_cap_at_one(self):
        with pytest.raises(ValueError, match="outside"):
            build_named("ex1", TABLE1_PARAMS, dict(TABLE1_JUMPS, g1=1.0))

    def test_rejects_negative_jump(self):
        with pytest.raises(ValueError, match="outside"):
            build_named("ex1", TABLE1_PARAMS, dict(TABLE1_JUMPS, h1=-0.1))

    def test_missing_parameter_named(self):
        params = {k: v for k, v in TABLE1_PARAMS.items() if k != "sigma2"}
        with pytest.raises(ValueError, match="sigma2"):
            build_named("ex1", params, TABLE1_JUMPS)


class TestEx1b:
    def test_infected_drift_value(self, scenario):
        _, model = scenario("table2")
        b = model.drift_pv(*_at(model, 0.0, (0.85, 0.1, 0.05)))
        expected = (0.18 * 0.85 - 0.13 + 0.56 * 0.05) * 0.1
        assert b[1] == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(0.0051, abs=1e-15)

    def test_rows_cancel_everywhere(self, scenario):
        _, model = scenario("table2")
        ts, states, us = _random_simplex_points(500, seed=3)
        pv = model.param_values(ts)
        assert np.abs(model.drift_pv(pv, states).sum(axis=-1)).max() <= 1e-12
        assert np.abs(model.diffusion_pv(pv, states).sum(axis=-2)).max() <= 1e-12
        assert np.abs(model.small_jump_pv(pv, states, us).sum(axis=-1)).max() <= 1e-12

    def test_equal_large_jump_constants_cancel_in_infected_row(self):
        params = {"beta": "0.17", "gamma1": "0.12", "gamma2": "0.56", "sigma": "0.1"}
        jumps = {"h1": 0.019, "h2": 0.018, "g1": 0.11, "g2": 0.11}
        model = build_named("ex1b", params, jumps)
        vec = model.large_jump_pv(*_at(model, 0.0, (0.6, 0.3, 0.1)), 1.5)
        assert vec[1] == 0.0

    def test_infected_diffusion_row_is_doubled(self, scenario):
        _, model = scenario("table2")
        sig = model.diffusion_pv(*_at(model, 0.0, (0.85, 0.1, 0.05)))
        assert sig[1, 0] == pytest.approx(-2.0 * sig[0, 0], abs=1e-18)
        assert sig[2, 0] == pytest.approx(sig[0, 0], abs=1e-18)


class TestXc:
    def test_susceptible_drift_value(self, scenario):
        _, model = scenario("table3")
        b = model.drift_pv(*_at(model, 0.0, (2.0, 0.8, 1.0)))
        assert b[0] == pytest.approx(0.144, abs=1e-15)

    def test_drift_sum_identity(self, scenario):
        # rows sum to births minus mortality*total minus isolation*infected
        _, model = scenario("table3")
        rng = np.random.default_rng(4)
        ts = rng.uniform(0, 50, 300)
        states = rng.uniform(0.05, 5.0, (300, 3))
        pv = model.param_values(ts)
        total = model.drift_pv(pv, states).sum(axis=-1)
        expected = (
            pv["Lambda"] - pv["mu"] * states.sum(axis=-1) - pv["epsilon"] * states[:, 1]
        )
        assert np.abs(total - expected).max() <= 1e-12

    def test_diffusion_structure(self, scenario):
        _, model = scenario("table3")
        sig = model.diffusion_pv(*_at(model, 0.5, (2.0, 0.8, 1.0)))
        assert sig.shape == (3, 1)
        assert sig[0, 0] == pytest.approx(-sig[1, 0], abs=1e-18)
        assert sig[2, 0] == 0.0

    def test_rejects_vanishing_mortality(self):
        params = {
            "Lambda": "0.5",
            "mu": "0.0",
            "beta": "0.13",
            "gamma": "0.9",
            "epsilon": "0.15",
            "sigma": "0.12",
        }
        with pytest.raises(ValueError, match="mortality"):
            build_named("xc", params)


class TestEx34:
    def test_truncations(self):
        state = np.array([3.75, 1.15, 1.1])
        assert np.array_equal(_truncate(state, 2.0), [2.0, 1.15, 1.1])
        assert np.array_equal(_truncate(state, 1.0), [1.0, 1.0, 1.0])

    def test_ex34b_infected_drift(self, scenario):
        _, model = scenario("table7")
        b = model.drift_pv(*_at(model, 0.0, (7.27, 1.5, 1.11)))
        # (beta(0)*min(x,1.5) - (mu(0)+gamma2(0))) * min(y,1.5)
        expected = (0.145 * 1.5 - (0.003 + 0.39)) * 1.5
        assert b[1] == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(-0.26325, abs=1e-12)

    def test_ex34a_large_jump_susceptible_term(self, scenario):
        _, model = scenario("table6")
        vec = model.large_jump_pv(*_at(model, 0.0, (3.75, 1.15, 1.1)), 1.5)
        assert vec[0] == pytest.approx(-0.001 * 1.0 * 1.0, abs=1e-18)

    def test_ex34a_small_jump_uses_all_three_products(self, scenario):
        _, model = scenario("table6")
        x, y, z = 0.5, 0.25, 0.75
        vec = model.small_jump_pv(*_at(model, 0.0, (x, y, z)), 0.1)
        h1, h2, h3 = 0.0001, 0.00025, 0.0009
        assert vec[0] == pytest.approx(-(h1 * x * y - h3 * x * z), abs=1e-18)
        assert vec[1] == pytest.approx(h1 * x * y - h2 * y * z, abs=1e-18)
        assert vec[2] == pytest.approx(h2 * y * z - h3 * x * z, abs=1e-18)

    def test_cap_must_be_positive(self, scenario):
        cfg, _ = scenario("table6")
        with pytest.raises(ValueError, match="cap"):
            build_named("ex34a", cfg.params, cfg.jumps, cap=0.0)

    def test_rejects_violated_caps(self, scenario):
        cfg, _ = scenario("table7")
        with pytest.raises(ValueError, match="outside"):
            build_named("ex34b", cfg.params, dict(cfg.jumps, g2=1.2), cap=1.5)


class TestTruncationProperties:
    @given(x=st.floats(min_value=0.0, max_value=1e6), cap=st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=200, deadline=None)
    def test_dagger_idempotent_and_bounded(self, x, cap):
        once = _truncate(x, cap)
        assert once <= cap
        assert _truncate(once, cap) == once
        assert once == x or x > cap

    @given(x=st.floats(min_value=0.0, max_value=10.0), y=st.floats(min_value=0.0, max_value=10.0))
    @settings(max_examples=200, deadline=None)
    def test_star_monotone(self, x, y):
        if x <= y:
            assert _truncate(x, 1.0) <= _truncate(y, 1.0)

    def test_dagger_with_huge_cap_is_identity(self):
        assert _truncate(123.456, 1e12) == 123.456


class TestNamedTables:
    def test_flags_follow_from_the_tables(self, scenario):
        for name in ("table1", "table2", "table3", "table6", "table7"):
            cfg, model = scenario(name)
            family = FAMILIES[cfg.model_id]
            assert model.domain == family.domain
            assert model.brownian_dim == len(family.diffusion)
            assert model.has_small_jumps == (family.small_jump is not None)
            assert model.has_large_jumps == (family.large_jump is not None)
            assert not model.small_jump_uses_u
            assert family.uses_cap == (cfg.cap is not None)
        assert [k for k, f in FAMILIES.items() if f.uses_cap] == ["ex34a", "ex34b"]

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown model family"):
            build_named("ex2", TABLE1_PARAMS, TABLE1_JUMPS)

    def test_cap_only_where_the_expressions_use_it(self, scenario):
        with pytest.raises(ValueError, match="takes no truncation cap"):
            build_named("ex1", TABLE1_PARAMS, TABLE1_JUMPS, cap=2.0)
        cfg, _ = scenario("table7")
        with pytest.raises(ValueError, match="requires a truncation cap"):
            build_named("ex34b", cfg.params, cfg.jumps)

    def test_jump_constants_fold_into_the_program(self):
        params = {"beta": "0.17", "gamma1": "0.12", "gamma2": "0.56", "sigma": "0.1"}
        jumps = {"h1": 0.019, "h2": 0.018, "g1": 0.11, "g2": 0.05}
        model = build_named("ex1b", params, jumps)
        vec = model.small_jump_pv(*_at(model, 0.0, (0.6, 0.3, 0.1)), 0.5)
        w = 0.6 * 0.3 * 0.1
        assert np.array_equal(vec, [-0.019 * w, (0.019 - 0.018) * w, 0.018 * w])


class TestConservation:
    def test_ex1_conserves(self, scenario):
        _, model = scenario("table1")
        report = check_conservation(model, samples=1000, rng=np.random.default_rng(1))
        assert report.passed
        assert report.max_abs_deviation <= 1e-12

    def test_ex1b_conserves(self, scenario):
        _, model = scenario("table2")
        report = check_conservation(model, samples=1000, rng=np.random.default_rng(2))
        assert report.passed

    def test_corrupted_drift_detected(self, scenario):
        _, model = scenario("table1")
        original = model.drift_fn

        def corrupted(pv, S):
            out = original(pv, S).copy()
            out[..., 0] = out[..., 0] + 1e-6
            return out

        broken = dataclasses.replace(model, drift_fn=corrupted)
        report = check_conservation(broken, samples=200, rng=np.random.default_rng(3))
        assert not report.passed
        assert report.breakdown["drift"] >= 1e-7

    def test_octant_model_rejected(self, scenario):
        _, model = scenario("table3")
        with pytest.raises(ValueError, match="simplex"):
            check_conservation(model)


class TestPositivity:
    def test_table1_ratios_positive(self, scenario):
        _, model = scenario("table1")
        report = check_positivity_ratios(model, samples=1000, rng=np.random.default_rng(5))
        assert report.passed
        assert report.min_ratio > 0.0

    def test_injected_oversized_jump_detected(self, scenario):
        _, model = scenario("table1")
        oversized = build_custom(
            domain=OCTANT,
            drift=("0", "0", "0"),
            diffusion=(("0", "0", "0"),),
            small_jump=("-(0.01*x*y)", "0.01*x*y-1.5*y*z", "1.5*y*z"),
        ).small_jump_fn
        broken = dataclasses.replace(model, small_jump_fn=oversized)
        report = check_positivity_ratios(broken, samples=1000, rng=np.random.default_rng(6))
        assert not report.passed

    def test_no_jumps_means_unit_ratios(self, scenario):
        _, model = scenario("table3")
        report = check_positivity_ratios(model, samples=200, rng=np.random.default_rng(7))
        assert report.min_ratio == 1.0


class TestCustom:
    def test_simplex_custom_passes_gates(self):
        model = build_custom(
            domain=SIMPLEX,
            drift=("-0.2*x*y", "(0.2*x-0.3)*y", "0.3*y"),
            diffusion=(("-0.05*x*y", "0.05*x*y", "0"),),
            small_jump=("-0.01*x*y*u", "0.01*x*y*u", "0"),
        )
        assert model.domain == SIMPLEX
        assert model.brownian_dim == 1

    def test_simplex_custom_violating_conservation_rejected(self):
        with pytest.raises(ValueError, match="conservation"):
            build_custom(
                domain=SIMPLEX,
                drift=("-0.2*x*y", "0.2*x*y", "0.1*y"),
                diffusion=(("0", "0", "0"),),
            )

    def test_simplex_custom_violating_positivity_rejected(self):
        with pytest.raises(ValueError, match="positivity"):
            build_custom(
                domain=SIMPLEX,
                drift=("-0.2*x*y", "0.2*x*y", "0"),
                diffusion=(("0", "0", "0"),),
                small_jump=("-2.5*x", "2.5*x", "0"),
            )

    def test_octant_custom_constant_coefficients(self):
        model = build_custom(
            domain=OCTANT,
            drift=("0", "-0.7*y", "0"),
            diffusion=(("0", "0", "0"),),
        )
        b = model.drift_pv(*_at(model, 1.0, (1.0, 2.0, 3.0)))
        assert np.array_equal(b, [0.0, -1.4, 0.0])

    def test_custom_time_dependence_flows_through(self):
        model = build_custom(
            domain=OCTANT,
            drift=("sin(t)*x", "0", "0"),
            diffusion=(("0", "0", "0"),),
        )
        b = model.drift_pv(*_at(model, math.pi / 2.0, (2.0, 1.0, 1.0)))
        assert b[0] == pytest.approx(2.0, abs=1e-12)


class TestStateHelpers:
    def test_check_admissible_validates_shape(self):
        with pytest.raises(ValueError, match="three components"):
            check_admissible((1.0, 2.0), OCTANT)

    def test_check_admissible(self):
        check_admissible((0.3, 0.3, 0.4), SIMPLEX)
        with pytest.raises(ValueError, match="positive"):
            check_admissible((0.0, 0.5, 0.5), SIMPLEX)
        with pytest.raises(ValueError, match="sum"):
            check_admissible((0.3, 0.3, 0.3), SIMPLEX)
        check_admissible((5.0, 2.0, 1.0), OCTANT)


class TestSuppress:
    def test_noise_free_copy_has_zero_noise(self, scenario):
        _, model = scenario("table1")
        silent = suppress(model)
        pv, S = _at(model, 0.0, (0.8, 0.19, 0.01))
        assert np.all(silent.diffusion_pv(pv, S) == 0.0)
        assert np.all(silent.small_jump_pv(pv, S, 0.5) == 0.0)
        assert np.all(silent.large_jump_pv(pv, S, 1.5) == 0.0)
        assert np.array_equal(silent.drift_pv(pv, S), model.drift_pv(pv, S))
        assert not silent.has_diffusion

    def test_drift_free_copy_keeps_noise(self, scenario):
        _, model = scenario("table1")
        pure_noise = suppress(model, drift=True, diffusion=False, small_jumps=False, large_jumps=False)
        pv, S = _at(model, 0.0, (0.8, 0.19, 0.01))
        assert np.all(pure_noise.drift_pv(pv, S) == 0.0)
        assert np.array_equal(pure_noise.diffusion_pv(pv, S), model.diffusion_pv(pv, S))
