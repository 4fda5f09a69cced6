import dataclasses
import math
import pickle
import re
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ussir
from ussir.expr import (
    SCAN_HORIZON,
    SCAN_POINTS,
    BinOp,
    Call,
    EvalDomainError,
    Neg,
    Num,
    Var,
    _analytic_bounds,
    _compile_source,
    _enclosure,
    bounds,
    compile_program,
    evaluate,
    parse,
    serialize,
)
from test_custom_parity import custom_text
from ussir.integrator import simulate
from ussir.levy import LARGE, SMALL, LevyMeasure
from ussir.models import (
    FAMILIES,
    OCTANT,
    SIMPLEX,
    ModelSpec,
    build_custom,
    build_named,
    check_admissible,
    check_structure,
)
from ussir.scenario import build_model, bundled_scenario_path, load_scenario, sim_config

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
    return evaluate(_MIN, x=x, c=cap)


def _at(model, t, state):
    """The (pv, S) arguments of the coefficient callables at one point."""
    return model.param_values(t), np.asarray(state, dtype=float)


def _random_simplex_points(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 50.0, n), rng.dirichlet((1, 1, 1), n), rng.uniform(-2.0, 2.0, n)


class TestEx1:
    def test_recovery_drift_row(self, scenario):
        _, model = scenario("table1")
        b = model.drift_fn(*_at(model, 0.0, (0.8, 0.19, 0.01)))
        assert b[2] == pytest.approx(0.84 * 0.19, abs=1e-15)

    def test_drift_rows_cancel(self, scenario):
        _, model = scenario("table1")
        ts, states, _ = _random_simplex_points(500)
        pv = model.param_values(ts)
        assert np.abs(model.drift_fn(pv, states).sum(axis=-1)).max() <= 1e-12

    def test_recovered_jump_component(self, scenario):
        _, model = scenario("table1")
        vec = model.small_jump_fn(*_at(model, 0.0, (0.8, 0.19, 0.01)), 0.3)
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
        b = model.drift_fn(*_at(model, 0.0, (0.85, 0.1, 0.05)))
        expected = (0.18 * 0.85 - 0.13 + 0.56 * 0.05) * 0.1
        assert b[1] == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(0.0051, abs=1e-15)

    def test_rows_cancel_everywhere(self, scenario):
        _, model = scenario("table2")
        ts, states, us = _random_simplex_points(500, seed=3)
        pv = model.param_values(ts)
        assert np.abs(model.drift_fn(pv, states).sum(axis=-1)).max() <= 1e-12
        assert np.abs(model.diffusion_fn(pv, states).sum(axis=-2)).max() <= 1e-12
        assert np.abs(model.small_jump_fn(pv, states, us).sum(axis=-1)).max() <= 1e-12

    def test_equal_large_jump_constants_cancel_in_infected_row(self):
        params = {"beta": "0.17", "gamma1": "0.12", "gamma2": "0.56", "sigma": "0.1"}
        jumps = {"h1": 0.019, "h2": 0.018, "g1": 0.11, "g2": 0.11}
        model = build_named("ex1b", params, jumps)
        vec = model.large_jump_fn(*_at(model, 0.0, (0.6, 0.3, 0.1)), 1.5)
        assert vec[1] == 0.0

    def test_infected_diffusion_row_is_doubled(self, scenario):
        _, model = scenario("table2")
        sig = model.diffusion_fn(*_at(model, 0.0, (0.85, 0.1, 0.05)))
        assert sig[1, 0] == pytest.approx(-2.0 * sig[0, 0], abs=1e-18)
        assert sig[2, 0] == pytest.approx(sig[0, 0], abs=1e-18)


class TestXc:
    def test_susceptible_drift_value(self, scenario):
        _, model = scenario("table3")
        b = model.drift_fn(*_at(model, 0.0, (2.0, 0.8, 1.0)))
        assert b[0] == pytest.approx(0.144, abs=1e-15)

    def test_drift_sum_identity(self, scenario):
        # rows sum to births minus mortality*total minus isolation*infected
        _, model = scenario("table3")
        rng = np.random.default_rng(4)
        ts = rng.uniform(0, 50, 300)
        states = rng.uniform(0.05, 5.0, (300, 3))
        pv = model.param_values(ts)
        total = model.drift_fn(pv, states).sum(axis=-1)
        expected = (
            pv["Lambda"] - pv["mu"] * states.sum(axis=-1) - pv["epsilon"] * states[:, 1]
        )
        assert np.abs(total - expected).max() <= 1e-12

    def test_diffusion_structure(self, scenario):
        _, model = scenario("table3")
        sig = model.diffusion_fn(*_at(model, 0.5, (2.0, 0.8, 1.0)))
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
        b = model.drift_fn(*_at(model, 0.0, (7.27, 1.5, 1.11)))
        # (beta(0)*min(x,1.5) - (mu(0)+gamma2(0))) * min(y,1.5)
        expected = (0.145 * 1.5 - (0.003 + 0.39)) * 1.5
        assert b[1] == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(-0.26325, abs=1e-12)

    def test_ex34a_large_jump_susceptible_term(self, scenario):
        _, model = scenario("table6")
        vec = model.large_jump_fn(*_at(model, 0.0, (3.75, 1.15, 1.1)), 1.5)
        assert vec[0] == pytest.approx(-0.001 * 1.0 * 1.0, abs=1e-18)

    def test_ex34a_small_jump_uses_all_three_products(self, scenario):
        _, model = scenario("table6")
        x, y, z = 0.5, 0.25, 0.75
        vec = model.small_jump_fn(*_at(model, 0.0, (x, y, z)), 0.1)
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


_PROGRAMS = ("drift_fn", "diffusion_fn", "small_jump_fn", "large_jump_fn", "step_fn", "checked_step_fn")


def _rule_sizes(model):
    """The node count of each drawn region's mark rule."""
    return {region: nodes.size for region, (nodes, _) in model.mark_rules.items()}


def _time_coefficients():
    """Coefficient texts in ``t`` of every operation, each with a form that
    encloses conclusively (a divisor or ln argument at least 1) and one that
    need not, some lifted to ``1+abs(...)`` to meet the exponent infimum."""
    leaves = st.one_of(st.sampled_from(["t", "0", "1", "0.5", "0.9", "2"]),
                       st.floats(min_value=0.001, max_value=9.0).map(lambda v: f"{v:.4f}"))

    def combine(children):
        return st.one_of(
            st.tuples(children, st.sampled_from("+-*/"), children).map(lambda c: f"({c[0]}{c[1]}{c[2]})"),
            st.tuples(children, children).map(lambda c: f"({c[0]}/(1+abs({c[1]})))"),
            st.tuples(st.sampled_from(["sin", "cos", "abs", "ln"]), children).map(lambda c: f"{c[0]}({c[1]})"),
            children.map(lambda c: f"ln(1+abs({c}))"),
            children.map(lambda c: f"-{c}"),
            st.tuples(children, children).map(lambda c: f"min({c[0]},{c[1]})"),
            children.map(lambda c: f"{c}^2"),
        )

    texts = st.recursive(leaves, combine, max_leaves=8)
    return st.one_of(texts, texts.map(lambda c: f"1+abs({c})"))


class TestNamedTables:
    @pytest.mark.parametrize("name", [f"table{i}" for i in range(1, 8)])
    def test_bundled_tables_build_without_a_scan(self, monkeypatch, name):
        # table1's xi 1+t/(1+t) and table6's 1+ln(1+abs(sin(t))) are proven by their enclosures
        def unscanned(tree):
            if _analytic_bounds(tree) is None:  # bounds() would scan its grid
                pytest.fail(f"scanned {serialize(tree)}")
            return bounds(tree)

        monkeypatch.setattr(ussir.models, "bounds", unscanned)
        build_model(load_scenario(bundled_scenario_path(name)))

    @given(xi=_time_coefficients())
    @example(xi="1+t/(1+t)")
    @example(xi="0.9+t/(1+t)")
    @example(xi="1+ln(1+abs(sin(t)))")
    @example(xi="1+ln(2-t/5000)")
    @settings(max_examples=60, deadline=None)
    def test_enclosure_settles_only_what_the_scan_accepts(self, xi):
        # a conclusive enclosure holds the whole scan grid, and a build gives
        # the verdict and message it gives with the enclosure switched off
        box = _enclosure(parse(xi))
        if box is not None:  # the grid evaluates in the reals, without overflow
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                vals = evaluate(parse(xi), t=np.linspace(0.0, SCAN_HORIZON, SCAN_POINTS))
            assert box[0] <= vals.min() and vals.max() <= box[1]
        verdicts = []
        for enclosure in (_enclosure, lambda tree: None):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(ussir.models, "_enclosure", enclosure)
                try:
                    build_named("ex1", dict(TABLE1_PARAMS, xi=xi), TABLE1_JUMPS)
                    verdicts.append("built")
                except ValueError as exc:
                    verdicts.append(str(exc))
        assert verdicts[0] == verdicts[1]

    def test_flags_follow_from_the_tables(self, scenario):
        for name in ("table1", "table2", "table3", "table6", "table7"):
            cfg, model = scenario(name)
            family = FAMILIES[cfg.model_id]
            assert model.domain == family.domain
            assert model.brownian_dim == len(family.diffusion)
            assert model.has_small_jumps == (family.small_jump is not None)
            assert model.has_large_jumps == (family.large_jump is not None)
            assert _rule_sizes(model) == ({SMALL: 1, LARGE: 1} if model.has_small_jumps else {})  # no jump reads u
            assert family.uses_cap == (cfg.cap is not None)
        assert [k for k, f in FAMILIES.items() if f.uses_cap] == ["ex34a", "ex34b"]

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown model family"):
            build_named("ex2", TABLE1_PARAMS, TABLE1_JUMPS)

    def test_cap_only_where_the_expressions_use_it(self, scenario):
        with pytest.raises(ValueError, match="does not take cap"):
            build_named("ex1", TABLE1_PARAMS, TABLE1_JUMPS, cap=2.0)
        cfg, _ = scenario("table7")
        with pytest.raises(ValueError, match="requires a truncation cap"):
            build_named("ex34b", cfg.params, cfg.jumps)

    def test_jump_constants_fold_into_the_program(self):
        params = {"beta": "0.17", "gamma1": "0.12", "gamma2": "0.56", "sigma": "0.1"}
        jumps = {"h1": 0.019, "h2": 0.018, "g1": 0.11, "g2": 0.05}
        model = build_named("ex1b", params, jumps)
        vec = model.small_jump_fn(*_at(model, 0.0, (0.6, 0.3, 0.1)), 0.5)
        w = 0.6 * 0.3 * 0.1
        assert np.array_equal(vec, [-0.019 * w, (0.019 - 0.018) * w, 0.018 * w])

    @pytest.mark.parametrize(
        "name, keys",
        [("table1", []), ("table2", ["-beta"]), ("table3", ["mu+gamma+epsilon"]),
         ("table6", ["gamma2-mu", "mu+gamma1"]), ("table7", ["mu+gamma2", "mu+gamma1"])],
    )
    def test_time_only_subtrees_evaluated_with_the_coefficients(self, scenario, name, keys):
        # param_values holds the named coefficients alone; the step program evaluates each subtree from them,
        # by the checked program of its tree, which it binds at its head
        _, model = scenario(name)
        ts = np.linspace(0.0, 50.0, 101)
        pv = model.param_values(ts)
        assert list(pv) == ["t", *model.params]
        reads = model.step_fn.reads
        assert [key for key, tree in reads.items() if not isinstance(tree, Var)] == keys
        for key in keys:
            hoisted = compile_program([reads[key]], constants=model.constants)
            assert any(value is hoisted for value in model.step_fn.__globals__.values()), key
            assert np.array_equal(hoisted(pv), evaluate(parse(key, tuple(model.params)), **pv))


class TestConservation:
    def test_ex1_conserves(self, scenario):
        _, model = scenario("table1")
        report, _ = check_structure(model)
        assert report.passed
        assert report.max_abs_deviation <= 1e-12

    def test_ex1b_conserves(self, scenario):
        _, model = scenario("table2")
        report, _ = check_structure(model)
        assert report.passed

    def test_corrupted_drift_detected(self, scenario):
        _, model = scenario("table1")
        corrupted = [BinOp("+", model.drift[0], Num(1e-6)), *model.drift[1:]]
        broken = dataclasses.replace(model, drift=corrupted)
        report, _ = check_structure(broken)
        assert not report.passed
        assert report.breakdown["drift"] >= 1e-7

    def test_conservation_is_none_on_the_octant(self, scenario):
        _, model = scenario("table3")
        assert check_structure(model)[0] is None


class TestPositivity:
    def test_table1_ratios_positive(self, scenario):
        _, model = scenario("table1")
        _, report = check_structure(model)
        assert report.passed
        assert report.min_ratio > 0.0

    def test_injected_oversized_jump_detected(self, scenario):
        _, model = scenario("table1")
        oversized = build_custom(
            domain=OCTANT,
            drift=("0", "0", "0"),
            diffusion=(("0", "0", "0"),),
            small_jump=("-(0.01*x*y)", "0.01*x*y-1.5*y*z", "1.5*y*z"),
        ).small_jump
        broken = dataclasses.replace(model, small_jump=oversized)
        _, report = check_structure(broken)
        assert not report.passed

    def test_each_vector_checked_at_marks_of_its_own_region(self):
        # the engine applies the small-jump vector only at |u| < 1, where
        # 1 - 0.9*u*y and 1 + 0.9*u*x stay above 0.1; marks drawn over the
        # whole support [-2, 2] refused this model (min ratio -0.401)
        def build(scale):
            small = (f"-{scale}*u*x*y", f"{scale}*u*x*y", "0")
            return build_custom(SIMPLEX, drift=("0", "0", "0"), diffusion=(("0", "0", "0"),), small_jump=small)

        _, report = check_structure(build(0.9))
        assert report.passed
        assert report.min_ratio >= 1.0 - 0.9
        with pytest.raises(ValueError, match="violates jump positivity"):
            build(1.5)

    def test_no_jumps_means_unit_ratios(self, scenario):
        _, model = scenario("table3")
        _, report = check_structure(model)
        assert report.min_ratio == 1.0


def _kicks(scale: str) -> dict:
    """A driftless simplex model whose small jumps move at most ``1.5 * scale`` from x to y."""
    kick = f"1.5*x*min(1,{scale}/x)"
    return {"drift": ("0", "0", "0"), "diffusion": (("0", "0", "0"),), "small_jump": (f"-{kick}", kick, "0")}


_CRAFTED = {
    "kicks_1e-4": _kicks("0.0001"),
    "kicks_1e-5": _kicks("0.00001"),
    "unbalanced_drift": {"drift": ("-0.2*x*y", "0.2*x*y", "0.1*y"), "diffusion": (("0", "0", "0"),)},
    "oversized_jump": {"drift": ("-0.2*x*y", "0.2*x*y", "0"), "diffusion": (("0", "0", "0"),),
                       "small_jump": ("-2.5*x", "2.5*x", "0")},
    **{f"marked_{scale}": {"drift": ("0", "0", "0"), "diffusion": (("0", "0", "0"),),
                           "small_jump": (f"-{scale}*u*x*y", f"{scale}*u*x*y", "0")} for scale in ("0.9", "1.5")},
}


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

    def test_small_kicks_refused_where_validate_fails(self):
        # the gate samples the points validate checks: min(1, 1e-4/x) kicks fail there
        with pytest.raises(ValueError, match=re.escape("violates jump positivity (min ratio -1.776e-01)")):
            build_custom(SIMPLEX, **_kicks("0.0001"))

    def test_smaller_kicks_pass_the_one_check(self):
        # no point drawn lands where min(1, 1e-5/x) kicks fail; only a proof would see the rest of the simplex
        conservation, positivity = check_structure(build_custom(SIMPLEX, **_kicks("0.00001")))
        assert conservation.passed and positivity.passed
        assert positivity.min_ratio == pytest.approx(0.882, abs=5e-4)

    @pytest.mark.parametrize("case", [*(f"table{i}" for i in range(1, 8)), *_CRAFTED])
    def test_refused_exactly_when_the_check_fails(self, scenario, tmp_path, case):
        # the model built on the octant, where no gate runs, then moved to its own domain, against the gated build
        if case in _CRAFTED:
            domain, texts = SIMPLEX, _CRAFTED[case]
            ungated = dataclasses.replace(build_custom(OCTANT, **texts), domain=domain)
            gated = partial(build_custom, domain, **texts)
        else:
            cfg, _ = scenario(case)
            domain, text = FAMILIES[cfg.model_id].domain, custom_text(cfg)
            (tmp_path / "octant.scn").write_text(text.replace(f"domain = {domain}", f"domain = {OCTANT}"))
            (tmp_path / "custom.scn").write_text(text)
            ungated = dataclasses.replace(build_model(load_scenario(tmp_path / "octant.scn")), domain=domain)
            gated = partial(build_model, load_scenario(tmp_path / "custom.scn"))
        passed = all(report is None or report.passed for report in check_structure(ungated))
        try:
            gated()
        except ValueError as exc:
            assert not passed, exc
            assert "violates" in str(exc)
        else:
            assert passed

    def test_octant_custom_constant_coefficients(self):
        model = build_custom(
            domain=OCTANT,
            drift=("0", "-0.7*y", "0"),
            diffusion=(("0", "0", "0"),),
        )
        b = model.drift_fn(*_at(model, 1.0, (1.0, 2.0, 3.0)))
        assert np.array_equal(b, [0.0, -1.4, 0.0])

    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda: ModelSpec("m", OCTANT, None, (Num(0.0),) * 2, ()), "drift needs exactly three entries, got 2"),
            (lambda: build_custom(OCTANT, ("0", "0", "0"), ()),
             "at least one diffusion column is required (may be zeros)"),
        ],
        ids=["two-entry-drift", "no-diffusion-column"],
    )
    def test_refused_shapes(self, build, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()

    def test_custom_time_dependence_flows_through(self):
        model = build_custom(
            domain=OCTANT,
            drift=("sin(t)*x", "0", "0"),
            diffusion=(("0", "0", "0"),),
        )
        b = model.drift_fn(*_at(model, math.pi / 2.0, (2.0, 1.0, 1.0)))
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

    @pytest.mark.parametrize("state", [(np.inf, 0.5, 0.5), (0.5, np.nan, 0.5), (0.5, 0.5, np.inf)])
    @pytest.mark.parametrize("domain", [OCTANT, SIMPLEX])
    def test_check_admissible_refuses_non_finite(self, state, domain):
        with pytest.raises(ValueError, match=r"state components must be finite, got \["):
            check_admissible(state, domain)


class TestSuppress:
    """Models rebuilt from a reduced table, as the noise panels' copies are."""

    @pytest.mark.parametrize("name", ["table1", "table3", "table6"])
    def test_suppressed_copies_derive_their_flags(self, scenario, reduced, name):
        _, model = scenario(name)
        n, small, large = model.brownian_dim, model.has_small_jumps, model.has_large_jumps
        panels = {
            # (brownian_dim, has_diffusion, has_small_jumps, has_large_jumps)
            "deterministic": (reduced(model), (0, False, False, False)),
            "diffusion_only": (reduced(model, drift=True, diffusion=False), (n, True, False, False)),
            "jumps_only": (reduced(model, drift=True, jumps=False), (0, False, small, large)),
            "unchanged": (reduced(model, diffusion=False, jumps=False), (n, True, small, large)),
        }
        for label, (copy, flags) in panels.items():
            assert (copy.brownian_dim, copy.has_diffusion, copy.has_small_jumps, copy.has_large_jumps) == flags, label
            kept = copy.has_small_jumps or copy.has_large_jumps
            assert _rule_sizes(copy) == (_rule_sizes(model) if kept else {}), label
            assert copy.params == model.params and copy.constants == model.constants, label
        silent_drift = panels["jumps_only"][0]
        S = np.array([[2.0, 0.8, 1.0], [0.3, 0.3, 0.4]])
        pv = model.param_values(0.5)
        assert np.all(silent_drift.drift_fn(pv, S) == 0.0)
        assert silent_drift.diffusion_fn(pv, S).shape == (2, 3, 0)

    @pytest.mark.parametrize("name", ["table1", "table3", "table6"])
    def test_rebuilds_reuse_compiled_code(self, scenario, reduced, name):
        # each program is emitted once per process for its whole input and shared by every model that asks for it
        cfg, _ = scenario(name)
        model = build_model(cfg)
        [getattr(model, program) for program in _PROGRAMS], model._param_fns  # compiled on first use
        misses = _compile_source.cache_info().misses
        again = build_model(cfg)
        for program in _PROGRAMS:
            assert getattr(again, program) is getattr(model, program), program
        assert list(again._param_fns) == list(model._param_fns) and model._param_fns
        for key, fn in model._param_fns.items():
            assert again._param_fns[key] is fn, key
        assert _compile_source.cache_info().misses == misses
        # a model built from some of the same trees recompiles none of the groups it shares
        assert reduced(model, drift=True, diffusion=False).diffusion_fn is model.diffusion_fn
        jumps_only = reduced(model, drift=True, jumps=False)
        assert jumps_only.small_jump_fn is model.small_jump_fn
        assert jumps_only.large_jump_fn is model.large_jump_fn
        assert reduced(model).drift_fn is model.drift_fn

    def test_checks_run_on_suppressed_simplex_copy(self, scenario, reduced):
        _, model = scenario("table1")
        for copy in (reduced(model), reduced(model, drift=True, jumps=False)):
            conservation, positivity = check_structure(copy)
            assert conservation.passed
            assert conservation.breakdown["diffusion"] == 0.0
            assert positivity.passed
        silent = reduced(model)
        _, report = check_structure(silent)
        assert report.min_ratio == 1.0


class TestSharedPrograms:
    """Programs shared between models of one structure, and kept apart by every other input."""

    def test_custom_rebuild_shares_every_program(self):
        model = build_custom(OCTANT, ("0.1-0.1*x", "0.05*(1+sin(t))*x*y-0.1*y", "0.02-0.05*z"),
                             (("0.1*x", "0.05*y", "0"),), small_jump=("0.01*u*x", "0.01*u^2*y", "0"))
        groups = pickle.loads(pickle.dumps((model.drift, model.diffusion, model.small_jump)))  # equal, other nodes
        again = ModelSpec(model.model_id, model.domain, model.measure, *groups)
        assert again is not model and again.small_jump[0] is not model.small_jump[0]
        for program in _PROGRAMS:
            assert getattr(again, program) is getattr(model, program), program
        # no named coefficient: the step program carries the program of its one subtree of time alone
        assert [key for key, tree in model.step_fn.reads.items() if not isinstance(tree, Var)] == ["0.05*(1.0+sin(t))"]
        assert again.step_fn is model.step_fn

    def test_custom_rebuild_and_run_compare_no_node(self, tmp_path, monkeypatch):
        # the texts parse to the trees of the first build, so every memo hits by identity
        path = tmp_path / "table2_custom.scn"
        path.write_text(custom_text(load_scenario(bundled_scenario_path("table2"))))

        def build_and_run():
            cfg = load_scenario(path)
            model = build_model(cfg)
            return model, simulate(model, cfg.initial_state, sim_config(cfg, horizon=0.05)).states

        model, states = build_and_run()
        compared, memos = [], (ussir.expr._parse, ussir.expr._emit)
        for cls in (Num, Var, Neg, BinOp, Call):
            monkeypatch.setattr(cls, "__eq__", lambda a, b, eq=cls.__eq__: compared.append(a) or eq(a, b))
        misses = [memo.cache_info().misses for memo in memos]
        again, again_states = build_and_run()
        assert again is not model and again.drift[0] is model.drift[0] and again.step_fn is model.step_fn
        assert np.array_equal(again_states, states)
        assert [memo.cache_info().misses for memo in memos] == misses and not compared

    def test_each_input_gets_its_own_program(self, scenario):
        cfg, model = scenario("table6")
        half_h1 = build_model(dataclasses.replace(cfg, jumps={**cfg.jumps, "h1": cfg.jumps["h1"] / 2}))
        other_cap = build_model(dataclasses.replace(cfg, cap=3 * cfg.cap))
        assert half_h1.small_jump_fn is not model.small_jump_fn and half_h1.step_fn is not model.step_fn
        assert half_h1.drift_fn is not model.drift_fn  # the drift reads no jump constant, but the key holds them all
        assert other_cap.drift_fn is not model.drift_fn and other_cap.step_fn is not model.step_fn
        assert model.checked_step_fn is not model.step_fn
        # each computes with its own constants: the small jump's susceptible row at x = y = z = 1/2
        pv, S = _at(model, 0.0, (0.5, 0.5, 0.5))
        for m in (model, half_h1):
            assert m.small_jump_fn(pv, S, 0.0)[0] == -(m.constants["h1"] * 0.25 - m.constants["h3"] * 0.25)
        # a u-dependent small rule: other weights at the same nodes, other nodes with the same weights
        measures = [LevyMeasure(-2.0, 2.0), LevyMeasure(-2.0, 2.0, 2.0), LevyMeasure(-0.5, 2.0), LevyMeasure(-2.0, 0.5)]
        models = [build_custom(OCTANT, ("0", "0", "0"), (("0.1*x", "0", "0"),), small_jump=("0.01*u*x", "0", "0"),
                               measure=measure) for measure in measures]
        (n0, w0), (n1, w1), (n2, w2), (n3, w3) = (m.mark_rules[SMALL] for m in models)
        assert np.array_equal(n0, n1) and not np.array_equal(w0, w1)
        assert not np.array_equal(n2, n3) and np.array_equal(w2, w3)
        assert len({id(m.step_fn) for m in models}) == 4
        assert len({id(m.drift_fn) for m in models}) == 1  # no group program reads the rule

    def test_refused_fold_raises_on_every_build(self):
        drift = tuple(parse(text, ("x", "k")) for text in ("k*1e300*x", "0", "0"))
        for _ in range(2):
            with pytest.raises(EvalDomainError, match=r"'k\*1e\+300' folds to the non-finite constant inf"):
                ModelSpec("custom", OCTANT, None, drift, (), constants={"k": 1e300})
        assert ModelSpec("custom", OCTANT, None, drift, (), constants={"k": 1.0}).drift_fn is not None
