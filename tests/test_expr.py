import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ussir.expr import (
    BoundsPair,
    EvalDomainError,
    ParseError,
    bounds,
    evaluate,
    parse,
    serialize,
)

TABLE_EXPRESSIONS = [
    "0.3+0.1*sin(4*t)",
    "0.8+0.04*cos(7*t)",
    "1+t/(1+t)",
    "0.01+0.005*cos(t)",
    "1+0.5*sin(15*t)",
    "0.141+0.02*(sin(t)+cos(t))",
    "1+ln(1+abs(sin(t)))",
    "0.002+0.002*cos(25*t)",
    "0.3125+0.002*(sin(t)+cos(t))",
]


class TestParseEval:
    def test_sin_at_zero(self):
        assert parse("0.3+0.1*sin(4*t)")(0.0) == pytest.approx(0.3, abs=1e-15)

    def test_rational(self):
        assert parse("1+t/(1+t)")(1.0) == pytest.approx(1.5, abs=1e-15)

    def test_log_abs(self):
        f = parse("1+ln(1+abs(sin(t)))")
        assert f(math.pi / 2) == pytest.approx(1.0 + math.log(2.0), abs=1e-12)

    def test_cos_at_zero(self):
        assert parse("0.8+0.04*cos(7*t)")(0.0) == pytest.approx(0.84, abs=1e-15)

    def test_constant(self):
        f = parse("5")
        assert f(0.0) == 5.0
        assert f(123.4) == 5.0

    def test_sin_three_half_pi(self):
        f = parse("0.15+0.07*sin(t)")
        assert f(3 * math.pi / 2) == pytest.approx(0.08, abs=1e-12)

    def test_eval_is_pure(self):
        f = parse("0.3+0.1*sin(4*t)")
        assert f(1.2345) == f(1.2345)

    def test_vectorized_eval(self):
        f = parse("2*t")
        out = f(np.array([0.0, 1.0, 2.5]))
        assert np.array_equal(out, [0.0, 2.0, 5.0])

    def test_constant_broadcasts_on_arrays(self):
        f = parse("0.25")
        out = f(np.linspace(0, 1, 7))
        assert out.shape == (7,)
        assert np.all(out == 0.25)

    def test_unary_minus(self):
        assert parse("-t+3")(1.0) == 2.0

    def test_whitespace_insignificant(self):
        assert parse(" 0.3 + 0.1 * sin( 4 * t ) ")(0.0) == parse("0.3+0.1*sin(4*t)")(0.0)

    def test_power(self):
        assert parse("t^2")(3.0) == 9.0
        assert parse("2^t")(np.array([0.0, 3.0])).tolist() == [1.0, 8.0]

    def test_power_binds_tighter_than_unary_minus(self):
        assert parse("-t^2")(3.0) == -9.0
        assert parse("(-t)^2")(3.0) == 9.0

    def test_power_is_right_associative(self):
        assert parse("2^3^2")(0.0) == 512.0
        assert parse("2^-1")(0.0) == 0.5

    def test_min(self):
        f = parse("min(t, 1)")
        assert f(0.25) == 0.25
        assert f(np.array([0.5, 2.0])).tolist() == [0.5, 1.0]
        assert parse("min(2*t, t+1)*3")(2.0) == 9.0


class TestErrors:
    def test_unknown_name_position(self):
        with pytest.raises(ParseError) as err:
            parse("0.3+tan(t)")
        assert err.value.position == 4

    def test_trailing_input(self):
        with pytest.raises(ParseError):
            parse("1+1 2")

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse("sin(t")

    def test_empty(self):
        with pytest.raises(ParseError):
            parse("")

    def test_power_rejected(self):
        # the power operator is ^; Python's ** is not part of the grammar
        with pytest.raises(ParseError) as err:
            parse("t**2")
        assert err.value.position == 2

    @pytest.mark.parametrize("text,position", [("min(t)", 5), ("min(t,1,2)", 7), ("1+,t", 2), ("t,1", 1)])
    def test_min_arity_and_stray_comma_positions(self, text, position):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.position == position

    @pytest.mark.parametrize("text", ["(0-1)^0.5", "0^(0-1)", "(t-2)^0.5", "(t-1)^(0-2)"])
    def test_power_domain(self, text):
        with pytest.raises(EvalDomainError, match="power"):
            parse(text)(1.0)

    def test_power_domain_allows_integer_exponents_of_negative_bases(self):
        assert parse("(t-2)^3")(1.0) == -1.0
        assert parse("0^0")(0.0) == 1.0

    def test_ln_domain(self):
        f = parse("ln(t-1)")
        with pytest.raises(EvalDomainError):
            f(0.5)

    def test_division_by_zero(self):
        f = parse("1/(t-1)")
        with pytest.raises(EvalDomainError):
            f(1.0)

    def test_missing_variable(self):
        f = parse("x+u", variables=("x", "u"))
        with pytest.raises(EvalDomainError):
            evaluate(f, 1.0)


class TestSerialize:
    @pytest.mark.parametrize("text", TABLE_EXPRESSIONS)
    def test_roundtrip_table_expressions(self, text):
        f = parse(text)
        again = parse(serialize(f))
        assert again.ast == f.ast

    def test_precedence_parens(self):
        f = parse("1-(2-3)*4/(5*6)")
        assert parse(serialize(f)).ast == f.ast

    def test_double_negation(self):
        f = parse("--t")
        assert parse(serialize(f)).ast == f.ast

    @pytest.mark.parametrize(
        "text", ["-t^2", "(-t)^2", "t^2^3", "(t^2)^3", "t^-2", "2*t^2/3", "min(t^2,-t)", "-min(t,1)"]
    )
    def test_power_and_min_roundtrip(self, text):
        f = parse(text)
        assert parse(serialize(f)).ast == f.ast


def _expr_trees(variables=("t",)):
    leaves = st.one_of(
        st.floats(min_value=0.001, max_value=9.0).map(lambda v: f"{v:.4f}"),
        st.sampled_from(list(variables)),
    )

    def combine(children):
        op = st.sampled_from(["+", "-", "*"])
        fn = st.sampled_from(["sin", "cos", "abs"])
        return st.one_of(
            st.tuples(children, op, children).map(lambda t: f"({t[0]}{t[1]}{t[2]})"),
            st.tuples(fn, children).map(lambda t: f"{t[0]}({t[1]})"),
            children.map(lambda c: f"-{c}"),
            st.tuples(children, children).map(lambda t: f"min({t[0]},{t[1]})"),
            # a base in [-1, 1] and a small integer exponent stay real and finite
            st.tuples(children, st.integers(0, 3)).map(lambda t: f"sin({t[0]})^{t[1]}"),
        )

    return st.recursive(leaves, combine, max_leaves=12)


class TestProperties:
    @given(text=_expr_trees())
    @settings(max_examples=120, deadline=None)
    def test_roundtrip_random_trees(self, text):
        f = parse(text)
        assert parse(serialize(f)).ast == f.ast

    @given(text=_expr_trees(), t=st.floats(min_value=0.0, max_value=50.0))
    @settings(max_examples=120, deadline=None)
    def test_division_free_trees_evaluate_finite(self, text, t):
        value = parse(text)(t)
        assert math.isfinite(value)


class TestBounds:
    def test_sin_plus_cos_analytic(self):
        b = bounds(parse("0.141+0.02*(sin(t)+cos(t))"))
        assert b.method == "analytic"
        assert b.inf == pytest.approx(0.141 - 0.02 * math.sqrt(2), abs=1e-15)
        assert b.sup == pytest.approx(0.141 + 0.02 * math.sqrt(2), abs=1e-15)

    def test_single_sinusoid_analytic(self):
        b = bounds(parse("0.3+0.1*sin(4*t)"))
        assert b.method == "analytic"
        assert (b.inf, b.sup) == (pytest.approx(0.2), pytest.approx(0.4))

    def test_negated_sinusoid(self):
        b = bounds(parse("0.5-0.2*cos(3*t)"))
        assert b.method == "analytic"
        assert (b.inf, b.sup) == (pytest.approx(0.3), pytest.approx(0.7))

    def test_constant(self):
        b = bounds(parse("0.01"))
        assert (b.inf, b.sup) == (0.01, 0.01)

    def test_grid_saturating(self):
        b = bounds(parse("1+t/(1+t)"), scan_horizon=1e4)
        assert b.method == "grid"
        assert b.inf == 1.0
        assert b.sup >= 1.999

    def test_grid_log_abs(self):
        b = bounds(parse("1+ln(1+abs(sin(t)))"), scan_horizon=100.0, grid_points=100_001)
        assert b.method == "grid"
        assert b.inf == 1.0
        assert b.sup == pytest.approx(1.0 + math.log(2.0), abs=1e-4)

    def test_mixed_frequencies_fall_back_to_grid(self):
        assert bounds(parse("sin(2*t)+cos(3*t)"), scan_horizon=50.0).method == "grid"

    def test_grid_matches_analytic_over_one_period(self):
        f = parse("0.8+0.04*cos(7*t)")
        analytic = bounds(f)
        grid = bounds(f, scan_horizon=2 * math.pi / 7, grid_points=10_001)
        # force the grid path through an equivalent tree the matcher skips
        assert analytic.method == "analytic"
        assert grid.method == "analytic"  # matcher catches it first
        ts = np.linspace(0.0, 2 * math.pi / 7, 10_001)
        vals = f(ts)
        assert abs(vals.min() - analytic.inf) < 1e-6
        assert abs(vals.max() - analytic.sup) < 1e-6

    def test_invalid_args(self):
        f = parse("t")
        with pytest.raises(ValueError):
            bounds(f, scan_horizon=0.0)
        with pytest.raises(ValueError):
            bounds(f, grid_points=1)

    def test_inf_le_sup_enforced(self):
        with pytest.raises(ValueError):
            BoundsPair(2.0, 1.0)
