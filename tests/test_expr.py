import hashlib
import importlib
import math
import operator
import pickle
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ussir
from ussir.expr import (
    MAX_DEPTH,
    SCAN_HORIZON,
    SCAN_POINTS,
    BinOp,
    BoundsPair,
    Call,
    EvalDomainError,
    Neg,
    Num,
    ParseError,
    Var,
    _enclosure,
    _outward,
    bounds,
    compile_program,
    evaluate,
    free_names,
    parse,
    serialize,
)
from ussir.scenario import bundled_scenario_path, load_scenario

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
        assert evaluate(parse("0.3+0.1*sin(4*t)"), t=0.0) == pytest.approx(0.3, abs=1e-15)

    def test_rational(self):
        assert evaluate(parse("1+t/(1+t)"), t=1.0) == pytest.approx(1.5, abs=1e-15)

    def test_log_abs(self):
        f = parse("1+ln(1+abs(sin(t)))")
        assert evaluate(f, t=math.pi / 2) == pytest.approx(1.0 + math.log(2.0), abs=1e-12)

    def test_cos_at_zero(self):
        assert evaluate(parse("0.8+0.04*cos(7*t)"), t=0.0) == pytest.approx(0.84, abs=1e-15)

    def test_constant(self):
        f = parse("5")
        assert evaluate(f, t=0.0) == 5.0
        assert evaluate(f, t=123.4) == 5.0

    def test_sin_three_half_pi(self):
        f = parse("0.15+0.07*sin(t)")
        assert evaluate(f, t=3 * math.pi / 2) == pytest.approx(0.08, abs=1e-12)

    def test_eval_is_pure(self):
        f = parse("0.3+0.1*sin(4*t)")
        assert evaluate(f, t=1.2345) == evaluate(f, t=1.2345)

    def test_vectorized_eval(self):
        f = parse("2*t")
        out = evaluate(f, t=np.array([0.0, 1.0, 2.5]))
        assert np.array_equal(out, [0.0, 2.0, 5.0])

    def test_constant_broadcasts_on_arrays(self):
        f = parse("0.25")
        out = evaluate(f, t=np.linspace(0, 1, 7))
        assert out.shape == (7,)
        assert np.all(out == 0.25)

    def test_unary_minus(self):
        assert evaluate(parse("-t+3"), t=1.0) == 2.0

    def test_whitespace_insignificant(self):
        assert evaluate(parse(" 0.3 + 0.1 * sin( 4 * t ) "), t=0.0) == evaluate(parse("0.3+0.1*sin(4*t)"), t=0.0)

    def test_power(self):
        assert evaluate(parse("t^2"), t=3.0) == 9.0
        assert evaluate(parse("2^t"), t=np.array([0.0, 3.0])).tolist() == [1.0, 8.0]

    def test_power_binds_tighter_than_unary_minus(self):
        assert evaluate(parse("-t^2"), t=3.0) == -9.0
        assert evaluate(parse("(-t)^2"), t=3.0) == 9.0

    def test_power_is_right_associative(self):
        assert evaluate(parse("2^3^2"), t=0.0) == 512.0
        assert evaluate(parse("2^-1"), t=0.0) == 0.5

    def test_a_parsed_coefficient_is_its_tree(self):
        sin4t = Call("sin", BinOp("*", Num(4.0), Var("t")))
        assert parse("0.3+0.1*sin(4*t)") == BinOp("+", Num(0.3), BinOp("*", Num(0.1), sin4t))
        assert len(ussir.__all__) == 24

    @pytest.mark.parametrize(
        "text,tree", [("٣", Num(3.0)), ("2E-1", Num(0.2)), (".5", Num(0.5)), ("+t", Var("t"))],
        ids=["arabic-indic-digit", "upper-exponent", "leading-point", "unary-plus"],
    )
    def test_numerals_and_signs(self, text, tree):
        assert parse(text) == tree

    def test_min(self):
        f = parse("min(t, 1)")
        assert evaluate(f, t=0.25) == 0.25
        assert evaluate(f, t=np.array([0.5, 2.0])).tolist() == [0.5, 1.0]
        assert evaluate(parse("min(2*t, t+1)*3"), t=2.0) == 9.0


class TestExports:
    """``ussir`` imports each exported name's module on its first access."""

    HOMES = {
        "expr": "BoundsPair bounds parse serialize",
        "levy": "LevyMeasure",
        "models": "ModelSpec build_custom build_named check_conservation check_positivity_ratios",
        "integrator": "Trajectory convergence_probe simulate",
        "criteria": "CriteriaReport generic_alpha_estimate report_for_model",
        "montecarlo": "EnsembleStats run_ensemble verdict",
        "scenario": "ScenarioConfig ScenarioError SimConfig build_model load_scenario",
    }

    def test_every_lazy_export_is_its_modules_object(self):
        homes = {name: module for module, names in self.HOMES.items() for name in names.split()}
        assert ussir.__all__ == sorted(homes) and len(homes) == 24
        star: dict = {}
        exec("from ussir import *", star)
        for name, module in homes.items():
            home = importlib.import_module(f"ussir.{module}")
            assert getattr(ussir, name) is getattr(home, name) is star[name], name
            assert getattr(ussir, module) is home
        assert set(star) - {"__builtins__"} == set(homes)
        assert {*homes, "__version__"} <= set(dir(ussir))
        with pytest.raises(AttributeError, match="module 'ussir' has no attribute 'nonesuch'"):
            ussir.nonesuch


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

    @pytest.mark.parametrize(
        "text,message,position",
        [
            ("²", "bad numeral '²'", 0),  # a digit to str.isdigit, but not to float
            ("1e", "unknown name 'e'", 1),  # an exponent without digits is not part of the numeral
            ("1e+", "unknown name 'e'", 1),
            ("1.2.3", "bad numeral '1.2.3'", 0),
            (".", "bad numeral '.'", 0),
            ("_t", "unknown name '_t'", 0),
        ],
    )
    def test_numeral_and_name_errors(self, text, message, position):
        with pytest.raises(ParseError, match=re.escape(message)) as err:
            parse(text)
        assert err.value.position == position

    @pytest.mark.parametrize("text", ["(0-1)^0.5", "0^(0-1)", "(t-2)^0.5", "(t-1)^(0-2)"])
    def test_power_domain(self, text):
        with pytest.raises(EvalDomainError, match="power"):
            evaluate(parse(text), t=1.0)

    def test_power_domain_allows_integer_exponents_of_negative_bases(self):
        assert evaluate(parse("(t-2)^3"), t=1.0) == -1.0
        assert evaluate(parse("0^0"), t=0.0) == 1.0

    def test_ln_domain(self):
        f = parse("ln(t-1)")
        with pytest.raises(EvalDomainError):
            evaluate(f, t=0.5)

    def test_division_by_zero(self):
        f = parse("1/(t-1)")
        with pytest.raises(EvalDomainError):
            evaluate(f, t=1.0)

    def test_missing_variable(self):
        f = parse("x+u", variables=("x", "u"))
        with pytest.raises(EvalDomainError):
            evaluate(f, x=1.0)

    @pytest.mark.parametrize(
        "text,position",
        [
            ("(" * 200 + "t" + ")" * 200, MAX_DEPTH),
            ("-" * 900 + "t", MAX_DEPTH),
            ("sin(" * 150 + "t" + ")" * 150, 4 * MAX_DEPTH),
            ("t" + "+t" * 200, 2 * MAX_DEPTH - 1),  # the operator that makes the sum too high
            ("t" + "^t" * 200, 2 * MAX_DEPTH),
            ("min(" * MAX_DEPTH + "t" + ",1)" * MAX_DEPTH, 4 * MAX_DEPTH),  # the first refused depth
            ("t" + "*-t" * (MAX_DEPTH - 1), 3 * MAX_DEPTH - 5),  # t*-t is 3 high, each *-t after it one more
        ],
        ids=["parentheses", "unary-minus", "calls", "left-sum", "right-power", "min", "product-of-negations"],
    )
    def test_nesting_deeper_than_max_depth_refused(self, text, position):
        with pytest.raises(ParseError, match=f"nests deeper than {MAX_DEPTH}") as err:
            parse(text)
        assert err.value.position == position

    @pytest.mark.parametrize(
        "text",
        [
            "(" * (MAX_DEPTH - 1) + "t" + ")" * (MAX_DEPTH - 1),
            "-" * (MAX_DEPTH - 1) + "t",
            "t" + "+t" * (MAX_DEPTH - 1),
            "min(" * (MAX_DEPTH - 1) + "t" + ",1)" * (MAX_DEPTH - 1),
            "t" + "*-1" * (MAX_DEPTH - 2),  # as high as t*-t*...*-t, whose bounds would overflow
        ],
        ids=["parentheses", "unary-minus", "left-sum", "min", "product-of-negations"],
    )
    def test_deepest_accepted_trees_pass_every_recursive_pass(self, text):
        f = parse(text)
        assert parse(serialize(f)) == f
        assert {f: 1}[f] == 1  # hashing recurses too
        assert math.isfinite(bounds(f).sup)
        assert compile_program([f], (1,))({"t": 1.0}, np.ones((2, 3))).shape == (2, 1)

    @pytest.mark.parametrize("text,position", [("1e400", 0), ("sin(1e400)", 4), ("t*-1e999", 3)])
    def test_overflowing_numeral_refused(self, text, position):
        with pytest.raises(ParseError, match="overflows") as err:
            parse(text)
        assert err.value.position == position

    @pytest.mark.parametrize(
        "text,where",
        [("1e300*1e300", "'1e+300*1e+300'"), ("t+10^400", "'10.0^400.0'"), ("sin(1e300*1e300)", "'1e+300*1e+300'")],
    )
    def test_non_finite_folded_constant_refused(self, text, where):
        f = parse(text)
        with pytest.raises(EvalDomainError, match=f"{re.escape(where)} folds to the non-finite constant inf"):
            evaluate(f, t=1.0)
        with pytest.raises(EvalDomainError, match="non-finite constant"):
            bounds(f)

    def test_non_finite_model_constant_refused(self):
        with pytest.raises(EvalDomainError, match="'cap' folds to the non-finite constant nan"):
            compile_program([parse("min(t,cap)", ("t", "cap"))], (), {"cap": math.nan})


class TestSerialize:
    @pytest.mark.parametrize("text", TABLE_EXPRESSIONS)
    def test_roundtrip_table_expressions(self, text):
        f = parse(text)
        again = parse(serialize(f))
        assert again == f

    def test_precedence_parens(self):
        f = parse("1-(2-3)*4/(5*6)")
        assert parse(serialize(f)) == f

    def test_double_negation(self):
        f = parse("--t")
        assert parse(serialize(f)) == f

    @pytest.mark.parametrize(
        "text", ["-t^2", "(-t)^2", "t^2^3", "(t^2)^3", "t^-2", "2*t^2/3", "min(t^2,-t)", "-min(t,1)"]
    )
    def test_power_and_min_roundtrip(self, text):
        f = parse(text)
        assert parse(serialize(f)) == f


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
        assert parse(serialize(f)) == f

    @given(text=_expr_trees(), t=st.floats(min_value=0.0, max_value=50.0))
    @settings(max_examples=120, deadline=None)
    def test_division_free_trees_evaluate_finite(self, text, t):
        value = evaluate(parse(text), t=t)
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
        b = bounds(parse("1+t/(1+t)"))
        assert b.method == "grid"
        assert b.inf == 1.0
        assert b.sup >= 1.999

    def test_grid_log_abs(self):
        b = bounds(parse("1+ln(1+abs(sin(t)))"))
        assert b.method == "grid"
        assert b.inf == 1.0
        assert b.sup == pytest.approx(1.0 + math.log(2.0), abs=1e-4)

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("0.3+0.1*sin(-(4*t))", (0.19999999999999998, 0.4)),
            ("0.3+0.1*sin(-t)", (0.19999999999999998, 0.4)),
            ("0.3+0.1*cos(t*7)", (0.19999999999999998, 0.4)),
            ("0.3+sin(t)*0.1", (0.19999999999999998, 0.4)),
            ("0.3+(0.2*sin(t))/2", (0.19999999999999998, 0.4)),
            ("2+cos(0*t)", (3.0, 3.0)),
            ("2+0.5*sin(0*t)", (2.0, 2.0)),
            ("0.3+0.1*sin(t/2)", (0.19999999999999998, 0.4)),
            ("0.3+0.1*sin(2*(3*t))", (0.19999999999999998, 0.4)),
            ("0.3+0.1*cos(t*2*3)", (0.19999999999999998, 0.4)),
            ("0.3+0.1*sin(-(t/4))", (0.19999999999999998, 0.4)),
            ("0.3+0.1*sin(t)*cos(t)", "grid"),
            ("0.5+0.1*sin(t*t)", "grid"),
            ("0.3+0.1*sin(2+t)", "grid"),
            ("1+t", "grid"),
            ("t*0+1", "grid"),
            ("1+sin(t)/0", EvalDomainError),
        ],
    )
    def test_sinusoid_matcher_branches(self, text, expected):
        # negated and reversed frequencies, a constant on either side of a
        # product, a constant divisor, zero frequencies, constant factors and
        # divisors inside the argument, and what falls through: a phase, a
        # product of t, and t outside a sinusoid, however it is scaled
        tree = parse(text)
        if expected is EvalDomainError:
            with pytest.raises(EvalDomainError, match=re.escape("division by zero in 'sin(t)/0.0'")):
                bounds(tree)
            return
        b = bounds(tree)
        if expected == "grid":
            assert b.method == "grid"
            return
        assert (b.inf, b.sup, b.method) == (*expected, "analytic")
        vals = evaluate(tree, t=np.linspace(0.0, 20.0, 2001))
        assert np.all((b.inf <= vals) & (vals <= b.sup))

    def test_bundled_sinusoids_compile_nothing(self, scenario, monkeypatch):
        # the walk reads each constant from its leaf instead of compiling it
        trees = {tree for name in ussir.scenario.bundled_scenarios() for tree in scenario(name)[1].params.values()}
        calls = []
        monkeypatch.setattr(ussir.expr, "compile_program", lambda *a, **k: calls.append(a) or compile_program(*a, **k))
        analytic = set()
        for tree in trees:
            before = len(calls)
            if bounds(tree).method == "analytic":
                assert len(calls) == before, serialize(tree)
                analytic.add(tree)
        assert (len(trees), len(analytic)) == (38, 36)

    @pytest.mark.parametrize("text", ["1+t/(1+t)", "1+ln(1+abs(sin(t)))", "sin(t)^2", "abs(sin(t))"])
    def test_sliced_scan_equals_whole_grid(self, text):
        tree = parse(text)
        vals = evaluate(tree, t=np.linspace(0.0, SCAN_HORIZON, SCAN_POINTS))
        assert bounds(tree) == BoundsPair(vals.min(), vals.max(), "grid")

    def test_sliced_scan_keeps_nan(self):
        # the values turn to NaN after t ~ 1800, in a later slice than the first
        with pytest.raises(EvalDomainError, match=re.escape("non-finite bounds (nan, nan)")):
            bounds(parse("(t*1e301)*1e4-(t*1e301)*1e4"))

    def test_sliced_scan_reaches_the_last_point(self):
        with pytest.raises(EvalDomainError, match=re.escape("ln of non-positive argument in 'ln(2.0-t/5000.0)'")):
            bounds(parse("1+ln(2-t/5000)"))

    def test_sliced_scan_memory(self):
        # a few 1 MiB temporaries per slice, and no 8,000,008-byte grid
        tree = parse("1+t/(1+t)")
        tracemalloc.start()
        try:
            bounds(tree)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20

    def test_mixed_frequencies_fall_back_to_grid(self):
        assert bounds(parse("sin(2*t)+cos(3*t)")).method == "grid"

    def test_grid_matches_analytic_over_one_period(self):
        f = parse("0.8+0.04*cos(7*t)")
        analytic = bounds(f)
        assert analytic.method == "analytic"
        ts = np.linspace(0.0, 2 * math.pi / 7, 10_001)
        vals = evaluate(f, t=ts)
        assert abs(vals.min() - analytic.inf) < 1e-6
        assert abs(vals.max() - analytic.sup) < 1e-6

    def test_inf_le_sup_enforced(self):
        with pytest.raises(ValueError):
            BoundsPair(2.0, 1.0)


class TestEnclosure:
    """Interval bounds over the scan's interval [0, SCAN_HORIZON], rounded
    outward only where an operation is inexact."""

    def test_bundled_scanned_coefficients_keep_exact_ends(self):
        # exact ends prove the exponent infimum 1 without the scan
        assert _enclosure(parse("1+t/(1+t)")) == (1.0, 1.0 + SCAN_HORIZON)
        lo, hi = _enclosure(parse("1+ln(1+abs(sin(t)))"))
        assert lo == 1.0 and 1.0 + math.log(2.0) < hi < 1.0 + math.log(2.0) + 1e-15

    @pytest.mark.parametrize(
        "text, exact",
        [("0.1+0.2", Fraction(0.1) + Fraction(0.2)), ("0.1*3", Fraction(0.1) * 3), ("1/3", Fraction(1, 3)),
         ("0.3-0.1", Fraction(0.3) - Fraction(0.1)), ("0.5+0.25", Fraction(3, 4))],
    )
    def test_inexact_ends_round_outward_by_one_ulp(self, text, exact):
        value = evaluate(parse(text), t=0.0)
        if Fraction(value) == exact:  # 0.3-0.1 is exact (Sterbenz), as is 0.5+0.25
            expected = (value, value)
        elif exact > value:
            expected = (value, math.nextafter(value, math.inf))
        else:
            expected = (math.nextafter(value, -math.inf), value)
        assert _enclosure(parse(text)) == expected

    @pytest.mark.parametrize(
        "text, expected",
        [("-t", (-SCAN_HORIZON, 0.0)), ("abs(t-2)", (0.0, SCAN_HORIZON - 2)), ("abs(-1-t)", (1.0, SCAN_HORIZON + 1)),
         ("min(t,3)", (0.0, 3.0)), ("cos(t/1e9)", (-1.0, 1.0)), ("ln(1+0*t)", (0.0, 0.0)), ("0.25*t", (0.0, 2500.0))],
    )
    def test_exact_operations(self, text, expected):
        assert _enclosure(parse(text)) == expected

    @pytest.mark.parametrize(
        "text",
        ["1+ln(2-t/5000)", "ln(t)", "1/(t-1)", "1/(1-t/1e4)", "t^2", "2^0.5", "1e300*t*1e10", "1/sin(t)", "ln(-1)"],
    )
    def test_inconclusive(self, text):
        # an ln argument reaching 0, a divisor spanning 0, a power, an end that overflows
        assert _enclosure(parse(text)) is None

    @staticmethod
    def _fraction_ends(op, x, y):
        """``x op y`` rounded down and up, the side of the rounding decided on ``Fraction`` values."""
        fn = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv, "min": min}[op]
        if not math.isfinite(v := fn(x, y)):
            return None
        exact = fn(Fraction(x), Fraction(y))
        return (v if Fraction(v) <= exact else math.nextafter(v, -math.inf),
                v if Fraction(v) >= exact else math.nextafter(v, math.inf))

    @pytest.mark.parametrize("op", ["+", "-", "*", "/", "min"])
    def test_integer_ratios_round_as_fractions_do(self, op):
        rng = np.random.default_rng(31)
        n = 21_000
        bits = rng.integers(0, 2**64, 4 * n, dtype=np.uint64).view(np.float64)
        pools = {
            "uniform": rng.uniform(-10.0, 10.0, n),
            "bits": bits[np.isfinite(bits)][:n],
            "subnormal": rng.integers(1, 2**52, n) * 5e-324 * rng.choice([-1.0, 1.0], n),
            "zero": np.array([0.0, -0.0] * (n // 2)),
            "power of two": np.ldexp(rng.choice([-1.0, 1.0], n), rng.integers(-1074, 1024, n)),
            "mixed": rng.uniform(1.0, 2.0, n) * np.exp2(rng.integers(-60, 61, n)) * rng.choice([-1.0, 1.0], n),
        }
        names, compared = list(pools), 0
        for kind, xs in pools.items():  # each pool against a pool drawn at random, on either side
            others = np.choose(rng.integers(0, len(names), n), [pools[other] for other in names])
            swap = rng.random(n) < 0.5
            for x, y in zip(np.where(swap, others, xs).tolist(), np.where(swap, xs, others).tolist()):
                if op == "/" and y == 0.0:
                    continue
                assert _outward(op, x, y) == self._fraction_ends(op, x, y), (kind, x.hex(), y.hex())
                compared += 1
        assert compared >= 100_000

    def test_bundled_time_coefficients_enclose_as_before(self):
        # each [params] text of table1..7 with its enclosure's ends, as the Fraction-based rounding gave them
        lines = [f"{text} {' '.join(end.hex() for end in _enclosure(parse(text)))}"
                 for i in range(1, 8) for text in load_scenario(bundled_scenario_path(f"table{i}")).params.values()]
        assert len(lines) == 49
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == "99d4237db02e3edbed69ee1f6fe6834724bed383c2d0f967809521ea896fd82d"


class TestSharedTrees:
    TEXT = "0.3*x*y/(1+sin(4*t))-min(x,cap)"
    NAMES = ("t", "x", "y", "cap")

    def test_equal_trees_parsed_apart_hash_and_compare_equal(self):
        a, b = parse(self.TEXT, self.NAMES), parse(self.TEXT, self.NAMES)
        assert a is not b and a == b and hash(a) == hash(b)
        assert {a: 1}[b] == 1 and free_names(a) == free_names(b) == {"t", "x", "y", "cap"}
        assert a != parse(self.TEXT.replace("0.3", "0.4"), self.NAMES)

    def test_a_node_hashes_and_names_once(self):
        class Counted(float):  # a leaf value that counts how often it is hashed
            calls = 0

            def __hash__(self):
                Counted.calls += 1
                return float.__hash__(self)

        tree = BinOp("+", Num(Counted(0.5)), Neg(Call("sin", BinOp("*", Num(Counted(4.0)), Var("t")))))
        first = hash(tree)
        assert Counted.calls == 2
        assert hash(tree) == first and {tree: 1}[tree] == 1 and hash(tree.right) == hash(tree.right)
        assert Counted.calls == 2  # no node hashes its subtree again
        assert free_names(tree) is free_names(tree) == {"t"}

    def test_a_pickle_carries_only_the_fields(self):
        tree = parse(self.TEXT, self.NAMES)
        hash(tree), free_names(tree)
        again = pickle.loads(pickle.dumps(tree))
        assert set(vars(again)) == set(vars(again.right)) == {"op", "left", "right"}  # min(x,cap)
        assert again == tree and hash(again) == hash(tree)

    def test_signed_zeros_are_different_numerals(self):
        # -0.0 == 0.0, but each folds to a zero of its own sign: the program memo keys a tree by its numerals
        assert Num(-0.0) != Num(0.0) and Num(-0.0) == Num(-0.0) and hash(Num(-0.0)) == hash(Num(-0.0))
        zeros = [compile_program([Num(value)])({}) for value in (0.0, -0.0)]
        assert [math.copysign(1.0, zero) for zero in zeros] == [1.0, -1.0]


class TestProgramMemo:
    TREES = [parse("k*x-min(y,k)", ("x", "y", "k"))]

    def test_equal_input_returns_one_program(self):
        program = compile_program(self.TREES, (1,), {"k": 0.5})
        assert compile_program([parse("k*x-min(y,k)", ("x", "y", "k"))], (1,), {"k": 0.5}) is program
        assert compile_program(self.TREES, (1,), {"k": np.float64(0.5)}) is program

    def test_every_input_keys_the_program(self):
        S = np.array([[2.0, 3.0, 0.0]])
        base = compile_program(self.TREES, (1,), {"k": 0.5})
        others = {
            "constant": compile_program(self.TREES, (1,), {"k": 0.25}),
            "another constant": compile_program(self.TREES, (1,), {"k": 0.5, "j": 1.0}),
            "signed zero": compile_program(self.TREES, (1,), {"k": -0.0}),
            "shape": compile_program(self.TREES, (1, 1), {"k": 0.5}),
            "mark": compile_program(self.TREES, (1,), {"k": 0.5}, mark=True),
            "unchecked": compile_program(self.TREES, (1,), {"k": 0.5}, checked=False),
        }
        assert len({id(base), *map(id, others.values())}) == 7
        assert base({}, S).tolist() == [[0.5]] and others["constant"]({}, S).tolist() == [[0.25]]
        assert math.copysign(1.0, compile_program([parse("k", ("k",))], constants={"k": -0.0})({})) == -1.0

    def test_refused_fold_raises_on_every_call(self):
        tree, before = parse("t+k*1e300", ("t", "k")), ussir.expr._emit.cache_info().currsize
        for _ in range(2):
            with pytest.raises(EvalDomainError, match="non-finite constant inf"):
                compile_program([tree], constants={"k": 1e10})
        assert ussir.expr._emit.cache_info().currsize == before
        assert compile_program([tree], constants={"k": 1.0})({"t": 1.0}) == 1.0 + 1e300
