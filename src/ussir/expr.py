"""Parser and evaluator for time-dependent coefficient expressions.

The grammar is deliberately tiny: numerals, named variables (``t`` by
default), ``+ - * /``, parentheses, and the functions ``sin``, ``cos``,
``ln``, ``abs``.  Angles are radians.  Anything richer is rejected at parse
time so that a coefficient written down in a scenario file evaluates the
same way everywhere, bit for bit.

Besides evaluation, this module extracts infimum/supremum of a parsed
function over [0, oo).  Expressions that are affine in sinusoids of a
single frequency (``a + b*sin(w*t)``, ``a + b*cos(w*t)``,
``a + b*(sin(t)+cos(t))``) get exact analytic bounds; everything else is
scanned on a dense grid over a finite horizon and flagged as such.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "BoundsPair",
    "EvalDomainError",
    "ExpressionError",
    "ParseError",
    "TimeFunction",
    "bounds",
    "parse",
    "serialize",
]

_FUNCTIONS = ("sin", "cos", "ln", "abs")


class ExpressionError(ValueError):
    """Base class for expression parsing/evaluation failures."""


class ParseError(ExpressionError):
    """Raised on malformed input; carries the 0-based offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvalDomainError(ExpressionError):
    """Raised when evaluation leaves the real domain (ln of non-positive
    argument, division by zero)."""


# --- AST -------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    func: str  # one of sin cos ln abs
    arg: "Node"


Node = Union[Num, Var, Neg, BinOp, Call]


# --- tokenizer / parser ----------------------------------------------------

def _tokenize(text: str, variables: tuple[str, ...]) -> list[tuple[str, object, int]]:
    tokens: list[tuple[str, object, int]] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "+-*/()":
            tokens.append((c, c, i))
            i += 1
            continue
        if c.isdigit() or c == ".":
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            lexeme = text[i:j]
            try:
                value = float(lexeme)
            except ValueError:
                raise ParseError(f"bad numeral {lexeme!r}", i) from None
            tokens.append(("num", value, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            name = text[i:j]
            if name in _FUNCTIONS:
                tokens.append(("func", name, i))
            elif name in variables:
                tokens.append(("var", name, i))
            else:
                raise ParseError(
                    f"unknown name {name!r}; allowed: variables {variables}, "
                    f"functions {_FUNCTIONS}",
                    i,
                )
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, object, int]]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> tuple[str, object, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, object, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> tuple[str, object, int]:
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse_expr(self) -> Node:
        node = self.parse_term()
        while self.peek()[0] in ("+", "-"):
            op, _, _ = self.advance()
            node = BinOp(op, node, self.parse_term())
        return node

    def parse_term(self) -> Node:
        node = self.parse_unary()
        while self.peek()[0] in ("*", "/"):
            op, _, _ = self.advance()
            node = BinOp(op, node, self.parse_unary())
        return node

    def parse_unary(self) -> Node:
        if self.peek()[0] == "-":
            self.advance()
            return Neg(self.parse_unary())
        if self.peek()[0] == "+":
            self.advance()
            return self.parse_unary()
        return self.parse_atom()

    def parse_atom(self) -> Node:
        kind, value, pos = self.advance()
        if kind == "num":
            return Num(float(value))
        if kind == "var":
            return Var(str(value))
        if kind == "func":
            self.expect("(")
            arg = self.parse_expr()
            self.expect(")")
            return Call(str(value), arg)
        if kind == "(":
            node = self.parse_expr()
            self.expect(")")
            return node
        raise ParseError(f"unexpected token {value!r}", pos)


@dataclass(frozen=True)
class TimeFunction:
    """A parsed coefficient expression.  Immutable; safe to share between
    threads and evaluate concurrently."""

    ast: Node
    source_text: str
    variables: tuple[str, ...] = ("t",)

    def __call__(self, t):
        return evaluate(self, t)

    def serialize(self) -> str:
        return serialize(self)


def parse(text: str, variables: tuple[str, ...] = ("t",)) -> TimeFunction:
    """Parse ``text`` into a :class:`TimeFunction`.

    Raises :class:`ParseError` (with position) on malformed input.  The
    default grammar knows the single variable ``t``; generic-model
    coefficients pass ``variables=("t", "x", "y", "z", "u")``.
    """
    parser = _Parser(_tokenize(text, variables))
    node = parser.parse_expr()
    end = parser.advance()
    if end[0] != "end":
        raise ParseError(f"trailing input {end[1]!r}", end[2])
    return TimeFunction(ast=node, source_text=text, variables=variables)


# --- evaluation ------------------------------------------------------------

def _eval_node(node: Node, env: dict):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Neg):
        return -_eval_node(node.operand, env)
    if isinstance(node, BinOp):
        left = _eval_node(node.left, env)
        right = _eval_node(node.right, env)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if np.any(right == 0):
            raise EvalDomainError(f"division by zero in {serialize_node(node)!r}")
        return left / right
    if isinstance(node, Call):
        arg = _eval_node(node.arg, env)
        if node.func == "sin":
            return np.sin(arg)
        if node.func == "cos":
            return np.cos(arg)
        if node.func == "abs":
            return np.abs(arg)
        # ln
        if np.any(arg <= 0):
            raise EvalDomainError(f"ln of non-positive argument in {serialize_node(node)!r}")
        return np.log(arg)
    raise TypeError(f"not an expression node: {node!r}")


def evaluate(f: TimeFunction, t, **extra):
    """Evaluate ``f`` at ``t`` (scalar or ndarray).

    Scalars come back as plain floats; arrays element-wise.  Pure: the same
    inputs always produce bit-identical output.  Extra variables for
    multi-variable functions are passed by keyword.
    """
    env = {f.variables[0]: t} if f.variables else {}
    env.update(extra)
    missing = [v for v in f.variables if v not in env]
    if missing:
        raise EvalDomainError(f"missing variable values for {missing}")
    out = _eval_node(f.ast, env)
    target = np.broadcast_shapes(np.shape(t), *(np.shape(v) for v in extra.values()))
    if target == ():
        return float(out)
    if np.ndim(out) == 0:
        return np.full(target, float(out))
    return out


# --- canonical serialization ------------------------------------------------

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}


def serialize_node(node: Node) -> str:
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        inner = serialize_node(node.operand)
        if isinstance(node.operand, BinOp):
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Call):
        return f"{node.func}({serialize_node(node.arg)})"
    if isinstance(node, BinOp):
        prec = _PRECEDENCE[node.op]
        left = serialize_node(node.left)
        if isinstance(node.left, BinOp) and _PRECEDENCE[node.left.op] < prec:
            left = f"({left})"
        right = serialize_node(node.right)
        if isinstance(node.right, (BinOp, Neg)):
            rp = _PRECEDENCE[node.right.op] if isinstance(node.right, BinOp) else 0
            # -, / are left-associative; parenthesize equal precedence on the right
            if rp <= prec:
                right = f"({right})"
        return f"{left}{node.op}{right}"
    raise TypeError(f"not an expression node: {node!r}")


def serialize(f: TimeFunction) -> str:
    """Canonical infix text; reparsing it reproduces the identical tree."""
    return serialize_node(f.ast)


# --- bounds over [0, oo) ----------------------------------------------------

@dataclass(frozen=True)
class BoundsPair:
    """Infimum and supremum of a coefficient over [0, oo).

    ``method`` records how they were obtained: "analytic" bounds are exact;
    "grid" bounds come from a dense scan of [0, scan_horizon] and are only
    as sharp as the scan (inner approximation of the range: grid inf >= true
    inf, grid sup <= true sup).
    """

    inf: float
    sup: float
    method: str = "analytic"

    def __post_init__(self):
        if not self.inf <= self.sup:
            raise ValueError(f"inf {self.inf} exceeds sup {self.sup}")
        if self.method not in ("analytic", "grid"):
            raise ValueError(f"unknown bounds method {self.method!r}")

    @classmethod
    def exact(cls, value: float) -> "BoundsPair":
        return cls(value, value, "analytic")


def free_names(node: Node) -> frozenset[str]:
    """The variable names an expression tree mentions."""
    if isinstance(node, Num):
        return frozenset()
    if isinstance(node, Var):
        return frozenset((node.name,))
    if isinstance(node, Neg):
        return free_names(node.operand)
    if isinstance(node, BinOp):
        return free_names(node.left) | free_names(node.right)
    return free_names(node.arg)


def _const_value(node: Node) -> float:
    return float(_eval_node(node, {}))


def _frequency_of(node: Node, varname: str):
    """Angular frequency w if ``node`` is w*t / t*w / t / -(...), else None."""
    if isinstance(node, Var) and node.name == varname:
        return 1.0
    if isinstance(node, Neg):
        w = _frequency_of(node.operand, varname)
        return None if w is None else -w
    if isinstance(node, BinOp) and node.op == "*":
        if not free_names(node.left) and isinstance(node.right, Var) and node.right.name == varname:
            return _const_value(node.left)
        if not free_names(node.right) and isinstance(node.left, Var) and node.left.name == varname:
            return _const_value(node.right)
    return None


def _sinusoid_terms(node: Node, varname: str):
    """Decompose into [(coeff, None | (func, w))] or None if not affine in
    sinusoids of the time variable."""
    if not free_names(node):
        return [(_const_value(node), None)]
    if isinstance(node, Neg):
        inner = _sinusoid_terms(node.operand, varname)
        return None if inner is None else [(-c, osc) for c, osc in inner]
    if isinstance(node, BinOp):
        if node.op in ("+", "-"):
            left = _sinusoid_terms(node.left, varname)
            right = _sinusoid_terms(node.right, varname)
            if left is None or right is None:
                return None
            if node.op == "-":
                right = [(-c, osc) for c, osc in right]
            return left + right
        if node.op == "*":
            if not free_names(node.left):
                inner = _sinusoid_terms(node.right, varname)
                scale = _const_value(node.left)
            elif not free_names(node.right):
                inner = _sinusoid_terms(node.left, varname)
                scale = _const_value(node.right)
            else:
                return None
            return None if inner is None else [(scale * c, osc) for c, osc in inner]
        if node.op == "/" and not free_names(node.right):
            denom = _const_value(node.right)
            if denom == 0:
                return None
            inner = _sinusoid_terms(node.left, varname)
            return None if inner is None else [(c / denom, osc) for c, osc in inner]
        return None
    if isinstance(node, Call) and node.func in ("sin", "cos"):
        w = _frequency_of(node.arg, varname)
        if w is None:
            return None
        return [(1.0, (node.func, w))]
    return None


def _analytic_bounds(f: TimeFunction):
    terms = _sinusoid_terms(f.ast, f.variables[0])
    if terms is None:
        return None
    offset = 0.0
    sin_c: dict[float, float] = {}
    cos_c: dict[float, float] = {}
    for coeff, osc in terms:
        if osc is None:
            offset += coeff
            continue
        func, w = osc
        if w == 0.0:
            offset += coeff if func == "cos" else 0.0
            continue
        if func == "sin":
            # sin(-w t) = -sin(w t)
            key, sign = abs(w), (1.0 if w > 0 else -1.0)
            sin_c[key] = sin_c.get(key, 0.0) + sign * coeff
        else:
            cos_c[abs(w)] = cos_c.get(abs(w), 0.0) + coeff
    freqs = {w for w, c in sin_c.items() if c != 0.0} | {w for w, c in cos_c.items() if c != 0.0}
    if not freqs:
        return BoundsPair(offset, offset, "analytic")
    if len(freqs) > 1:
        return None
    w = freqs.pop()
    # b*sin(wt) + c*cos(wt) sweeps [-r, r] with r = hypot(b, c) over [0, oo)
    amp = math.hypot(sin_c.get(w, 0.0), cos_c.get(w, 0.0))
    return BoundsPair(offset - amp, offset + amp, "analytic")


def bounds(f: TimeFunction, scan_horizon: float = 1.0e4, grid_points: int = 1_000_001) -> BoundsPair:
    """Bounds of ``f`` over [0, oo): analytic when the tree matches a
    recognized sinusoid pattern, otherwise a grid scan of [0, scan_horizon].

    Grid bounds on monotone saturating terms report the value at the scan
    horizon, which approaches the limit from inside (one-sided tolerance
    set by the horizon).
    """
    if scan_horizon <= 0:
        raise ValueError("scan_horizon must be positive")
    if grid_points < 2:
        raise ValueError("grid_points must be at least 2")
    analytic = _analytic_bounds(f)
    if analytic is not None:
        return analytic
    ts = np.linspace(0.0, scan_horizon, grid_points)
    vals = np.asarray(evaluate(f, ts), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise EvalDomainError(f"{f.source_text!r} is non-finite on the scan grid")
    return BoundsPair(float(vals.min()), float(vals.max()), "grid")
