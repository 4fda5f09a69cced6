"""Parser, compiler and bounds for coefficient expressions.

The grammar is deliberately tiny: numerals, named variables (``t`` by
default), ``+ - * /``, ``^`` (right-associative, binding tighter than unary
minus: ``-x^2`` is ``-(x^2)``), parentheses, ``sin``, ``cos``, ``ln``,
``abs`` and ``min(a, b)``.  Angles are radians.  Anything richer is rejected
at parse time so that a coefficient written down in a scenario file
evaluates the same way everywhere, bit for bit.  Every evaluation runs a
program compiled by :func:`compile_program`; leaving the reals (division by
zero, ``ln`` of a non-positive value, a non-real power) raises
:class:`EvalDomainError`.

Besides evaluation, this module extracts infimum/supremum of a parsed
function over [0, oo).  Expressions that are affine in sinusoids of a
single frequency (``a + b*sin(w*t)``, ``a + b*cos(w*t)``,
``a + b*(sin(t)+cos(t))``) get exact analytic bounds; everything else is
scanned on a dense grid over a finite horizon and flagged as such.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np

__all__ = [
    "BoundsPair",
    "EvalDomainError",
    "ExpressionError",
    "ParseError",
    "TimeFunction",
    "bounds",
    "compile_program",
    "evaluate",
    "free_names",
    "parse",
    "serialize",
]

_FUNCTIONS = ("sin", "cos", "ln", "abs", "min")


class ExpressionError(ValueError):
    """Base class for expression parsing/evaluation failures."""


class ParseError(ExpressionError):
    """Raised on malformed input; carries the 0-based offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvalDomainError(ExpressionError):
    """Raised when evaluation leaves the real domain (ln of non-positive
    argument, division by zero, negative base with a non-integer exponent,
    zero base with a negative exponent)."""


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
    op: str  # one of + - * / ^ min
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
        if c in "+-*/^(),":
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
        return self.parse_power()

    def parse_power(self) -> Node:
        # the exponent is a unary operand, so ^ is right-associative
        node = self.parse_atom()
        if self.peek()[0] == "^":
            self.advance()
            return BinOp("^", node, self.parse_unary())
        return node

    def parse_atom(self) -> Node:
        kind, value, pos = self.advance()
        if kind == "num":
            return Num(float(value))
        if kind == "var":
            return Var(str(value))
        if kind == "func":
            self.expect("(")
            arg = self.parse_expr()
            if value == "min":
                self.expect(",")
                node = BinOp("min", arg, self.parse_expr())
            else:
                node = Call(str(value), arg)
            self.expect(")")
            return node
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

    @cached_property
    def program(self) -> Callable:
        """``program(env)``: the value for a mapping of variable values."""
        return compile_program([self.ast])

    def __reduce__(self):  # pickle the expression, not its compiled program
        return TimeFunction, (self.ast, self.source_text, self.variables)

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


# --- compilation -------------------------------------------------------------

def _any(mask) -> bool:
    """``np.any`` without its dispatch cost (arrays and scalars)."""
    return bool(mask.any()) if isinstance(mask, np.ndarray) else bool(mask)


def _divide(a, b, where: str):
    if _any(b == 0):
        raise EvalDomainError(f"division by zero in {where!r}")
    return a / b


def _power(a, b, where: str):
    if _any(a <= 0) and _any((a < 0) & (np.floor(b) != b) | (a == 0) & (b < 0)):
        raise EvalDomainError(f"power outside the reals in {where!r}")
    # a Python float base goes through numpy: Python's ** raises on overflow
    return a**b if isinstance(a, (np.ndarray, np.generic)) else np.power(a, b)


def _log(a, where: str):
    if _any(a <= 0):
        raise EvalDomainError(f"ln of non-positive argument in {where!r}")
    return np.log(a)


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _divide, "^": _power, "min": np.minimum}
_CALLS = {"sin": np.sin, "cos": np.cos, "abs": np.abs, "ln": _log}
_CHECKED = (_divide, _power, _log)  # these also take the text of their node


def compile_program(
    trees: Sequence[Node],
    shape: Optional[tuple[int, ...]] = None,
    constants: Optional[Mapping[str, float]] = None,
    mark: bool = False,
) -> Callable:
    """Compile a group of trees into one straight-line numpy function.

    Without ``shape`` the group is one tree and ``program(env)`` returns its
    value, reading every name from the mapping ``env``.  With ``shape``,
    ``program(env, S)`` (``program(env, S, u)`` when ``mark``) reads
    ``x, y, z`` from the columns of the state block ``S`` (..., 3), ``u``
    from the mark and other names from ``env``, and fills the trees in C
    order into a new array of shape ``batch + shape``, ``batch`` being the
    broadcast of the state batch axes, the mark and every entry.

    Equal subtrees are equal (frozen, hashable) nodes, so a dict keyed by
    node computes each once.  A subtree whose names are all in
    ``constants`` is evaluated while compiling, by the operations the
    program would run, and enters the program as a value.
    """
    constants = constants or {}
    namespace: dict = {"_np": np}
    folded: dict = {}  # name -> value of each folded constant
    names: dict = {}  # node -> name holding its value
    lines: list[tuple[str, list[str]]] = []  # (code, operands) of v0, v1, ...

    def bind(value, fold: bool = False) -> str:
        name = f"_k{len(namespace)}"
        namespace[name] = value
        if fold:
            folded[name] = value
        return name

    def line(code: str, operands: Sequence[str] = ()) -> str:
        lines.append((code, list(operands)))
        return f"v{len(lines) - 1}"

    def emit(node: Node) -> str:
        if node in names:
            return names[node]
        if isinstance(node, Num):
            name = bind(node.value, fold=True)
        elif isinstance(node, Var) and node.name in constants:
            name = bind(float(constants[node.name]), fold=True)
        elif isinstance(node, Var) and shape is not None and node.name in ("x", "y", "z"):
            name = line(f"S[..., {'xyz'.index(node.name)}]")
        elif isinstance(node, Var):
            name = "u" if mark and node.name == "u" else line(f"env[{node.name!r}]")
        else:
            if isinstance(node, Neg):
                fn, args = operator.neg, [emit(node.operand)]
            elif isinstance(node, BinOp):
                fn, args = _BINARY[node.op], [emit(node.left), emit(node.right)]
            else:
                fn, args = _CALLS[node.func], [emit(node.arg)]
            where = (serialize_node(node),) if fn in _CHECKED else ()
            if all(arg in folded for arg in args):
                name = bind(fn(*(folded[arg] for arg in args), *where), fold=True)
            else:
                name = line(f"{bind(fn)}({', '.join(args + [bind(w) for w in where])})", args)
        names[node] = name
        return name

    results = [emit(tree) for tree in trees]
    if shape is None:
        (result,) = results
        if result in folded:  # a constant needs no code
            return lambda env, value=folded[result]: value
        head, tail = "def _program(env):", [f"    return {result}"]
    else:
        if len(results) != math.prod(shape):
            raise ValueError(f"{len(results)} expressions cannot fill shape {shape}")
        operands = ["S[..., 0]", *(["u"] if mark else []), *dict.fromkeys(r for r in results if r not in folded)]
        head = f"def _program(env, S{', u' if mark else ''}):"
        tail = [f"    out = _np.empty(_np.broadcast({', '.join(operands)}).shape + {shape!r})"]
        tail += [f"    out[..., {', '.join(map(str, i))}] = {r}" for i, r in zip(np.ndindex(*shape), results)]
        tail.append("    return out")
    # drop each intermediate after its last read, so that large arrays do not all stay alive
    last = {arg: i for i, (_, args) in enumerate(lines) for arg in args if arg.startswith("v")}
    dead: dict = {}
    for arg, i in last.items():
        if arg not in results:
            dead.setdefault(i, []).append(arg)
    body = []
    for i, (code, _) in enumerate(lines):
        body += [f"    v{i} = {code}"] + ([f"    del {', '.join(dead[i])}"] if i in dead else [])
    exec(compile("\n".join([head, *body, *tail]), "<expression program>", "exec"), namespace)
    return namespace["_program"]


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
    out = f.program(env)
    target = np.broadcast_shapes(np.shape(t), *(np.shape(v) for v in extra.values()))
    if target == ():
        return float(out)
    if np.ndim(out) == 0:
        return np.full(target, float(out))
    return out


# --- canonical serialization ------------------------------------------------

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 3}


def serialize_node(node: Node) -> str:
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        inner = serialize_node(node.operand)
        if isinstance(node.operand, BinOp) and node.operand.op != "min":
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Call):
        return f"{node.func}({serialize_node(node.arg)})"
    if isinstance(node, BinOp):
        left = serialize_node(node.left)
        right = serialize_node(node.right)
        if node.op == "min":
            return f"min({left},{right})"
        # how tightly each operand's text binds: atoms, calls, min and negation 4
        prec, lp, rp = (_PRECEDENCE.get(getattr(n, "op", None), 4) for n in (node, node.left, node.right))
        # ^ is right-associative and binds tighter than unary minus
        if lp < prec or (node.op == "^" and (lp == prec or isinstance(node.left, Neg))):
            left = f"({left})"
        # -, / are left-associative; parenthesize equal precedence on the right
        if isinstance(node.right, Neg) or rp <= prec:
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
    return float(compile_program([node])({}))


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
