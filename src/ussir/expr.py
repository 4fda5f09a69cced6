"""Parser, compiler and bounds for coefficient expressions.

The grammar is deliberately tiny: numerals, named variables (``t`` by
default), ``+ - * /``, ``^`` (right-associative, binding tighter than unary
minus: ``-x^2`` is ``-(x^2)``), parentheses, ``sin``, ``cos``, ``ln``,
``abs`` and ``min(a, b)``.  Angles are radians.  Anything richer is rejected
at parse time so that a coefficient written down in a scenario file
evaluates the same way everywhere, bit for bit.

A parsed expression is its tree of frozen, hashable nodes, one tree per
text per process; :func:`serialize` writes it back as canonical text.
Every evaluation runs a program compiled by :func:`compile_program`
(:func:`evaluate` compiles one tree for one call); leaving the reals
(division by zero, ``ln`` of a non-positive value, a non-real power) raises
:class:`EvalDomainError`.

Besides evaluation, this module extracts infimum/supremum of a time
coefficient, a tree in ``t``, over [0, oo).  Expressions that are affine in
sinusoids of one frequency whose argument is a constant multiple of ``t``
(``a + b*sin(w*t)``, ``a + b*cos(t/w)``, ``a + b*(sin(t)+cos(t))``) get
exact analytic bounds; everything else is scanned, in slices, on a dense
grid over a finite horizon and flagged as such; a model build skips a scan
that an outward-rounded interval enclosure proves would accept.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache, partial, reduce, wraps
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np

__all__ = [
    "BoundsPair",
    "EvalDomainError",
    "ParseError",
    "bounds",
    "compile_program",
    "evaluate",
    "free_names",
    "parse",
    "serialize",
]

_FUNCTIONS = ("sin", "cos", "ln", "abs", "min")


class ParseError(ValueError):
    """Raised on malformed input; carries the 0-based offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvalDomainError(ValueError):
    """Raised when evaluation leaves the real domain (ln of non-positive
    argument, division by zero, negative base with a non-integer exponent,
    zero base with a negative exponent)."""


# --- AST -------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float

    def __eq__(self, other):  # -0.0 == 0.0, but each zero folds to a zero of its own sign: compare every bit
        return type(other) is Num and float(self.value).hex() == float(other.value).hex()


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


def _per_node(fn: Callable) -> Callable:
    """``fn(node)`` computed once per node and kept in its own dict: built from its children's, it is O(1)."""
    def get(node, key=f"_{fn.__name__}"):
        return node.__dict__[key] if key in node.__dict__ else node.__dict__.setdefault(key, fn(node))
    return wraps(fn)(get)


for _cls in (Num, Var, Neg, BinOp, Call):  # a dataclass's own hash hashes the whole subtree on every call
    _cls.__hash__ = _per_node(_cls.__hash__)  # held only in this process: below, a pickle carries the fields alone
    _cls.__reduce__ = lambda node: (type(node), tuple(getattr(node, f) for f in node.__dataclass_fields__))


# --- tokenizer / parser ----------------------------------------------------

def _tokenize(text: str, variables: tuple[str, ...]) -> list[tuple[str, object, int]]:
    tokens: list[tuple[str, object, int]] = []
    i, n = 0, len(text)
    while i < n:
        c, j = text[i], i + 1
        if c in "+-*/^(),":
            tokens.append((c, c, i))
        elif c.isdigit() or c == ".":
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if text[j : j + 1] in ("e", "E"):
                k = j + 2 if text[j + 1 : j + 2] in ("+", "-") else j + 1  # the exponent's first digit
                if text[k : k + 1].isdigit():
                    j = k + 1
                    while j < n and text[j].isdigit():
                        j += 1
            lexeme = text[i:j]
            try:
                value = float(lexeme)
            except ValueError:
                raise ParseError(f"bad numeral {lexeme!r}", i) from None
            if not math.isfinite(value):
                raise ParseError(f"numeral {lexeme!r} overflows", i)
            tokens.append(("num", value, i))
        elif c.isalpha() or c == "_":
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            name = text[i:j]
            if name not in _FUNCTIONS and name not in variables:
                raise ParseError(
                    f"unknown name {name!r}; allowed: variables {variables}, "
                    f"functions {_FUNCTIONS}",
                    i,
                )
            tokens.append(("func" if name in _FUNCTIONS else "var", name, i))
        elif not c.isspace():
            raise ParseError(f"unexpected character {c!r}", i)
        i = j
    tokens.append(("end", None, n))
    return tokens


# Height limit of a parsed tree, parentheses and signs counted: parsing and every
# later recursive pass (compiling, bounds, hashing) stay far below Python's limit.
MAX_DEPTH = 100


class _Parser:
    # Each parse_* takes its room, the height its tree may still have, and returns
    # (node, height).  Every recursion passes through parse_unary, which checks on the
    # way down that one more level fits; a binary operator checks on the way up that
    # its tree fits, and a refusal there names the operator's position.
    def __init__(self, tokens: list[tuple[str, object, int]]):
        self.tokens = tokens
        self.pos = 0

    def take(self, kind: Optional[str] = None) -> tuple[str, object, int]:
        """Consume the next token; given ``kind``, it must be of that kind."""
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    def fit(self, height: int, room: int, pos: int) -> int:
        if height > room:
            raise ParseError(f"expression nests deeper than {MAX_DEPTH} levels", pos)
        return height

    def parse_expr(self, room: int, ops: str = "+-") -> tuple[Node, int]:
        # left-associative: + - over terms, and a term is * / over unary operands
        operand = partial(self.parse_expr, ops="*/") if ops == "+-" else self.parse_unary
        node, height = operand(room)
        while self.tokens[self.pos][0] in ops:
            op, _, pos = self.take()
            right, rh = operand(room - 1)
            node, height = BinOp(op, node, right), self.fit(1 + max(height, rh), room, pos)
        return node, height

    def parse_unary(self, room: int) -> tuple[Node, int]:
        kind, _, pos = self.tokens[self.pos]
        self.fit(1, room, pos)
        if kind in ("-", "+"):
            self.take()
            node, height = self.parse_unary(room - 1)
            return (Neg(node), height + 1) if kind == "-" else (node, height)
        node, height = self.parse_atom(room)
        if self.tokens[self.pos][0] == "^":  # the exponent is a unary operand, so ^ is right-associative
            _, _, pos = self.take()
            exponent, eh = self.parse_unary(room - 1)
            return BinOp("^", node, exponent), self.fit(1 + max(height, eh), room, pos)
        return node, height

    def parse_atom(self, room: int) -> tuple[Node, int]:
        kind, value, pos = self.take()
        if kind == "num":
            return Num(float(value)), 1
        if kind == "var":
            return Var(str(value)), 1
        if kind == "func":
            self.take("(")
        elif kind != "(":
            raise ParseError(f"unexpected token {value!r}", pos)
        node, height = self.parse_expr(room - 1)
        if value == "min":
            self.take(",")
            right, rh = self.parse_expr(room - 1)
            node, height = BinOp("min", node, right), max(height, rh)
        elif kind == "func":
            node = Call(str(value), node)
        self.take(")")
        return node, (height + 1 if kind == "func" else height)  # a call is a level, parentheses are not


def parse(text: str, variables: Sequence[str] = ("t",)) -> Node:
    """Parse ``text`` into its expression tree.

    Raises :class:`ParseError` (with position) on malformed input, and on
    input whose tree would be more than :data:`MAX_DEPTH` levels high.  The
    default grammar knows the single variable ``t``; generic-model
    coefficients pass ``variables=("t", "x", "y", "z", "u")``.  A text
    parses once per process for its variables: a later call returns the
    same tree, so the memos keyed on trees hit by identity, and nothing may
    change a tree.  A refusal raises on every call.
    """
    return _parse(text, tuple(variables))


@lru_cache(maxsize=1024)  # a call that raises stores nothing
def _parse(text: str, variables: tuple[str, ...]) -> Node:
    parser = _Parser(_tokenize(text, variables))
    node, _ = parser.parse_expr(MAX_DEPTH)
    kind, value, pos = parser.take()
    if kind != "end":
        raise ParseError(f"trailing input {value!r}", pos)
    return node


# --- compilation -------------------------------------------------------------

# each check counts its mask's hits: np.count_nonzero dispatches faster than .any()
def _divide(a, b, where: str):
    if np.count_nonzero(b == 0):
        raise EvalDomainError(f"division by zero in {where!r}")
    return a / b


def _power(a, b, where: str):
    if np.count_nonzero(a <= 0) and np.count_nonzero((a < 0) & (np.floor(b) != b) | (a == 0) & (b < 0)):
        raise EvalDomainError(f"power outside the reals in {where!r}")
    # a Python float base goes through numpy: Python's ** raises on overflow
    return a**b if isinstance(a, (np.ndarray, np.generic)) else np.power(a, b)


def _log(a, where: str):
    if np.count_nonzero(a <= 0):
        raise EvalDomainError(f"ln of non-positive argument in {where!r}")
    return np.log(a)


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _divide, "^": _power, "min": np.minimum}
_CALLS = {"sin": np.sin, "cos": np.cos, "abs": np.abs, "ln": _log}
_PLAIN = {_divide: np.divide, _power: np.power, _log: np.log}  # each checked one also takes its node's text
# a program writes these as infix operators, each running its ufunc, which can also write into a given row
_INFIX = {operator.add: ("{} + {}", np.add), operator.sub: ("{} - {}", np.subtract),
          operator.mul: ("{} * {}", np.multiply), operator.neg: ("-{}", np.negative)}
# a block program: each step fills the rows of C and H, multiplies C by the tile's step, then the jumps, the state
_BLOCK = """def _program(env, normals, marked, jumps, k0, run):
    S3, tile, sqrt_dt, floor, tol, stride, K, out, record = run  # out: the per-path outputs by name
    (C, P), H, T = _np.empty((2,) + tile.shape[1:]), _np.empty({nodes}S3.shape), len(tile)
    (x, y, z), c, p, R = S3, tuple(C), tuple(P), tuple(tile)  # rows bound once: a tuple indexes faster than numpy
    {head}
    for j in range(len(marked)):
        {body}
        if j % T == 0:  # the next tile of increments, scaled as they are copied (none without drivers)
            _np.multiply(normals[:, j:j + T].transpose(1, 2, 0)[:, :, None], sqrt_dt, out=tile[:len(marked) - j, 1:{d}])
        _np.multiply(C, R[j % T], out=P)
        incr = {incr}
        comp = {comp}
        if marked[j]:
            jumps(j, incr, comp, H)
        elif comp is not None:
            incr -= comp
        S3 += incr
        below = S3 <= _zero
        if _np.count_nonzero(below):
            _np.copyto(S3, floor, where=below)
            out["floor_hits"] += below.sum(axis=0)
        if "simplex_drift" in out:
            sums = x + y + z
            dev = _np.abs(sums - _one)
            fix = dev > tol
            if _np.count_nonzero(fix):
                S3[:, fix] /= sums[fix]
            _np.maximum(out["simplex_drift"], dev, out=out["simplex_drift"])
        if (k0 + j + 1) % stride == 0 or k0 + j + 1 == K:
            record(-(-(k0 + j + 1) // stride))"""


def _operation(node: Node) -> tuple[Callable, list, tuple]:
    """The checked operation of a ``Neg``, ``BinOp`` or ``Call`` node, its operands, and its text if that takes it."""
    if isinstance(node, Neg):
        fn, args = operator.neg, [node.operand]
    elif isinstance(node, BinOp):
        fn, args = _BINARY[node.op], [node.left, node.right]
    else:
        fn, args = _CALLS[node.func], [node.arg]
    return fn, args, (serialize(node),) if fn in _PLAIN else ()


def _bits(constants: Optional[Mapping[str, float]]) -> tuple:
    """Each constant's name and bits, sorted: how the constants enter a memo key."""
    return tuple(sorted((name, float(value).hex()) for name, value in (constants or {}).items()))


@lru_cache(maxsize=1024)  # a call that raises stores nothing
def _folds(trees: tuple, folds: tuple) -> dict:
    """The value of each subtree of ``trees`` whose names are all constants (``folds``: :func:`_bits`), which a program
    folds by the checked operations; a value that is not finite raises :class:`EvalDomainError`.  Shared: keep as is."""
    values: dict = {}  # node -> its value, or None where it reads a name outside constants
    constants = {name: float.fromhex(value) for name, value in folds}

    def fold(node: Node):
        if node not in values:
            if isinstance(node, (Num, Var)):
                value = node.value if isinstance(node, Num) else constants.get(node.name)
            else:
                fn, args, where = _operation(node)
                args = [fold(arg) for arg in args]
                value = None if any(arg is None for arg in args) else fn(*args, *where)
            if value is not None and not np.isfinite(value):
                raise EvalDomainError(f"{serialize(node)!r} folds to the non-finite constant {value}")
            values[node] = value
        return values[node]

    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite constant is refused above
        for tree in trees:
            fold(tree)
    return {node: value for node, value in values.items() if value is not None}


# every value a program reads is a _k name of its namespace, so models of one structure share a code object
_compile_source = lru_cache(maxsize=1024)(lambda source: compile(source, "<expression program>", "exec"))


def compile_program(
    trees: Sequence[Node],
    shape: Optional[tuple[int, ...]] = None,
    constants: Optional[Mapping[str, float]] = None,
    mark: bool = False,
    step: Optional[tuple] = None,
    checked: bool = True,
) -> Callable:
    """Compile a group of trees into one straight-line numpy function.

    Without ``shape`` the group is one tree and ``program(env)`` returns its
    value, reading every name from the mapping ``env``.  With ``shape``,
    ``program(env, S)`` (``program(env, S, u)`` when ``mark``) reads
    ``x, y, z`` from the columns of the state block ``S`` (..., 3), ``u``
    from the mark and other names from ``env``, and fills the trees in C
    order into a new array of shape ``batch + shape``, ``batch`` being the
    broadcast of the state batch axes, the mark and every entry.

    With ``step = (n, rule)`` the trees are the drift, the diffusion by
    rows and, unless the small region's ``rule`` is None, the small jumps:
    ``program(env, normals, marked, jumps, k0, run)`` steps a block in place
    on the (3, paths) state of ``run`` into its outputs by name (see
    ``integrator._step_rows``).  A step fills the rows ``C`` of the drift,
    each driver's diffusion and the rule's integral of the small jumps
    ``H``, times its tile rows into ``P``, and steps by ``P[0] + ((P[1] +
    P[2]) + ...)`` less ``comp = P[-1]``, which ``jumps(j, incr, comp, H)``
    takes on a marked step.  It reads 0-d views of the block's arrays: a
    name's in ``env``, and for each maximal subtree of time alone that does
    not fold, the array its head computes from ``env`` once per block by the
    subtree's own checked program (``program.reads`` maps the
    :func:`serialize` text of each to its tree).  Equal subtrees are equal
    (frozen, hashable) nodes, computed once across the group.  A subtree
    whose names are all in ``constants`` is evaluated while compiling, by
    the operations the program would run, and enters the program as a 0-d
    array; a value that is not finite raises :class:`EvalDomainError` naming
    the subtree; ``checked`` False leaves ``/``, ``^`` and ``ln`` unchecked
    outside folds.  A program is emitted once per process for its input
    (the trees, ``shape``, ``mark``, ``checked``, each constant's name and
    bits, ``n``, the rule's bytes): equal input shares one function, so
    nothing may change it or its ``reads``.  A refusal raises on every call.
    """
    rule = step and step[1] and tuple((a.dtype.str, a.shape, a.tobytes()) for a in step[1])
    return _emit(tuple(trees), shape, _bits(constants), mark, step and (step[0], rule), checked)


@lru_cache(maxsize=1024)  # a call that raises stores nothing
def _emit(trees, shape, folds, mark, step, checked) -> Callable:
    values = _folds(trees, folds)
    namespace: dict = {"_np": np}
    folded: dict = {}  # name -> value of each folded constant
    lines: list[list] = []  # [code, operands, ufunc that may write its value into a row] of v0, v1, ...
    reads: dict = {}  # env key -> tree of each value the program reads
    if step is not None:
        n, rule = step[0], step[1] and tuple(np.frombuffer(b, d).reshape(s) for d, s, b in step[1])
        mark = rule is not None and rule[0].size > 1  # quadrature nodes run along a leading axis
        namespace.update(u=rule[0].reshape(-1, 1) if mark else None, _zero=np.array(0.0), _one=np.array(1.0))
    names: dict = {Var(c): c for c in ("u" if mark else "") + ("xyz" if step is not None else "")}  # node -> its name
    # op(v, k) on each of x, y and z with one operand k of constants and time alone is one call on the state; with
    # a row no tree uses, that call would compute it, and could raise a flag that the trees' rows do not
    rows, stacks, todo = {}, [], list(trees) if step is not None else []  # (op, side, k) -> {v: node}; buffers
    while todo:
        node = todo.pop()
        todo += [child for child in vars(node).values() if isinstance(child, (Neg, BinOp, Call))]
        for side, v, k in ((0, node.left, node.right), (1, node.right, node.left)) if isinstance(node, BinOp) else ():
            if v in (Var("x"), Var("y"), Var("z")) and free_names(k).isdisjoint("xyzu"):
                rows.setdefault((node.op, side, k), {})[v.name] = node
    trios = {node: trio for trio in rows.values() if len(trio) == 3 for node in trio.values()}

    def bind(value, fold: bool = False) -> str:
        name = f"_k{len(namespace)}"
        namespace[name] = np.array(value, dtype=float) if fold else value  # numpy reads a 0-d array fastest
        if fold:
            folded[name] = value
        return name

    def line(code: str, operands: Sequence[str] = (), ufunc=None) -> str:
        lines.append([code, list(operands), ufunc])
        return f"v{len(lines) - 1}"

    def emit(node: Node) -> str:
        if node in names:
            return names[node]
        if node in values:
            name = bind(values[node], fold=True)
        elif isinstance(node, Var) and shape is not None and node.name in ("x", "y", "z"):
            name = line(f"S[..., {'xyz'.index(node.name)}]")
        elif isinstance(node, Var) or step is not None and free_names(node).isdisjoint("xyzu"):
            reads[key := serialize(node)] = node  # a named value, or a subtree of time alone that is not folded
            name = line(f"e{list(reads).index(key)}[j, ...]" if step is not None else f"env[{key!r}]")
        else:
            fn, args, where = _operation(node)
            args = [emit(arg) for arg in args]  # an unchecked program runs numpy's own operation, which takes no text
            fn, where = (fn, where) if checked else (_PLAIN.get(fn, fn), ())
            code, ufunc = _INFIX.get(fn) or (f"{bind(fn)}({', '.join(args + [bind(w) for w in where])})", fn)
            if node in trios and isinstance(ufunc, np.ufunc):  # the three rows of one call on the state
                stacks.append(f"s{len(stacks)}")
                operands = ", ".join("S3" if arg in ("x", "y", "z") else arg for arg in args)
                line(f"{bind(ufunc)}({operands}, out={stacks[-1]})", args)
                names.update({sibling: stacks[-1] + v for v, sibling in trios[node].items()})
                name = names[node]
            else:
                name = line(code.format(*args), args, ufunc if isinstance(ufunc, np.ufunc) else None)
        names[node] = name
        return name

    results = [emit(tree) for tree in trees]
    # a block program binds, once per block, each array it reads, each stacked call's rows and each entry's row of
    # C (drift, each driver's diffusion) or H ((nodes,) 3, P), and fills a constant entry's row; an entry of the
    # state (and of u in a quadrature H) is written by the out of its last operation, any other copied after the step
    head, copies = [f"e{i} = env[{key!r}]" if isinstance(tree, Var) else  # a subtree: its checked program on the block
                    f"e{i} = {bind(_emit((tree,), None, folds, False, None, True))}(env)"
                    for i, (key, tree) in enumerate(reads.items())], []
    head += [f"{s}x, {s}y, {s}z = {s} = _np.empty_like(S3)" for s in stacks]
    for k, (tree, r) in enumerate(zip(trees, results) if step is not None else ()):
        slot = (f"C[0, {k}]" if k < 3 else f"C[{1 + (k - 3) % n}, {(k - 3) // n}]" if k < 3 + 3 * n
                else f"H[..., {k % 3}, :]")
        head += [f"o{k} = {slot}"] + [f"o{k}[...] = {r}"] * (r in folded)
        if (r[0] == "v" and (at := lines[int(r[1:])])[2] and not (free := free_names(tree)).isdisjoint("xyz")
                and ("u" in free) == (mark and k >= 3 + 3 * n)):
            at[0], at[2] = f"{bind(at[2])}({', '.join(at[1])}, out=o{k})", None
        elif r not in folded:
            copies.append(f"o{k}[...] = {r}")
    # drop each intermediate after its last read, so that large arrays do not all stay alive
    last = {arg: i for i, (_, args, _) in enumerate(lines) for arg in args if arg[0] == "v" and arg not in results}
    body = []
    for i, (code, args, _) in enumerate(lines):
        dead = [arg for arg in dict.fromkeys(args) if last.get(arg) == i]
        body += [f"v{i} = {code}"] + ([f"del {', '.join(dead)}"] if dead else [])
    if step is not None:
        # C's compensator row: one node's weight times the vector, or numpy's sum over the nodes
        w = rule is not None and bind(rule[1].reshape(-1, 1, 1) if mark else rule[1][0, ...])
        fill = [f"_np.sum(H * {w}, axis=0, out=c[-1])" if mark else f"_np.multiply({w}, H, out=c[-1])"] * bool(w)
        # P is C times the step's tile rows (drift_dt, each driver's dW_c, comp_dt); the noise rows sum left to right;
        # an entry folded to 0 adds +-0, which can flip only the sign of a zero increment, not the stepped state
        noise = reduce(lambda a, b: f"({a} + {b})", [f"p[{c}]" for c in range(1, n + 1)]) if n else ""
        source = _BLOCK.format(nodes="u.shape[:1] + " if mark else "", d=n + 1, head="\n    ".join(head),
                               body="\n        ".join(body + copies + fill), incr=f"p[0] + {noise}" if n else "p[0]",
                               comp="p[-1]" if w else "None")
    elif shape is None:
        (result,) = results
        if result in folded:  # a constant needs no code
            return lambda env, value=folded[result]: value
        source = "\n    ".join(["def _program(env):", *body, f"return {result}"])
    else:
        if len(results) != math.prod(shape):
            raise ValueError(f"{len(results)} expressions cannot fill shape {shape}")
        operands = ["S[..., 0]", *(["u"] if mark else []), *dict.fromkeys(r for r in results if r not in folded)]
        fills = [f"out[..., {', '.join(map(str, i))}] = {r}" for i, r in zip(np.ndindex(*shape), results)]
        source = "\n    ".join([f"def _program(env, S{', u' if mark else ''}):", *body, "out = _np.empty(_np.broadcast("
                                 f"{', '.join(operands)}).shape + {shape!r})", *fills, "return out"])
    exec(_compile_source(source), namespace)
    namespace["_program"].reads = reads
    return namespace["_program"]


def shaped(value, shape: tuple[int, ...]):
    """A program's value as callers see it: a plain float for scalar input,
    otherwise an array of the input's ``shape`` (a constant broadcast)."""
    if shape == ():
        return float(value)
    return np.full(shape, float(value)) if np.ndim(value) == 0 else value


def evaluate(tree: Node, **values):
    """Evaluate ``tree`` with its names bound by keyword to scalars or
    arrays, e.g. ``evaluate(tree, t=ts)``.

    Scalar input gives a plain float; array input an array of the inputs'
    broadcast shape.  Pure: the same inputs always produce bit-identical
    output.  A name the tree mentions but ``values`` lacks raises
    :class:`EvalDomainError`.
    """
    missing = sorted(free_names(tree) - values.keys())
    if missing:
        raise EvalDomainError(f"missing variable values for {missing}")
    out = compile_program([tree])(values)
    return shaped(out, np.broadcast_shapes(*map(np.shape, values.values())))


# --- canonical serialization ------------------------------------------------

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 3}


def serialize(node: Node) -> str:
    """Canonical infix text; reparsing it reproduces the identical tree."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        inner = serialize(node.operand)
        if isinstance(node.operand, BinOp) and node.operand.op != "min":
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Call):
        return f"{node.func}({serialize(node.arg)})"
    if isinstance(node, BinOp):
        left = serialize(node.left)
        right = serialize(node.right)
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


# --- bounds over [0, oo) ----------------------------------------------------

SCAN_HORIZON, SCAN_POINTS = 1.0e4, 1_000_001  # the grid of a scan for bounds


@dataclass(frozen=True)
class BoundsPair:
    """Infimum and supremum of a coefficient over [0, oo).

    ``method`` records how they were obtained: "analytic" bounds are exact;
    "grid" bounds come from a dense scan of [0, SCAN_HORIZON] and are only
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


@_per_node
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


def _sinusoid_terms(node: Node):
    """Decompose into [(coeff, None | "t" | (func, w))], a constant, ``t`` or
    a sinusoid of frequency w, or None if not affine in ``t`` and in
    sinusoids of a constant multiple of ``t``."""
    if not free_names(node):
        return [(node.value if isinstance(node, Num) else evaluate(node), None)]
    if node == Var("t"):
        return [(1.0, "t")]
    if isinstance(node, Neg):
        inner = _sinusoid_terms(node.operand)
        return None if inner is None else [(-c, basis) for c, basis in inner]
    if isinstance(node, BinOp):
        if node.op in ("+", "-"):
            left = _sinusoid_terms(node.left)
            right = _sinusoid_terms(node.right)
            if left is None or right is None:
                return None
            if node.op == "-":
                right = [(-c, basis) for c, basis in right]
            return left + right
        if node.op == "*" and not (free_names(node.left) and free_names(node.right)):
            side, other = (node.left, node.right) if not free_names(node.left) else (node.right, node.left)
            inner = _sinusoid_terms(other)
            [(scale, _)] = _sinusoid_terms(side)
            return None if inner is None else [(scale * c, basis) for c, basis in inner]
        if node.op == "/" and not free_names(node.right):
            [(denom, _)] = _sinusoid_terms(node.right)
            inner = None if denom == 0 else _sinusoid_terms(node.left)
            return None if inner is None else [(c / denom, basis) for c, basis in inner]
        return None
    if isinstance(node, Call) and node.func in ("sin", "cos"):
        arg = _sinusoid_terms(node.arg)
        if arg is None or len(arg) != 1 or arg[0][1] != "t":
            return None
        return [(1.0, (node.func, arg[0][0]))]
    return None


@lru_cache(maxsize=256)  # a model build and its bounds() walk a coefficient's sinusoid terms once
def _analytic_bounds(tree: Node) -> Optional[tuple[float, float]]:
    terms = _sinusoid_terms(tree)
    if terms is None:
        return None
    offset = 0.0
    sin_c: dict[float, float] = {}
    cos_c: dict[float, float] = {}
    for coeff, basis in terms:
        if basis == "t":  # an unbounded linear part
            return None
        if basis is None:
            offset += coeff
            continue
        func, w = basis
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
        return offset, offset
    if len(freqs) > 1:
        return None
    w = freqs.pop()
    # b*sin(wt) + c*cos(wt) sweeps [-r, r] with r = hypot(b, c) over [0, oo)
    amp = math.hypot(sin_c.get(w, 0.0), cos_c.get(w, 0.0))
    return offset - amp, offset + amp


def _outward(op: str, x: float, y: float) -> Optional[tuple[float, float]]:
    """``x op y`` (``+ - * / min``) rounded down and up, or None where it is not finite.  The float v it computes is
    the exact value rounded to nearest, an ulp off at most; the integer ratios of the three floats say on which side."""
    if not math.isfinite(v := {"/": operator.truediv, "min": min}.get(op, _BINARY[op])(x, y)):
        return None
    (a, b), (c, d), (p, q) = x.as_integer_ratio(), y.as_integer_ratio(), v.as_integer_ratio()
    n, m = {"+": (a * d + c * b, b * d), "-": (a * d - c * b, b * d), "*": (a * c, b * d), "/": (a * d, b * c),
            "min": (p, q)}[op]
    above = (p * m - n * q) * m  # the sign of v less the exact value n / m: q is positive, m may not be
    return v if above <= 0 else math.nextafter(v, -math.inf), v if above >= 0 else math.nextafter(v, math.inf)


def _enclosure(node: Node) -> Optional[tuple[float, float]]:
    """Bounds on the time coefficient ``node`` over t in [0, SCAN_HORIZON] by
    outward-rounded interval arithmetic (Moore, 1966), holding its real values
    and those of the scan grid; exact operations keep exact ends.  None, as for
    ``^``, unless each ``ln`` argument is above 0, each divisor excludes 0 and
    each bound is finite: then the scan cannot raise."""
    if isinstance(node, (Num, Var)):  # t is a time coefficient's one variable
        return (node.value, node.value) if isinstance(node, Num) else (0.0, SCAN_HORIZON)
    if isinstance(node, BinOp):
        if (node.op == "^" or (a := _enclosure(node.left)) is None or (b := _enclosure(node.right)) is None
                or node.op == "/" and b[0] <= 0.0 <= b[1]):
            return None
        ends = [_outward(node.op, x, y) for x in a for y in b]  # over the box each operation is extreme at a corner
        return None if None in ends else (min(lo for lo, _ in ends), max(hi for _, hi in ends))
    inner = _enclosure(node.operand if isinstance(node, Neg) else node.arg)
    if inner is None or isinstance(node, Call) and node.func == "ln" and inner[0] <= 0.0:
        return None
    lo, hi = inner
    if isinstance(node, Neg):
        return -hi, -lo
    if node.func == "abs":
        return max(lo, -hi, 0.0), max(-lo, hi)
    if node.func in ("sin", "cos"):
        return -1.0, 1.0
    # ln(1) is 0; numpy's vectorised ln is not correctly rounded, so the other ends widen by four ulps
    return tuple(0.0 if x == 1.0 else reduce(lambda y, _: math.nextafter(y, to), range(4), math.log(x))
                 for x, to in ((lo, -math.inf), (hi, math.inf)))


def bounds(tree: Node) -> BoundsPair:
    """Bounds of the time coefficient ``tree`` over [0, oo): analytic when
    it is affine in sinusoids of one frequency, each argument a constant
    multiple of ``t``; otherwise a scan of :data:`SCAN_POINTS` equally
    spaced times in [0, :data:`SCAN_HORIZON`], evaluated in slices of 2**17
    points so that each temporary stays at 1 MiB.  Bounds that are not
    finite raise :class:`EvalDomainError`.

    Grid bounds on monotone saturating terms report the value at the scan
    horizon, which approaches the limit from inside (one-sided tolerance
    set by the horizon).
    """
    pair, method = _analytic_bounds(tree), "analytic"
    if pair is None:
        pair, method = (np.inf, -np.inf), "grid"
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite scan is refused below
            for i in range(0, SCAN_POINTS, 2**17):  # np.minimum and np.maximum keep a NaN
                # np.linspace's slices, byte for byte, without its 8 MB grid; its last point is exact
                ts = np.arange(i, min(i + 2**17, SCAN_POINTS)) * (SCAN_HORIZON / (SCAN_POINTS - 1))
                ts[SCAN_POINTS - 1 - i :] = SCAN_HORIZON  # empty but in the last slice
                vals = evaluate(tree, t=ts)
                pair = np.minimum(pair[0], vals.min()), np.maximum(pair[1], vals.max())
    lo, hi = map(float, pair)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise EvalDomainError(f"{serialize(tree)!r} has non-finite bounds ({lo}, {hi}) over [0, oo)")
    return BoundsPair(lo, hi, method)
