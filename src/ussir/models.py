"""Three-compartment stochastic models as expression tables, and their
validity checks.

Every model is one instance of dX = b dt + sigma dB + int H dN~ + int G dN:
three drift rows, a column of three entries per Brownian driver, and the
compensated small-jump and uncompensated large-jump vectors, each entry an
expression over the state ``x, y, z``, the mark ``u``, the time ``t`` and
named coefficients.  Five named families are tables (:data:`FAMILIES`):

``ex1``    proportion-space model, power-law transmission with a saturating
           denominator, two Brownian drivers, bilinear jump coefficients.
``ex1b``   proportion-space model with linear transmission, one Brownian
           driver (the infected row carries twice the amplitude), and
           triple-product jump coefficients.
``xc``     population-count model with demography (birth/mortality), one
           Brownian driver, no jumps.
``ex34a``  population-count analogue of ``ex1`` with demography and
           truncated coefficients (min-with-cap inside drift/diffusion,
           min-with-one inside jumps).
``ex34b``  population-count analogue of ``ex1b``, truncated the same way.

A :class:`ModelSpec` is such a table: the trees of drift, diffusion and
jumps, and the trees of its named time coefficients.  :func:`build_named`
fills a family's table with its time coefficients, jump constants and
(where its expressions use ``cap``) a truncation cap; :func:`build_custom`
accepts raw coefficient expressions, and on the proportions simplex it
must pass :func:`check_structure`.  Everything else is
derived from the trees: constructing a model sets the flags saying which
noise it carries, fixes the mark rule of each jump region a run draws, which
the compensator and :func:`ussir.criteria.generic_alpha_estimate` integrate
with, and refuses a constant subtree that folds to a non-finite value.  Each
group, each time coefficient, the engine's block program, which steps a block
of drift, diffusion and small-jump compensator, and its checked twin are
compiled on first use with :func:`ussir.expr.compile_program`, jump constants
and cap folded in.
Programs take a dict of the time coefficients, evaluated once per block of
steps (see :meth:`ModelSpec.param_values`); the block program evaluates its
subtrees of time alone from it, once per block too.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property, partial
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

import numpy as np

from .expr import (Node, Num, _analytic_bounds, _bits, _enclosure, _folds, bounds, compile_program, free_names,
                   parse, shaped)
from .levy import LARGE, SMALL, LevyMeasure

__all__ = [
    "FAMILIES",
    "ConservationReport",
    "Family",
    "ModelSpec",
    "PositivityReport",
    "build_custom",
    "build_named",
    "check_admissible",
    "check_structure",
]

SIMPLEX = "simplex"
OCTANT = "octant"

SIMPLEX_TOL = 1e-6
CONSERVATION_TOL = 1e-12  # the rows cancel algebraically, so only rounding noise may remain
CHECK_POINTS = 1000  # the (t, state, mark) points of check_structure


def check_admissible(state, domain: str) -> np.ndarray:
    """Validate shape, positivity (and the unit-sum constraint on the
    simplex); return the state as a float (3,) array."""
    arr = np.asarray(state, dtype=float)
    if arr.shape != (3,):
        raise ValueError(f"state must have three components, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"state components must be finite, got {arr.tolist()}")
    if not np.all(arr > 0):
        raise ValueError(f"state components must be positive, got {arr.tolist()}")
    if domain == SIMPLEX and abs(arr.sum() - 1.0) > SIMPLEX_TOL:
        raise ValueError(f"simplex state must sum to 1 (got {arr.sum()!r})")
    return arr


_ZEROS = (Num(0.0),) * 3  # an absent jump group


@dataclass(frozen=True)
class ModelSpec:
    """Coefficient table of one stochastic compartment system.

    The fields are the table: ``drift`` is three trees, ``diffusion`` a
    column of three trees per Brownian driver, ``small_jump`` and
    ``large_jump`` three trees each (they may also use the mark ``u``), or
    None when the model has no jumps of that kind.  ``params`` maps each
    named time coefficient to its tree in ``t``.  ``constants`` holds the
    jump constants and, where the expressions use it, the cap ``cap``; a
    ``measure`` of None is the uniform density on [-2, 2].

    Everything else is derived from them, the programs on first use.  Each
    group is compiled into a program: ``drift_fn``, ``diffusion_fn``,
    ``small_jump_fn`` and ``large_jump_fn`` (and ``step_fn``, which steps a
    block in place, and ``checked_step_fn``; see below).  Construction
    compiles none of them, but it refuses a constant subtree that folds to
    a non-finite value with the :class:`~ussir.expr.EvalDomainError`
    compiling would raise (a walk by the programs' fold rule).  The
    programs are vectorized over the leading batch axes of the state block
    ``S`` (..., 3); the jump programs also broadcast the mark, and an absent
    jump group computes zeros.  The flags ``brownian_dim``,
    ``has_diffusion``, ``has_small_jumps`` and ``has_large_jumps`` say which
    groups are present.  ``mark_rules`` holds exactly the jump regions a
    run draws, small before large: those whose group is present and whose
    mass is positive.  Each maps to the ``(nodes, weights)`` that integrate
    against the measure there: one node carrying the region's mass when no
    tree of that region's group reads ``u``, the measure's midpoint
    :meth:`~ussir.levy.LevyMeasure.quadrature` otherwise.  An integral over
    a region without a rule is zero.
    Immutable; shareable across threads.
    """

    model_id: str
    domain: str
    measure: Optional[LevyMeasure]
    drift: Sequence[Node]
    diffusion: Sequence[Sequence[Node]]
    small_jump: Optional[Sequence[Node]] = None
    large_jump: Optional[Sequence[Node]] = None
    params: Mapping[str, Node] = field(default_factory=dict)
    constants: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.domain not in (SIMPLEX, OCTANT):
            raise ValueError(f"domain must be {SIMPLEX!r} or {OCTANT!r}")
        groups = {"drift": self.drift, "small_jump": self.small_jump, "large_jump": self.large_jump}
        for what, group in [*groups.items(), *(("diffusion column", column) for column in self.diffusion)]:
            if group is not None and len(group) != 3:
                raise ValueError(f"{what} needs exactly three entries, got {len(group)}")
        derive = partial(object.__setattr__, self)
        derive("measure", self.measure if self.measure is not None else LevyMeasure())
        derive("params", MappingProxyType(dict(self.params)))
        derive("constants", MappingProxyType(dict(self.constants)))
        n, small, large = len(self.diffusion), self.small_jump, self.large_jump
        derive("_entries", [column[i] for i in range(3) for column in self.diffusion])  # row-major (3, n)
        _folds((*self.drift, *self._entries, *(small or ()), *(large or ())), _bits(self.constants))
        derive("brownian_dim", n)
        derive("has_diffusion", n > 0)
        derive("has_small_jumps", small is not None)
        derive("has_large_jumps", large is not None)
        rules = {}
        for region, group in ((SMALL, small), (LARGE, large)):
            mass = self.measure.mass(region)
            if group is None or mass == 0.0:
                continue
            if any("u" in free_names(tree) for tree in group):
                rules[region] = self.measure.quadrature(region)
            else:
                rules[region] = np.zeros(1), np.array([mass])
        derive("mark_rules", MappingProxyType(rules))
        derive("_step", ((*self.drift, *self._entries, *(small if SMALL in rules else ())), (n, rules.get(SMALL))))

    # the group programs, each emitted on first use; an absent jump group computes zeros
    drift_fn = cached_property(lambda self: compile_program(self.drift, (3,), self.constants))
    diffusion_fn = cached_property(lambda self: compile_program(self._entries, (3, self.brownian_dim), self.constants))
    small_jump_fn = cached_property(lambda self: compile_program(self.small_jump or _ZEROS, (3,), self.constants, True))
    large_jump_fn = cached_property(lambda self: compile_program(self.large_jump or _ZEROS, (3,), self.constants, True))

    def param_values(self, t) -> dict:
        """Evaluate every time coefficient at ``t`` (scalar or array) as :func:`ussir.expr.evaluate` would; ``t``
        too.  Only these: the block program computes its own subtrees of time alone from them."""
        pv, shape = {"t": t}, np.shape(t)
        for name, fn in self._param_fns.items():
            pv[name] = shaped(fn(pv), shape)
        return pv

    @cached_property
    def _param_fns(self) -> dict:
        return {name: compile_program([tree], constants=self.constants) for name, tree in self.params.items()}

    @cached_property
    def step_fn(self):
        """The block program (:func:`~ussir.expr.compile_program`'s ``step``), unchecked: drift, diffusion
        and the small region's compensator stacked on the (3, paths) state, its steps looped in the program."""
        return compile_program(self._step[0], constants=self.constants, step=self._step[1], checked=False)

    @cached_property
    def checked_step_fn(self):
        """:attr:`step_fn` checked: leaving the reals raises an error naming the subtree."""
        return compile_program(self._step[0], constants=self.constants, step=self._step[1])


# --- named families ------------------------------------------------------------

@dataclass(frozen=True)
class Family:
    """One named model family as data.

    ``params`` name the time-dependent coefficients, ``jumps`` the jump
    constants in [0, 1); expressions may also use ``x, y, z``, ``t``, the
    cap ``cap`` and, in jump vectors, the mark ``u``.  ``diffusion`` holds
    a column per Brownian driver; a jump vector is None when absent.
    ``infima``: (coefficient, ">=" or ">", bound, meaning) checks on bounds.
    """

    name: str
    domain: str
    params: tuple[str, ...]
    jumps: tuple[str, ...]
    drift: tuple[str, ...]
    diffusion: tuple[tuple[str, ...], ...]
    small_jump: Optional[tuple[str, ...]]
    large_jump: Optional[tuple[str, ...]]
    infima: tuple[tuple[str, str, float, str], ...] = ()

    @cached_property
    def trees(self) -> dict:
        """The parsed expressions, keyed and grouped as the fields are."""
        names = ("t", "x", "y", "z", "cap") + self.params + self.jumps

        def group(texts, *extra):
            return texts and tuple(parse(text, names + extra) for text in texts)

        return {
            "drift": group(self.drift),
            "diffusion": tuple(group(column) for column in self.diffusion),
            "small_jump": group(self.small_jump, "u"),
            "large_jump": group(self.large_jump, "u"),
        }

    @cached_property
    def uses_cap(self) -> bool:
        """Whether the family's expressions mention the truncation cap."""
        t = self.trees
        every = [*t["drift"], *sum(t["diffusion"], ()), *(t["small_jump"] or ()), *(t["large_jump"] or ())]
        return any("cap" in free_names(tree) for tree in every)


# Entries keep the association order of the models' arithmetic, e.g.
# (h1-h2)*(x*y*z) is one folded constant times one product.
_SAT = "(1+phi1*x+phi2*y+phi3*x*y)"  # saturating transmission denominator
_XD, _YD, _ZD = "min(x,cap)", "min(y,cap)", "min(z,cap)"
_XS, _YS, _ZS = "min(x,1)", "min(y,1)", "min(z,1)"
_EX1_INFECT = f"beta*x^xi*y/{_SAT}"
_EX34A_INFECT = f"beta*{_XD}*{_YD}^xi/{_SAT}"
_EX34B_SIGMA = f"sigma*{_XD}*{_YD}*{_ZD}"
_EX34B_W = f"({_XS}*{_YS}*{_ZS})"

FAMILIES: Mapping[str, Family] = MappingProxyType({f.name: f for f in (
    Family(
        "ex1", SIMPLEX,
        params=("beta", "gamma", "xi", "sigma1", "sigma2", "phi1", "phi2", "phi3"),
        jumps=("h1", "h2", "g1", "g2"),
        drift=(f"-({_EX1_INFECT})", f"{_EX1_INFECT}-gamma*y", "gamma*y"),
        diffusion=((f"-(sigma1*x*y/{_SAT})", f"sigma1*x*y/{_SAT}", "0"), ("0", "sigma2*y*z", "-(sigma2*y*z)")),
        small_jump=("-(h1*x*y)", "h1*x*y-h2*y*z", "h2*y*z"),
        large_jump=("-(g1*x*y)", "g1*x*y-g2*y*z", "g2*y*z"),
        infima=(("xi", ">=", 1.0, "exponent"),),
    ),
    Family(
        "ex1b", SIMPLEX,
        params=("beta", "gamma1", "gamma2", "sigma"),
        jumps=("h1", "h2", "g1", "g2"),
        drift=("-beta*x*y", "(beta*x-gamma1+gamma2*z)*y", "(gamma1-gamma2*z)*y"),
        diffusion=(("-(sigma*x*y*z)", "2*(sigma*x*y*z)", "-(sigma*x*y*z)"),),
        small_jump=("-h1*(x*y*z)", "(h1-h2)*(x*y*z)", "h2*(x*y*z)"),
        large_jump=("-g1*(x*y*z)", "(g1-g2)*(x*y*z)", "g2*(x*y*z)"),
    ),
    Family(
        "xc", OCTANT,
        params=("Lambda", "mu", "beta", "gamma", "epsilon", "sigma"),
        jumps=(),
        drift=("Lambda-mu*x-beta*x*y", "(beta*x-(mu+gamma+epsilon))*y", "gamma*y-mu*z"),
        diffusion=(("-(sigma*x*y)", "sigma*x*y", "0"),),
        small_jump=None,
        large_jump=None,
        infima=(("mu", ">", 0.0, "mortality"),),
    ),
    Family(
        "ex34a", OCTANT,
        params=("Lambda", "mu", "beta", "gamma1", "gamma2", "gamma3", "gamma4",
                "xi", "sigma1", "sigma2", "phi1", "phi2", "phi3"),
        jumps=("h1", "h2", "h3", "g1", "g2"),
        drift=(f"Lambda-mu*{_XD}-{_EX34A_INFECT}+gamma1*{_ZD}",
               f"{_EX34A_INFECT}+(gamma2-mu-gamma3*{_YD})*{_YD}",
               f"gamma4*{_YD}-(mu+gamma1)*{_ZD}"),
        diffusion=((f"-(sigma1*{_XD}*{_YD}/{_SAT})", f"sigma1*{_XD}*{_YD}/{_SAT}", "0"),
                   ("0", f"sigma2*{_YD}*{_ZD}", f"-(sigma2*{_YD}*{_ZD})")),
        small_jump=(f"-(h1*{_XS}*{_YS}-h3*{_XS}*{_ZS})", f"h1*{_XS}*{_YS}-h2*{_YS}*{_ZS}",
                    f"h2*{_YS}*{_ZS}-h3*{_XS}*{_ZS}"),
        large_jump=(f"-(g1*{_XS}*{_YS})", f"g1*{_XS}*{_YS}-g2*{_YS}*{_ZS}", f"g2*{_YS}*{_ZS}"),
        infima=(("xi", ">=", 1.0, "exponent"),),
    ),
    Family(
        "ex34b", OCTANT,
        params=("Lambda", "mu", "beta", "gamma1", "gamma2", "sigma"),
        jumps=("h1", "h2", "h3", "g1", "g2", "g3"),
        drift=(f"Lambda-mu*{_XD}-beta*{_XD}*{_YD}+gamma1*{_ZD}", f"(beta*{_XD}-(mu+gamma2))*{_YD}",
               f"gamma2*{_YD}-(mu+gamma1)*{_ZD}"),
        diffusion=((f"-({_EX34B_SIGMA})", f"2*({_EX34B_SIGMA})", f"-({_EX34B_SIGMA})"),),
        small_jump=(f"-(h1-h3)*{_EX34B_W}", f"(h1-h2)*{_EX34B_W}", f"(h2-h3)*{_EX34B_W}"),
        large_jump=(f"-(g1-g3)*{_EX34B_W}", f"(g1-g2)*{_EX34B_W}", f"(g2-g3)*{_EX34B_W}"),
    ),
)})

_RELATIONS = {">=": (operator.ge, "below"), ">": (operator.gt, "at or below")}


def build_named(
    model_id: str, params: Mapping, jumps: Optional[Mapping] = None,
    cap: Optional[float] = None, measure: Optional[LevyMeasure] = None,
) -> ModelSpec:
    """Build the named family ``model_id`` from its table.

    ``params`` maps each named coefficient to its text in ``t`` (or a
    number); ``jumps`` each jump constant to a number in [0, 1).  ``cap``,
    positive, is required exactly when the family's expressions use it.
    Every time coefficient is bounded over [0, oo) once, here: a
    coefficient that leaves the reals on the scan grid is rejected, and the
    family's ``infima`` run on those bounds.  The scan does not run where a
    coefficient's enclosure proves it would accept.
    """
    family = FAMILIES.get(model_id)
    if family is None:
        raise ValueError(f"unknown model family {model_id!r}; choose from {list(FAMILIES)}")
    jumps = jumps or {}
    for given, required, what in ((params, family.params, "parameters"), (jumps, family.jumps, "jump constants")):
        missing = [name for name in required if name not in given]
        if missing:
            raise ValueError(f"{model_id}: missing {what} {missing}; requires {list(required)}")
        extra = [name for name in given if name not in required]
        if extra:
            raise ValueError(f"{model_id}: does not take {what} {extra}")
    j = {name: float(jumps[name]) for name in family.jumps}
    for name, value in j.items():
        if not 0.0 <= value < 1.0:
            raise ValueError(f"{model_id}: jump constant {name}={value} outside [0, 1)")
    p, pairs = {}, {}
    for name in family.params:
        try:
            p[name] = parse(str(params[name]))
            box = None if _analytic_bounds(p[name]) is not None else _enclosure(p[name])
            if box is None or not all(_RELATIONS[r][0](box[0], bound) for n, r, bound, _ in family.infima if n == name):
                pairs[name] = bounds(p[name])  # also rejects a coefficient leaving the reals
        except ValueError as exc:
            raise ValueError(f"{model_id}: coefficient {name}: {exc}") from exc
    for name, relation, bound, meaning in family.infima:
        holds, words = _RELATIONS[relation]
        if name in pairs and not holds(pairs[name].inf, bound):  # one not in pairs met it on its enclosure
            raise ValueError(f"{model_id}: {meaning} infimum {pairs[name].inf} is {words} {bound:g}")
    if family.uses_cap:
        if cap is None:
            raise ValueError(f"{model_id}: requires a truncation cap")
        cap = float(cap)
        if cap <= 0:
            raise ValueError(f"{model_id}: truncation cap {cap} must be positive")
    elif cap is not None:
        raise ValueError(f"{model_id}: does not take cap")
    constants = j if cap is None else {**j, "cap": cap}
    return ModelSpec(model_id, family.domain, measure, **family.trees, params=p, constants=constants)


# --- generic expression-driven model ------------------------------------------

def build_custom(
    domain: str,
    drift: Sequence[str],
    diffusion: Sequence[Sequence[str]],
    small_jump: Optional[Sequence[str]] = None,
    large_jump: Optional[Sequence[str]] = None,
    measure: Optional[LevyMeasure] = None,
) -> ModelSpec:
    """Build a model from raw coefficient expressions.

    ``drift`` is three expressions in (t, x, y, z); ``diffusion`` is a
    sequence of Brownian columns, each three expressions; jump coefficients
    are three expressions in (t, x, y, z, u) or None for no jumps.  On the
    simplex domain :func:`check_structure` is a mandatory gate, at the points
    ``ussir validate`` checks: a custom model that fails conservation or
    positivity is rejected.  An expression that does not parse is named by
    its group and its 1-based index.
    """
    def trees(texts, names, where):
        for index, text in enumerate(texts, 1):
            try:
                yield parse(text, names)
            except ValueError as exc:
                raise ValueError(f"custom model {where} entry {index}: {exc}") from exc

    state_vars = ("t", "x", "y", "z")
    jump_vars = ("t", "x", "y", "z", "u")
    drift_trees = tuple(trees(drift, state_vars, "drift"))
    diff_cols = tuple(tuple(trees(col, state_vars, f"diffusion column {j},")) for j, col in enumerate(diffusion, 1))
    if not diff_cols:
        raise ValueError("at least one diffusion column is required (may be zeros)")
    small_trees = tuple(trees(small_jump, jump_vars, "small-jump")) if small_jump else None
    large_trees = tuple(trees(large_jump, jump_vars, "large-jump")) if large_jump else None
    model = ModelSpec("custom", domain, measure, drift_trees, diff_cols, small_trees, large_trees)
    if domain == SIMPLEX:
        sums, positivity = check_structure(model)
        if not sums.passed:
            raise ValueError(f"custom simplex model violates conservation (max deviation {sums.max_abs_deviation:.3e})")
        if not positivity.passed:
            raise ValueError(f"custom simplex model violates jump positivity (min ratio {positivity.min_ratio:.3e})")
    return model


# --- structural checks ---------------------------------------------------------

@dataclass(frozen=True)
class ConservationReport:
    """Row-sum cancellation of drift, diffusion columns, and both jump
    vectors at sampled (t, state, u) points."""

    max_abs_deviation: float
    breakdown: Mapping[str, float]
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class PositivityReport:
    """Minimum of the six jump positivity ratios 1 + coeff_i / state_i at
    sampled admissible points and marks."""

    min_ratio: float
    passed: bool


def check_structure(model: ModelSpec) -> tuple[Optional[ConservationReport], PositivityReport]:
    """Check the model's structure at 1000 points drawn once from one seed-0
    stream: times t in [0, 100), then admissible states, then one run of
    uniforms per region a run draws (:attr:`ModelSpec.mark_rules`, at least
    one run).  Returns the conservation report (None on the octant) and the
    positivity report.

    Conservation evaluates the simplex row sums of drift, diffusion columns
    and both jump vectors at marks spread over the whole support by the first
    run; they cancel algebraically for well-formed simplex models, so
    anything beyond rounding noise (:data:`CONSERVATION_TOL`) is a failure.
    Positivity reports the least 1 + coeff_i/state_i of each jump vector at
    marks of its own region, drawn as the engine draws them; with no region
    drawn, the ratio is 1.  The ratios are those of one mark.  A step applies
    all of its marks at its start state, so a step with several marks can
    still take a component to zero or below; the safeguard then clamps it,
    and the run counts each clamp in ``floor_hits``."""
    rng, m, rules = np.random.default_rng(0), model.measure, model.mark_rules
    pv = model.param_values(rng.uniform(0.0, 100.0, size=CHECK_POINTS))
    if model.domain == SIMPLEX:
        states = rng.dirichlet((1.0, 1.0, 1.0), size=CHECK_POINTS)
    else:
        cap = model.constants.get("cap")
        states = rng.uniform(1e-3, 10.0 if cap is None else max(10.0, 2.0 * cap), size=(CHECK_POINTS, 3))
    runs = rng.random((max(len(rules), 1), CHECK_POINTS))
    mins = []
    for region, uniforms in zip(rules, runs):
        jump_fn = model.small_jump_fn if region == SMALL else model.large_jump_fn
        mins.append(float((1.0 + jump_fn(pv, states, m.inverse_cdf(region, uniforms)) / states).min()))
    min_ratio = min(mins, default=1.0)
    positivity = PositivityReport(min_ratio=min_ratio, passed=min_ratio > 0.0)
    if model.domain != SIMPLEX:
        return None, positivity
    us = m.lo + (m.hi - m.lo) * runs[0]
    breakdown = {
        "drift": float(np.abs(model.drift_fn(pv, states).sum(axis=-1)).max()),
        # a model without Brownian drivers has a (points, 3, 0) diffusion block
        "diffusion": float(np.abs(model.diffusion_fn(pv, states).sum(axis=-2)).max(initial=0.0)),
        "small_jump": float(np.abs(model.small_jump_fn(pv, states, us).sum(axis=-1)).max()),
        "large_jump": float(np.abs(model.large_jump_fn(pv, states, us).sum(axis=-1)).max()),
    }
    worst = max(breakdown.values())
    conservation = ConservationReport(worst, breakdown, CONSERVATION_TOL, worst <= CONSERVATION_TOL)
    return conservation, positivity
