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

:func:`build_named` fills a family's table with time functions, jump
constants and (where its expressions use ``cap``) a truncation cap;
:func:`build_custom` accepts raw coefficient expressions, and on the
proportions simplex it must pass the conservation and positivity gates.
Both compile each coefficient group once with
:func:`ussir.expr.compile_program`, jump constants and cap folded in.

A model carries only its drift, diffusion and jump coefficients, plus the
per-capita loss of the infected row where the family has one; everything
else (the compensator, the per-capita forms the criteria use) is derived
from those.  Coefficients take a dict of already-evaluated time-coefficient
values (see :meth:`ModelSpec.param_values`) so that integrators evaluate
each time function once per step (or once per grid) instead of once per
coefficient use.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .expr import Node, Num, TimeFunction, bounds, compile_program, free_names, parse
from .levy import SMALL, LevyMeasure

__all__ = [
    "FAMILIES",
    "ConservationReport",
    "Family",
    "ModelSpec",
    "PositivityReport",
    "build_custom",
    "build_named",
    "check_admissible",
    "check_conservation",
    "check_positivity_ratios",
    "suppress",
]

SIMPLEX = "simplex"
OCTANT = "octant"

SIMPLEX_TOL = 1e-6


def check_admissible(state, domain: str, simplex_tol: float = SIMPLEX_TOL) -> np.ndarray:
    """Validate shape, positivity (and the unit-sum constraint on the
    simplex); return the state as a float (3,) array."""
    arr = np.asarray(state, dtype=float)
    if arr.shape != (3,):
        raise ValueError(f"state must have three components, got shape {arr.shape}")
    if not np.all(arr > 0):
        raise ValueError(f"state components must be positive, got {arr.tolist()}")
    if domain == SIMPLEX and abs(arr.sum() - 1.0) > simplex_tol:
        raise ValueError(f"simplex state must sum to 1 (got {arr.sum()!r})")
    return arr


_ZERO = Num(0.0)
# one zero row per mark, for models without jumps of a kind
_zero_jump = compile_program([_ZERO] * 3, (3,), mark=True)

_Coeff = Callable[..., np.ndarray]


@dataclass(frozen=True)
class ModelSpec:
    """Full coefficient set of one stochastic compartment system.

    Immutable after construction; shareable across threads.  Coefficient
    callables are vectorized over a leading batch axis of the state block
    ``S`` with shape (..., 3); jump callables additionally broadcast the
    mark ``u`` against the batch axes.  ``small_jump_uses_u`` is False only
    when the small-jump coefficients are known not to depend on the mark,
    which lets the compensator skip quadrature.  ``infected_loss_pc_fn``,
    when present, is the nonnegative per-capita loss of the infected row,
    so that the row's drift splits into gain minus loss.
    """

    model_id: str
    domain: str
    brownian_dim: int
    measure: LevyMeasure
    params: Mapping[str, TimeFunction]
    jump_constants: Mapping[str, float]
    truncation_cap: Optional[float]
    drift_fn: _Coeff
    diffusion_fn: _Coeff
    small_jump_fn: _Coeff
    large_jump_fn: _Coeff
    small_jump_uses_u: bool = True
    infected_loss_pc_fn: Optional[_Coeff] = None
    has_diffusion: bool = True
    has_small_jumps: bool = True
    has_large_jumps: bool = True

    def __post_init__(self):
        if self.domain not in (SIMPLEX, OCTANT):
            raise ValueError(f"domain must be {SIMPLEX!r} or {OCTANT!r}")
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))
        object.__setattr__(self, "jump_constants", MappingProxyType(dict(self.jump_constants)))
        object.__setattr__(self, "_small_mass", self.measure.mass(SMALL))

    # -- coefficient evaluation ------------------------------------------

    def param_values(self, t) -> dict:
        """Evaluate every time-dependent coefficient at ``t`` (scalar or
        array); the returned dict also carries ``t`` itself."""
        pv = {"t": t}
        for name, fn in self.params.items():
            pv[name] = fn(t)
        return pv

    def drift_pv(self, pv: Mapping, S: np.ndarray) -> np.ndarray:
        return self.drift_fn(pv, S)

    def diffusion_pv(self, pv: Mapping, S: np.ndarray) -> np.ndarray:
        return self.diffusion_fn(pv, S)

    def small_jump_pv(self, pv: Mapping, S: np.ndarray, u) -> np.ndarray:
        return self.small_jump_fn(pv, S, u)

    def large_jump_pv(self, pv: Mapping, S: np.ndarray, u) -> np.ndarray:
        return self.large_jump_fn(pv, S, u)

    def compensator_pv(self, pv: Mapping, S: np.ndarray) -> np.ndarray:
        """Small-region integral of the jump coefficient vector against the
        intensity measure: the small mass times the coefficient when it does
        not depend on the mark, midpoint quadrature otherwise."""
        if not self.small_jump_uses_u:
            return self._small_mass * self.small_jump_fn(pv, S, 0.0)
        nodes, weights = self.measure.quadrature(SMALL)
        if nodes.size == 0:
            return np.zeros(S.shape)
        lead = S.ndim - 1
        u = nodes.reshape((-1,) + (1,) * lead)
        vals = self.small_jump_fn(pv, S, u)
        w = weights.reshape((-1,) + (1,) * (vals.ndim - 1))
        return (vals * w).sum(axis=0)


def suppress(
    model: ModelSpec,
    drift: bool = False,
    diffusion: bool = True,
    small_jumps: bool = True,
    large_jumps: bool = True,
) -> ModelSpec:
    """Copy of ``model`` with the selected coefficient groups zeroed.

    ``suppress(m)`` is the deterministic companion (noise-free); drift-only
    suppression yields the pure-noise panels.
    """
    n = model.brownian_dim
    changes: dict = {}
    if drift:
        changes["drift_fn"] = lambda pv, S: np.zeros(S.shape)
        changes["infected_loss_pc_fn"] = lambda pv, S: np.zeros(S.shape[:-1])
    if diffusion:
        changes["diffusion_fn"] = lambda pv, S: np.zeros(S.shape[:-1] + (3, n))
        changes["has_diffusion"] = False
    if small_jumps:
        changes["small_jump_fn"] = _zero_jump
        changes["small_jump_uses_u"] = False
        changes["has_small_jumps"] = False
    if large_jumps:
        changes["large_jump_fn"] = _zero_jump
        changes["has_large_jumps"] = False
    return replace(model, **changes)


# --- one builder for every model ---------------------------------------------

def _assemble(
    model_id: str, domain: str, measure: Optional[LevyMeasure],
    drift: Sequence[Node], diffusion: Sequence[Sequence[Node]],
    small_jump: Optional[Sequence[Node]], large_jump: Optional[Sequence[Node]],
    loss_pc: Optional[Node] = None, params: Optional[Mapping[str, TimeFunction]] = None,
    jump_constants: Optional[Mapping[str, float]] = None, cap: Optional[float] = None,
) -> ModelSpec:
    """Compile each coefficient group once, jump constants and cap folded
    in; which noise the model carries follows from the trees."""
    constants = dict(jump_constants or {}, **({} if cap is None else {"cap": cap}))
    n = len(diffusion)
    entries = [column[i] for i in range(3) for column in diffusion]  # row-major (3, n)
    return ModelSpec(
        model_id=model_id,
        domain=domain,
        brownian_dim=n,
        measure=measure if measure is not None else LevyMeasure.uniform(-2.0, 2.0),
        params=params or {},
        jump_constants=jump_constants or {},
        truncation_cap=cap,
        drift_fn=compile_program(drift, (3,), constants),
        diffusion_fn=compile_program(entries, (3, n), constants),
        small_jump_fn=compile_program(small_jump or [_ZERO] * 3, (3,), constants, mark=True),
        large_jump_fn=compile_program(large_jump or [_ZERO] * 3, (3,), constants, mark=True),
        small_jump_uses_u=any("u" in free_names(tree) for tree in small_jump or ()),
        infected_loss_pc_fn=None if loss_pc is None else compile_program([loss_pc], (), constants),
        has_small_jumps=small_jump is not None,
        has_large_jumps=large_jump is not None,
    )


# --- named families ------------------------------------------------------------

@dataclass(frozen=True)
class Family:
    """One named model family as data.

    ``params`` name the time-dependent coefficients, ``jumps`` the jump
    constants in [0, 1); expressions may also use ``x, y, z``, ``t``, the
    cap ``cap`` and, in jump vectors, the mark ``u``.  ``diffusion`` holds
    a column per Brownian driver; a jump vector is None when absent;
    ``loss_pc`` is the infected row's nonnegative per-capita loss.
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
    loss_pc: str
    infima: tuple[tuple[str, str, float, str], ...] = ()

    @cached_property
    def trees(self) -> dict:
        """The parsed expressions, keyed and grouped as the fields are."""
        names = ("t", "x", "y", "z", "cap") + self.params + self.jumps

        def group(texts, *extra):
            return texts and [parse(text, names + extra).ast for text in texts]

        return {
            "drift": group(self.drift),
            "diffusion": [group(column) for column in self.diffusion],
            "small_jump": group(self.small_jump, "u"),
            "large_jump": group(self.large_jump, "u"),
            "loss_pc": group([self.loss_pc])[0],
        }

    @cached_property
    def uses_cap(self) -> bool:
        """Whether the family's expressions mention the truncation cap."""
        t = self.trees
        every = [*t["drift"], *sum(t["diffusion"], []), *(t["small_jump"] or ()), *(t["large_jump"] or ())]
        return any("cap" in free_names(tree) for tree in every + [t["loss_pc"]])

    def check_names(self, params: Mapping, jumps: Mapping) -> None:
        """Raise ValueError unless ``params`` and ``jumps`` name exactly the
        family's coefficients and jump constants."""
        for given, required, what in ((params, self.params, "parameters"), (jumps, self.jumps, "jump constants")):
            missing = [name for name in required if name not in given]
            if missing:
                raise ValueError(f"{self.name}: missing {what} {missing}; requires {list(required)}")
            extra = [name for name in given if name not in required]
            if extra:
                raise ValueError(f"{self.name}: does not take {what} {extra}")


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
        loss_pc="gamma",
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
        loss_pc="gamma1",
    ),
    Family(
        "xc", OCTANT,
        params=("Lambda", "mu", "beta", "gamma", "epsilon", "sigma"),
        jumps=(),
        drift=("Lambda-mu*x-beta*x*y", "(beta*x-(mu+gamma+epsilon))*y", "gamma*y-mu*z"),
        diffusion=(("-(sigma*x*y)", "sigma*x*y", "0"),),
        small_jump=None,
        large_jump=None,
        loss_pc="mu+gamma+epsilon",
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
        loss_pc=f"(mu+gamma3*{_YD})*({_YD}/y)",
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
        loss_pc=f"(mu+gamma2)*({_YD}/y)",
    ),
)})

_RELATIONS = {">=": (operator.ge, "below"), ">": (operator.gt, "at or below")}


def build_named(
    model_id: str, params: Mapping, jumps: Optional[Mapping] = None,
    cap: Optional[float] = None, measure: Optional[LevyMeasure] = None,
) -> ModelSpec:
    """Build the named family ``model_id`` from its table.

    ``params`` maps each named coefficient to a time function (its text, or
    a number); ``jumps`` each jump constant to a number in [0, 1).  ``cap``,
    positive, is required exactly when the family's expressions use it.
    The family's ``infima`` run on the coefficients' bounds over [0, oo).
    """
    family = FAMILIES.get(model_id)
    if family is None:
        raise ValueError(f"unknown model family {model_id!r}; choose from {list(FAMILIES)}")
    jumps = jumps or {}
    family.check_names(params, jumps)
    p = {name: params[name] for name in family.params}
    p = {name: v if isinstance(v, TimeFunction) else parse(str(v)) for name, v in p.items()}
    j = {name: float(jumps[name]) for name in family.jumps}
    for name, value in j.items():
        if not 0.0 <= value < 1.0:
            raise ValueError(f"{model_id}: jump constant {name}={value} outside [0, 1)")
    for name, relation, bound, meaning in family.infima:
        holds, words = _RELATIONS[relation]
        inf = bounds(p[name]).inf
        if not holds(inf, bound):
            raise ValueError(f"{model_id}: {meaning} infimum {inf} is {words} {bound:g}")
    if family.uses_cap:
        if cap is None:
            raise ValueError(f"{model_id}: requires a truncation cap")
        cap = float(cap)
        if cap <= 0:
            raise ValueError(f"{model_id}: truncation cap {cap} must be positive")
    elif cap is not None:
        raise ValueError(f"{model_id}: takes no truncation cap")
    t = family.trees
    return _assemble(
        model_id, family.domain, measure, t["drift"], t["diffusion"], t["small_jump"], t["large_jump"],
        loss_pc=t["loss_pc"], params=p, jump_constants=j, cap=cap,
    )


# --- generic expression-driven model ------------------------------------------

def build_custom(
    domain: str,
    drift: Sequence[str],
    diffusion: Sequence[Sequence[str]],
    small_jump: Optional[Sequence[str]] = None,
    large_jump: Optional[Sequence[str]] = None,
    measure: Optional[LevyMeasure] = None,
    model_id: str = "custom",
    rng: Optional[np.random.Generator] = None,
) -> ModelSpec:
    """Build a model from raw coefficient expressions.

    ``drift`` is three expressions in (t, x, y, z); ``diffusion`` is a
    sequence of Brownian columns, each three expressions; jump coefficients
    are three expressions in (t, x, y, z, u) or None for no jumps.  On the
    simplex domain the conservation and positivity checks are mandatory
    gates: a custom model that fails either is rejected.
    """
    state_vars = ("t", "x", "y", "z")
    jump_vars = ("t", "x", "y", "z", "u")
    drift_trees = [(s if isinstance(s, TimeFunction) else parse(s, state_vars)).ast for s in drift]
    if len(drift_trees) != 3:
        raise ValueError("drift needs exactly three component expressions")
    diff_cols = [[parse(s, state_vars).ast for s in col] for col in diffusion]
    if any(len(col) != 3 for col in diff_cols):
        raise ValueError("each diffusion column needs exactly three components")
    if not diff_cols:
        raise ValueError("at least one diffusion column is required (may be zeros)")
    small_trees = [parse(s, jump_vars).ast for s in small_jump] if small_jump else None
    large_trees = [parse(s, jump_vars).ast for s in large_jump] if large_jump else None
    if small_trees is not None and len(small_trees) != 3:
        raise ValueError("small_jump needs exactly three component expressions")
    if large_trees is not None and len(large_trees) != 3:
        raise ValueError("large_jump needs exactly three component expressions")
    model = _assemble(model_id, domain, measure, drift_trees, diff_cols, small_trees, large_trees)
    if domain == SIMPLEX:
        rng = rng if rng is not None else np.random.default_rng(0)
        conservation = check_conservation(model, samples=256, rng=rng)
        if not conservation.passed:
            raise ValueError(
                f"custom simplex model violates conservation "
                f"(max deviation {conservation.max_abs_deviation:.3e})"
            )
        positivity = check_positivity_ratios(model, samples=256, rng=rng)
        if not positivity.passed:
            raise ValueError(
                f"custom simplex model violates jump positivity "
                f"(min ratio {positivity.min_ratio:.3e})"
            )
    return model


# --- structural checks ---------------------------------------------------------

@dataclass(frozen=True)
class ConservationReport:
    """Row-sum cancellation of drift, diffusion columns, and both jump
    vectors at sampled (t, state, u) points."""

    max_abs_deviation: float
    breakdown: Mapping[str, float]
    samples: int
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class PositivityReport:
    """Minimum of the six jump positivity ratios 1 + coeff_i / state_i at
    sampled admissible points."""

    min_ratio: float
    samples: int
    passed: bool


def _sample_support(measure: LevyMeasure, count: int, rng: np.random.Generator) -> np.ndarray:
    pieces = measure.pieces
    lens = np.array([(hi - lo) for lo, hi, _ in pieces])
    u = rng.uniform(0.0, lens.sum(), size=count)
    cum = np.cumsum(lens)
    idx = np.searchsorted(cum, u, side="right")
    lows = np.array([p[0] for p in pieces])
    return lows[idx] + (u - np.concatenate(([0.0], cum[:-1]))[idx])


def _sample_states(model: ModelSpec, count: int, rng: np.random.Generator) -> np.ndarray:
    if model.domain == SIMPLEX:
        return rng.dirichlet((1.0, 1.0, 1.0), size=count)
    hi = 10.0 if model.truncation_cap is None else max(10.0, 2.0 * model.truncation_cap)
    return rng.uniform(1e-3, hi, size=(count, 3))


def check_conservation(
    model: ModelSpec,
    samples: int = 1000,
    rng: Optional[np.random.Generator] = None,
    t_hi: float = 100.0,
    tolerance: float = 1e-12,
) -> ConservationReport:
    """Verify the simplex row-sum identities at random (t, state, u) points.

    The four sums cancel algebraically for well-formed simplex models, so
    anything beyond rounding noise (default gate 1e-12) is a failure.
    """
    if model.domain != SIMPLEX:
        raise ValueError("conservation check applies to simplex models only")
    rng = rng if rng is not None else np.random.default_rng(0)
    ts = rng.uniform(0.0, t_hi, size=samples)
    states = _sample_states(model, samples, rng)
    us = _sample_support(model.measure, samples, rng)
    pv = model.param_values(ts)
    breakdown = {
        "drift": float(np.abs(model.drift_pv(pv, states).sum(axis=-1)).max()),
        "diffusion": float(np.abs(model.diffusion_pv(pv, states).sum(axis=-2)).max()),
        "small_jump": float(np.abs(model.small_jump_pv(pv, states, us).sum(axis=-1)).max()),
        "large_jump": float(np.abs(model.large_jump_pv(pv, states, us).sum(axis=-1)).max()),
    }
    worst = max(breakdown.values())
    return ConservationReport(
        max_abs_deviation=worst,
        breakdown=breakdown,
        samples=samples,
        tolerance=tolerance,
        passed=worst <= tolerance,
    )


def check_positivity_ratios(
    model: ModelSpec,
    samples: int = 1000,
    rng: Optional[np.random.Generator] = None,
    t_hi: float = 100.0,
) -> PositivityReport:
    """Verify 1 + coeff_i/state_i > 0 for both jump vectors at sampled
    admissible points; reports the minimum ratio found."""
    rng = rng if rng is not None else np.random.default_rng(0)
    ts = rng.uniform(0.0, t_hi, size=samples)
    states = _sample_states(model, samples, rng)
    us = _sample_support(model.measure, samples, rng)
    pv = model.param_values(ts)
    small = model.small_jump_pv(pv, states, us)
    large = model.large_jump_pv(pv, states, us)
    ratios = np.concatenate([1.0 + small / states, 1.0 + large / states], axis=0)
    min_ratio = float(ratios.min())
    return PositivityReport(min_ratio=min_ratio, samples=samples, passed=min_ratio > 0.0)
