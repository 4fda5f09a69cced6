"""Concrete three-compartment stochastic models and their validity checks.

Five ready-made systems are provided:

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

A generic constructor (:func:`build_custom`) accepts raw coefficient
expressions for experiments outside this family; on the proportions simplex
it must pass the conservation and positivity gates before it is returned.

A model carries only its drift, diffusion and jump coefficients, plus the
per-capita loss of the infected row where the family has one; everything
else (the compensator, the per-capita forms the criteria use) is derived
from those.  Coefficients take a dict of already-evaluated time-coefficient
values (see :meth:`ModelSpec.param_values`) so that integrators evaluate
each time function once per step (or once per grid) instead of once per
coefficient use.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np

from .expr import TimeFunction, bounds, evaluate, free_names, parse
from .levy import SMALL, LevyMeasure

__all__ = [
    "ConservationReport",
    "ModelSpec",
    "PositivityReport",
    "build_custom",
    "build_ex1",
    "build_ex1b",
    "build_ex34a",
    "build_ex34b",
    "build_xc",
    "check_admissible",
    "check_conservation",
    "check_positivity_ratios",
    "dagger",
    "star",
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


def star(x):
    """Truncation at one: min(x, 1).  Idempotent and monotone."""
    return np.minimum(x, 1.0)


def dagger(x, cap: float):
    """Truncation at the cap: min(x, cap).  Idempotent and monotone."""
    return np.minimum(x, cap)


def _with_u(u, S: np.ndarray):
    """Broadcast a mark array against the state block.

    Returns (u, X, Y, Z) all broadcast to a common shape so that
    u-independent coefficients still produce one output row per mark.  A
    float mark adds no axis, so the state columns come back as they are.
    """
    if isinstance(u, float):
        return u, S[..., 0], S[..., 1], S[..., 2]
    u = np.asarray(u, dtype=float)
    shape = np.broadcast_shapes(u.shape, S.shape[:-1])
    return (
        np.broadcast_to(u, shape),
        np.broadcast_to(S[..., 0], shape),
        np.broadcast_to(S[..., 1], shape),
        np.broadcast_to(S[..., 2], shape),
    )


def _zero_jump(pv, S, u):
    _, X, _, _ = _with_u(u, S)
    return np.zeros(X.shape + (3,))


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


# --- shared builder plumbing -------------------------------------------------

def _as_timefunction(value: Union[TimeFunction, str, float, int]) -> TimeFunction:
    if isinstance(value, TimeFunction):
        return value
    if isinstance(value, (int, float)):
        return parse(repr(float(value)))
    return parse(value)


def _collect_params(params: Mapping, required: Sequence[str], model_id: str) -> dict:
    missing = [name for name in required if name not in params]
    if missing:
        raise ValueError(f"{model_id}: missing parameters {missing}")
    extra = [name for name in params if name not in required]
    if extra:
        raise ValueError(f"{model_id}: unexpected parameters {extra}")
    return {name: _as_timefunction(params[name]) for name in required}


def _collect_jumps(jumps: Mapping, required: Sequence[str], model_id: str) -> dict:
    missing = [name for name in required if name not in jumps]
    if missing:
        raise ValueError(f"{model_id}: missing jump constants {missing}")
    extra = [name for name in jumps if name not in required]
    if extra:
        raise ValueError(f"{model_id}: unexpected jump constants {extra}")
    out = {}
    for name in required:
        value = float(jumps[name])
        if not 0.0 <= value < 1.0:
            raise ValueError(f"{model_id}: jump constant {name}={value} outside [0, 1)")
        out[name] = value
    return out


def _default_measure(measure: Optional[LevyMeasure]) -> LevyMeasure:
    return measure if measure is not None else LevyMeasure.uniform(-2.0, 2.0)


def _require_xi_at_least_one(xi: TimeFunction, model_id: str) -> None:
    b = bounds(xi)
    if b.inf < 1.0:
        raise ValueError(f"{model_id}: exponent infimum {b.inf} is below 1")


# --- ex1 ---------------------------------------------------------------------

EX1_PARAMS = ("beta", "gamma", "xi", "sigma1", "sigma2", "phi1", "phi2", "phi3")
EX1_JUMPS = ("h1", "h2", "g1", "g2")


def build_ex1(params: Mapping, jumps: Mapping, measure: Optional[LevyMeasure] = None) -> ModelSpec:
    """Proportions model with power-law transmission.

    Requires the transmission exponent to stay at or above one and every
    jump constant in [0, 1); both are what keep states on the simplex.
    """
    p = _collect_params(params, EX1_PARAMS, "ex1")
    j = _collect_jumps(jumps, EX1_JUMPS, "ex1")
    _require_xi_at_least_one(p["xi"], "ex1")
    measure = _default_measure(measure)
    h1, h2, g1, g2 = j["h1"], j["h2"], j["g1"], j["g2"]

    def _denom(pv, X, Y):
        return 1.0 + pv["phi1"] * X + pv["phi2"] * Y + pv["phi3"] * X * Y

    def drift(pv, S):
        X, Y = S[..., 0], S[..., 1]
        infect = pv["beta"] * X ** pv["xi"] * Y / _denom(pv, X, Y)
        recover = pv["gamma"] * Y
        return np.stack([-infect, infect - recover, recover], axis=-1)

    def diffusion(pv, S):
        X, Y, Z = S[..., 0], S[..., 1], S[..., 2]
        s1 = pv["sigma1"] * X * Y / _denom(pv, X, Y)
        s2 = pv["sigma2"] * Y * Z
        zero = np.zeros(np.broadcast_shapes(np.shape(s1), np.shape(s2)))
        col1 = np.stack([-s1, s1 + zero, zero], axis=-1)
        col2 = np.stack([zero, s2 + zero, -s2 + zero], axis=-1)
        return np.stack([col1, col2], axis=-1)

    def small(pv, S, u):
        _, X, Y, Z = _with_u(u, S)
        a = h1 * X * Y
        b = h2 * Y * Z
        return np.stack([-a, a - b, b], axis=-1)

    def large(pv, S, u):
        _, X, Y, Z = _with_u(u, S)
        a = g1 * X * Y
        b = g2 * Y * Z
        return np.stack([-a, a - b, b], axis=-1)

    def loss_pc(pv, S):
        return pv["gamma"] + 0.0 * S[..., 0]

    return ModelSpec(
        model_id="ex1",
        domain=SIMPLEX,
        brownian_dim=2,
        measure=measure,
        params=p,
        jump_constants=j,
        truncation_cap=None,
        drift_fn=drift,
        diffusion_fn=diffusion,
        small_jump_fn=small,
        large_jump_fn=large,
        small_jump_uses_u=False,
        infected_loss_pc_fn=loss_pc,
    )


# --- ex1b --------------------------------------------------------------------

EX1B_PARAMS = ("beta", "gamma1", "gamma2", "sigma")
EX1B_JUMPS = ("h1", "h2", "g1", "g2")


def build_ex1b(params: Mapping, jumps: Mapping, measure: Optional[LevyMeasure] = None) -> ModelSpec:
    """Proportions model with linear transmission and triple-product noise.

    The infected diffusion row carries twice the common amplitude, so the
    three rows of the single Brownian column cancel exactly.
    """
    p = _collect_params(params, EX1B_PARAMS, "ex1b")
    j = _collect_jumps(jumps, EX1B_JUMPS, "ex1b")
    measure = _default_measure(measure)
    h1, h2, g1, g2 = j["h1"], j["h2"], j["g1"], j["g2"]

    def drift(pv, S):
        X, Y, Z = S[..., 0], S[..., 1], S[..., 2]
        b1 = -pv["beta"] * X * Y
        b2 = (pv["beta"] * X - pv["gamma1"] + pv["gamma2"] * Z) * Y
        b3 = (pv["gamma1"] - pv["gamma2"] * Z) * Y
        return np.stack([b1, b2, b3], axis=-1)

    def diffusion(pv, S):
        X, Y, Z = S[..., 0], S[..., 1], S[..., 2]
        s = pv["sigma"] * X * Y * Z
        return np.stack([-s, 2.0 * s, -s], axis=-1)[..., None]

    def small(pv, S, u):
        _, X, Y, Z = _with_u(u, S)
        w = X * Y * Z
        return np.stack([-h1 * w, (h1 - h2) * w, h2 * w], axis=-1)

    def large(pv, S, u):
        _, X, Y, Z = _with_u(u, S)
        w = X * Y * Z
        return np.stack([-g1 * w, (g1 - g2) * w, g2 * w], axis=-1)

    def loss_pc(pv, S):
        return pv["gamma1"] + 0.0 * S[..., 0]

    return ModelSpec(
        model_id="ex1b",
        domain=SIMPLEX,
        brownian_dim=1,
        measure=measure,
        params=p,
        jump_constants=j,
        truncation_cap=None,
        drift_fn=drift,
        diffusion_fn=diffusion,
        small_jump_fn=small,
        large_jump_fn=large,
        small_jump_uses_u=False,
        infected_loss_pc_fn=loss_pc,
    )


# --- xc ----------------------------------------------------------------------

XC_PARAMS = ("Lambda", "mu", "beta", "gamma", "epsilon", "sigma")


def build_xc(params: Mapping, measure: Optional[LevyMeasure] = None) -> ModelSpec:
    """Population-count model with demography, multiplicative transmission
    noise, and no jumps.  Mortality must be bounded away from zero."""
    p = _collect_params(params, XC_PARAMS, "xc")
    mu_inf = bounds(p["mu"]).inf
    if mu_inf <= 0.0:
        raise ValueError(f"xc: mortality infimum {mu_inf} must be positive")
    measure = _default_measure(measure)

    def drift(pv, S):
        X, Y, Z = S[..., 0], S[..., 1], S[..., 2]
        b1 = pv["Lambda"] - pv["mu"] * X - pv["beta"] * X * Y
        b2 = (pv["beta"] * X - (pv["mu"] + pv["gamma"] + pv["epsilon"])) * Y
        b3 = pv["gamma"] * Y - pv["mu"] * Z
        return np.stack([b1, b2, b3], axis=-1)

    def diffusion(pv, S):
        X, Y = S[..., 0], S[..., 1]
        s = pv["sigma"] * X * Y
        return np.stack([-s, s + 0.0 * s, 0.0 * s], axis=-1)[..., None]

    def loss_pc(pv, S):
        return pv["mu"] + pv["gamma"] + pv["epsilon"] + 0.0 * S[..., 0]

    return ModelSpec(
        model_id="xc",
        domain=OCTANT,
        brownian_dim=1,
        measure=measure,
        params=p,
        jump_constants={},
        truncation_cap=None,
        drift_fn=drift,
        diffusion_fn=diffusion,
        small_jump_fn=_zero_jump,
        large_jump_fn=_zero_jump,
        small_jump_uses_u=False,
        infected_loss_pc_fn=loss_pc,
        has_small_jumps=False,
        has_large_jumps=False,
    )


# --- ex34a -------------------------------------------------------------------

EX34A_PARAMS = (
    "Lambda", "mu", "beta", "gamma1", "gamma2", "gamma3", "gamma4",
    "xi", "sigma1", "sigma2", "phi1", "phi2", "phi3",
)
EX34A_JUMPS = ("h1", "h2", "h3", "g1", "g2")


def build_ex34a(params: Mapping, jumps: Mapping, cap: float, measure: Optional[LevyMeasure] = None) -> ModelSpec:
    """Population-count model with power-law transmission and truncations:
    min-with-cap inside drift/diffusion, min-with-one inside jumps."""
    p = _collect_params(params, EX34A_PARAMS, "ex34a")
    j = _collect_jumps(jumps, EX34A_JUMPS, "ex34a")
    _require_xi_at_least_one(p["xi"], "ex34a")
    cap = float(cap)
    if cap <= 0:
        raise ValueError(f"ex34a: truncation cap {cap} must be positive")
    measure = _default_measure(measure)
    h1, h2, h3, g1, g2 = (j[k] for k in EX34A_JUMPS)

    def _denom(pv, X, Y):
        return 1.0 + pv["phi1"] * X + pv["phi2"] * Y + pv["phi3"] * X * Y

    def drift(pv, S):
        X, Y, Z = S[..., 0], S[..., 1], S[..., 2]
        Xd, Yd, Zd = dagger(X, cap), dagger(Y, cap), dagger(Z, cap)
        infect = pv["beta"] * Xd * Yd ** pv["xi"] / _denom(pv, X, Y)
        b1 = pv["Lambda"] - pv["mu"] * Xd - infect + pv["gamma1"] * Zd
        b2 = infect + (pv["gamma2"] - pv["mu"] - pv["gamma3"] * Yd) * Yd
        b3 = pv["gamma4"] * Yd - (pv["mu"] + pv["gamma1"]) * Zd
        return np.stack([b1, b2, b3], axis=-1)

    def diffusion(pv, S):
        X, Y, Z = S[..., 0], S[..., 1], S[..., 2]
        Xd, Yd, Zd = dagger(X, cap), dagger(Y, cap), dagger(Z, cap)
        s1 = pv["sigma1"] * Xd * Yd / _denom(pv, X, Y)
        s2 = pv["sigma2"] * Yd * Zd
        zero = np.zeros(np.broadcast_shapes(np.shape(s1), np.shape(s2)))
        col1 = np.stack([-s1, s1 + zero, zero], axis=-1)
        col2 = np.stack([zero, s2 + zero, -s2 + zero], axis=-1)
        return np.stack([col1, col2], axis=-1)

    def small(pv, S, u):
        _, X, Y, Z = _with_u(u, S)
        Xs, Ys, Zs = star(X), star(Y), star(Z)
        xy, yz, xz = h1 * Xs * Ys, h2 * Ys * Zs, h3 * Xs * Zs
        return np.stack([-(xy - xz), xy - yz, yz - xz], axis=-1)

    def large(pv, S, u):
        _, X, Y, Z = _with_u(u, S)
        Xs, Ys, Zs = star(X), star(Y), star(Z)
        xy, yz = g1 * Xs * Ys, g2 * Ys * Zs
        return np.stack([-xy, xy - yz, yz + 0.0 * xy], axis=-1)

    def loss_pc(pv, S):
        Y = S[..., 1]
        Yd = dagger(Y, cap)
        return (pv["mu"] + pv["gamma3"] * Yd) * (Yd / Y)

    return ModelSpec(
        model_id="ex34a",
        domain=OCTANT,
        brownian_dim=2,
        measure=measure,
        params=p,
        jump_constants=j,
        truncation_cap=cap,
        drift_fn=drift,
        diffusion_fn=diffusion,
        small_jump_fn=small,
        large_jump_fn=large,
        small_jump_uses_u=False,
        infected_loss_pc_fn=loss_pc,
    )


# --- ex34b -------------------------------------------------------------------

EX34B_PARAMS = ("Lambda", "mu", "beta", "gamma1", "gamma2", "sigma")
EX34B_JUMPS = ("h1", "h2", "h3", "g1", "g2", "g3")


def build_ex34b(params: Mapping, jumps: Mapping, cap: float, measure: Optional[LevyMeasure] = None) -> ModelSpec:
    """Population-count model with linear transmission and truncations; the
    jump coefficients share one triple product with pairwise differences."""
    p = _collect_params(params, EX34B_PARAMS, "ex34b")
    j = _collect_jumps(jumps, EX34B_JUMPS, "ex34b")
    cap = float(cap)
    if cap <= 0:
        raise ValueError(f"ex34b: truncation cap {cap} must be positive")
    measure = _default_measure(measure)
    h1, h2, h3, g1, g2, g3 = (j[k] for k in EX34B_JUMPS)

    def drift(pv, S):
        X, Y, Z = S[..., 0], S[..., 1], S[..., 2]
        Xd, Yd, Zd = dagger(X, cap), dagger(Y, cap), dagger(Z, cap)
        b1 = pv["Lambda"] - pv["mu"] * Xd - pv["beta"] * Xd * Yd + pv["gamma1"] * Zd
        b2 = (pv["beta"] * Xd - (pv["mu"] + pv["gamma2"])) * Yd
        b3 = pv["gamma2"] * Yd - (pv["mu"] + pv["gamma1"]) * Zd
        return np.stack([b1, b2, b3], axis=-1)

    def diffusion(pv, S):
        X, Y, Z = S[..., 0], S[..., 1], S[..., 2]
        s = pv["sigma"] * dagger(X, cap) * dagger(Y, cap) * dagger(Z, cap)
        return np.stack([-s, 2.0 * s, -s], axis=-1)[..., None]

    def small(pv, S, u):
        _, X, Y, Z = _with_u(u, S)
        w = star(X) * star(Y) * star(Z)
        return np.stack([-(h1 - h3) * w, (h1 - h2) * w, (h2 - h3) * w], axis=-1)

    def large(pv, S, u):
        _, X, Y, Z = _with_u(u, S)
        w = star(X) * star(Y) * star(Z)
        return np.stack([-(g1 - g3) * w, (g1 - g2) * w, (g2 - g3) * w], axis=-1)

    def loss_pc(pv, S):
        Y = S[..., 1]
        return (pv["mu"] + pv["gamma2"]) * (dagger(Y, cap) / Y)

    return ModelSpec(
        model_id="ex34b",
        domain=OCTANT,
        brownian_dim=1,
        measure=measure,
        params=p,
        jump_constants=j,
        truncation_cap=cap,
        drift_fn=drift,
        diffusion_fn=diffusion,
        small_jump_fn=small,
        large_jump_fn=large,
        small_jump_uses_u=False,
        infected_loss_pc_fn=loss_pc,
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
    drift_fns = [parse(s, state_vars) if not isinstance(s, TimeFunction) else s for s in drift]
    if len(drift_fns) != 3:
        raise ValueError("drift needs exactly three component expressions")
    diff_cols = [[parse(s, state_vars) for s in col] for col in diffusion]
    if any(len(col) != 3 for col in diff_cols):
        raise ValueError("each diffusion column needs exactly three components")
    n = len(diff_cols)
    if n == 0:
        raise ValueError("at least one diffusion column is required (may be zeros)")
    small_fns = [parse(s, jump_vars) for s in small_jump] if small_jump else None
    large_fns = [parse(s, jump_vars) for s in large_jump] if large_jump else None
    if small_fns is not None and len(small_fns) != 3:
        raise ValueError("small_jump needs exactly three component expressions")
    if large_fns is not None and len(large_fns) != 3:
        raise ValueError("large_jump needs exactly three component expressions")
    measure = _default_measure(measure)

    def _eval_state(fn, pv, X, Y, Z):
        out = np.asarray(evaluate(fn, pv["t"], x=X, y=Y, z=Z), dtype=float)
        return np.broadcast_to(out, np.broadcast_shapes(out.shape, X.shape))

    def drift_fn(pv, S):
        X, Y, Z = S[..., 0], S[..., 1], S[..., 2]
        return np.stack([_eval_state(f, pv, X, Y, Z) for f in drift_fns], axis=-1)

    def diffusion_fn(pv, S):
        X, Y, Z = S[..., 0], S[..., 1], S[..., 2]
        cols = [
            np.stack([_eval_state(f, pv, X, Y, Z) for f in col], axis=-1)
            for col in diff_cols
        ]
        return np.stack(cols, axis=-1)

    def _jump_fn(fns):
        if fns is None:
            return _zero_jump

        def fn(pv, S, u):
            u_, X, Y, Z = _with_u(u, S)
            comps = []
            for f in fns:
                out = np.asarray(evaluate(f, pv["t"], x=X, y=Y, z=Z, u=u_), dtype=float)
                comps.append(np.broadcast_to(out, X.shape))
            return np.stack(comps, axis=-1)

        return fn

    model = ModelSpec(
        model_id=model_id,
        domain=domain,
        brownian_dim=n,
        measure=measure,
        params={},
        jump_constants={},
        truncation_cap=None,
        drift_fn=drift_fn,
        diffusion_fn=diffusion_fn,
        small_jump_fn=_jump_fn(small_fns),
        large_jump_fn=_jump_fn(large_fns),
        small_jump_uses_u=any("u" in free_names(f.ast) for f in small_fns or ()),
        has_small_jumps=small_fns is not None,
        has_large_jumps=large_fns is not None,
    )
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
