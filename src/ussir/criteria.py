"""Closed-form extinction/persistence thresholds and a grid estimator.

Each named model family has a one-sided sufficient criterion built from
coefficient bounds over [0, oo): either an exponential decay rate for the
infected compartment (extinction) or a pair (lambda0, lambda) whose ratio
bounds the long-run time average of the infected compartment from below
(persistence).  Every gate of a criterion is a :class:`SideCondition`
``lhs < rhs`` (or ``lhs <= rhs`` where the paper's inequality is not
strict).  The criteria are one-sided: when a gate fails the verdict is
"indeterminate", never the opposite classification.

All closed-form functions are pure functions of :class:`BoundsPair` inputs
and jump-constant suprema, so analytically-bounded and user-supplied bounds
share one code path.  :func:`report_for_model` binds a criterion's
arguments by name: a jump constant, the truncation ``cap``, or the bounds
of that time coefficient, so a report bounds only what its criterion
reads.  :func:`generic_alpha_estimate` evaluates the underlying
drift-diffusion-jump decay functional on explicit (t, state) grids,
integrating in the mark variable by the model's mark rule of each drawn
region (:attr:`ussir.models.ModelSpec.mark_rules`); it gives a grid lower
bound of the true supremum, not a certified value.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .expr import BoundsPair, bounds
from .levy import LARGE, SMALL
from .models import ModelSpec

__all__ = [
    "CRITERIA_CSV_HEADER",
    "CriteriaReport",
    "NoCriterionError",
    "SideCondition",
    "ex1_extinction",
    "ex1b_persistence",
    "ex34a_persistence",
    "ex34b_extinction",
    "generic_alpha_estimate",
    "report_for_model",
    "simplex_grid",
    "xc_report",
]

EXTINCT = "extinct"
PERSISTENT = "persistent"
INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class SideCondition:
    """One gate of a criterion: it holds when ``lhs < rhs``, or
    ``lhs <= rhs`` when ``strict`` is false."""

    name: str
    lhs: float
    rhs: float
    strict: bool = True

    @property
    def satisfied(self) -> bool:
        return self.lhs < self.rhs if self.strict else self.lhs <= self.rhs


def _fmt(value) -> str:
    if value is None:
        return ""
    return value if isinstance(value, str) else f"{value:.17g}"


def _yes(cond: SideCondition) -> str:
    return "yes" if cond.satisfied else "no"


# (key, attribute) of every scalar field, in text and CSV order
_FIELDS = (
    ("model", "model_id"),
    ("classification", "classification"),
    ("extinction_rate_lb", "extinction_rate_lb"),
    ("lambda0", "lambda0"),
    ("lambda", "lam"),
    ("mean_infected_lb", "mean_infected_lb"),
    ("r_tilde", "r_tilde"),
    ("invariant_set_bound", "invariant_set_bound"),
)

CRITERIA_CSV_HEADER = [key for key, _ in _FIELDS] + ["side_conditions"]


@dataclass(frozen=True)
class CriteriaReport:
    """Outcome of one closed-form criterion.

    ``classification`` is one of extinct / persistent / indeterminate.
    Rate and threshold fields are populated whenever their formula is
    computable, even if a gate failed; the classification alone carries the
    verdict.
    """

    model_id: str
    classification: str
    extinction_rate_lb: Optional[float] = None
    lambda0: Optional[float] = None
    lam: Optional[float] = None
    mean_infected_lb: Optional[float] = None
    r_tilde: Optional[float] = None
    invariant_set_bound: Optional[float] = None
    side_conditions: tuple[SideCondition, ...] = ()

    def condition(self, name: str) -> SideCondition:
        for cond in self.side_conditions:
            if cond.name == name:
                return cond
        raise KeyError(name)

    def _cells(self) -> list[tuple[str, str]]:
        return [(key, _fmt(getattr(self, attr))) for key, attr in _FIELDS]

    def to_text(self) -> str:
        lines = [f"{key}: {value}" for key, value in self._cells()]
        lines += [
            f"side_condition: {c.name} satisfied={_yes(c)} lhs={c.lhs:.17g} rhs={c.rhs:.17g}"
            for c in self.side_conditions
        ]
        return "\n".join(lines) + "\n"

    def to_csv_row(self) -> list[str]:
        conds = ";".join(f"{c.name}:{_yes(c)}:{c.lhs:.17g}:{c.rhs:.17g}" for c in self.side_conditions)
        return [value for _, value in self._cells()] + [conds]


# --- closed-form criteria -------------------------------------------------------

def _gated(model_id: str, verdict: str, conds: tuple[SideCondition, ...], **fields) -> CriteriaReport:
    """Report ``verdict`` when every gate holds, indeterminate otherwise."""
    ok = all(c.satisfied for c in conds)
    return CriteriaReport(model_id, verdict if ok else INDETERMINATE, side_conditions=conds, **fields)


def ex1_extinction(beta: BoundsPair, gamma: BoundsPair, g1: float) -> CriteriaReport:
    """Extinction rate bound for the power-law transmission proportions
    model: recovery infimum minus transmission supremum minus twice the
    large-jump cap."""
    gate = SideCondition("beta_sup_plus_2g1_lt_gamma_inf", beta.sup + 2.0 * g1, gamma.inf)
    return _gated("ex1", EXTINCT, (gate,), extinction_rate_lb=gamma.inf - beta.sup - 2.0 * g1)


def ex1b_persistence(
    beta: BoundsPair,
    gamma1: BoundsPair,
    gamma2: BoundsPair,
    sigma: BoundsPair,
    h1: float,
    h2: float,
    g2: float,
) -> CriteriaReport:
    """Persistence pair for the linear-transmission proportions model."""
    bracket = sigma.sup**2 + h1 - math.log((1.0 - h2) * (1.0 - g2))
    lambda0 = gamma2.inf
    lam = gamma2.inf - gamma1.sup - 2.0 * bracket
    conds = (
        SideCondition("gamma1_sup_lt_beta_inf", gamma1.sup, beta.inf),
        SideCondition("beta_inf_le_gamma2_inf", beta.inf, gamma2.inf, strict=False),
        SideCondition("noise_bracket_lt_half_gap", bracket, (gamma2.inf - gamma1.sup) / 2.0),
    )
    return _gated("ex1b", PERSISTENT, conds, lambda0=lambda0, lam=lam, mean_infected_lb=lam / lambda0)


def xc_report(
    Lambda: BoundsPair,
    mu: BoundsPair,
    beta: BoundsPair,
    gamma: BoundsPair,
    epsilon: BoundsPair,
    sigma: BoundsPair,
) -> CriteriaReport:
    """Threshold report for the demography model: two extinction regimes
    (noise-adjusted reproduction threshold below one, or dominant noise)
    and one persistence regime, plus the invariant-set bound."""
    if mu.inf <= 0.0:
        raise ValueError("mortality infimum must be positive")
    denom_ext = mu.inf + gamma.inf + epsilon.inf
    sigma_inf_sq = sigma.inf**2
    r_ext = (
        beta.sup * Lambda.sup / (mu.inf * denom_ext)
        - sigma_inf_sq * Lambda.sup**2 / (2.0 * mu.inf**2 * denom_ext)
    )
    low_noise_cap = mu.inf * beta.sup / Lambda.sup
    high_noise_floor = max(low_noise_cap, beta.sup**2 / (2.0 * denom_ext))
    denom_pers = mu.sup + gamma.sup + epsilon.sup
    r_pers = (
        beta.inf * Lambda.inf / (mu.sup * denom_pers)
        - sigma.sup**2 * Lambda.sup**2 / (2.0 * mu.inf**2 * denom_pers)
    )
    conds = (
        SideCondition("sigma_inf_sq_le_low_noise_cap", sigma_inf_sq, low_noise_cap, strict=False),
        SideCondition("r_tilde_lt_one", r_ext, 1.0),
        SideCondition("sigma_inf_sq_gt_high_noise_floor", high_noise_floor, sigma_inf_sq),
        SideCondition("r_tilde_pers_gt_one", 1.0, r_pers),
    )
    low_noise, below_one, high_noise, persistent = (c.satisfied for c in conds)
    r_tilde, fields = r_ext, {}
    if low_noise and below_one:
        classification = EXTINCT
        fields["extinction_rate_lb"] = denom_ext * (1.0 - r_ext)
    elif high_noise:
        classification = EXTINCT
        fields["extinction_rate_lb"] = denom_ext - beta.sup**2 / (2.0 * sigma_inf_sq)
    elif persistent:
        classification, r_tilde = PERSISTENT, r_pers
        mean_lb = mu.sup * (r_pers - 1.0) / beta.inf
        lambda0 = beta.inf * denom_pers / mu.sup
        fields.update(lambda0=lambda0, lam=lambda0 * mean_lb, mean_infected_lb=mean_lb)
    else:
        classification = INDETERMINATE
    return CriteriaReport(
        "xc", classification, r_tilde=r_tilde, invariant_set_bound=Lambda.sup / mu.inf,
        side_conditions=conds, **fields,
    )


def ex34a_persistence(
    mu: BoundsPair,
    gamma2: BoundsPair,
    gamma3: BoundsPair,
    sigma1: BoundsPair,
    sigma2: BoundsPair,
    h1: float,
    h2: float,
    g2: float,
    cap: float,
) -> CriteriaReport:
    """Persistence pair for the truncated power-law population model."""
    growth_floor = min(cap, gamma2.inf - mu.sup)
    noise = sigma1.sup**2 + sigma2.sup**2
    log_term = h1 - math.log((1.0 - h2) * (1.0 - g2))
    lambda0 = gamma3.sup + 1.0
    lam = growth_floor - (noise / 2.0 + log_term)
    conds = (
        SideCondition("mu_sup_lt_gamma2_inf", mu.sup, gamma2.inf),
        SideCondition("noise_lt_twice_growth_floor", noise + 2.0 * log_term, 2.0 * growth_floor),
    )
    return _gated("ex34a", PERSISTENT, conds, lambda0=lambda0, lam=lam, mean_infected_lb=lam / lambda0)


def ex34b_extinction(mu: BoundsPair, beta: BoundsPair, gamma2: BoundsPair, g1: float) -> CriteriaReport:
    """Extinction rate bound for the truncated linear-transmission
    population model."""
    gate = SideCondition("beta_sup_plus_2g1_lt_gamma2_inf_plus_mu_inf", beta.sup + 2.0 * g1, gamma2.inf + mu.inf)
    return _gated("ex34b", EXTINCT, (gate,), extinction_rate_lb=gamma2.inf + mu.inf - beta.sup - 2.0 * g1)


# each criterion's parameters are named as its family's coefficients
_CRITERIA = {
    "ex1": ex1_extinction,
    "ex1b": ex1b_persistence,
    "xc": xc_report,
    "ex34a": ex34a_persistence,
    "ex34b": ex34b_extinction,
}


class NoCriterionError(ValueError):
    """The model's family has no closed-form criterion."""


def report_for_model(model: ModelSpec) -> CriteriaReport:
    """Compute the closed-form report for a built named model.  Each
    argument of the family's criterion is bound by name to a jump constant,
    the truncation cap, or the bounds of that time coefficient."""
    criterion = _CRITERIA.get(model.model_id)
    if criterion is None:
        raise NoCriterionError(
            f"no closed-form criterion for model {model.model_id!r}; "
            "use generic_alpha_estimate on explicit grids instead"
        )
    constants, names = model.constants, inspect.signature(criterion).parameters
    try:
        return criterion(**{n: constants[n] if n in constants else bounds(model.params[n]) for n in names})
    except ArithmeticError as exc:  # a bound at zero or a square beyond float range
        raise ValueError(f"{model.model_id} criterion is undefined on these coefficient bounds: {exc}") from exc


# --- grid estimator ---------------------------------------------------------------

def simplex_grid(nx: int, ny: int) -> np.ndarray:
    """Interior grid of the proportions simplex with a margin of 1e-3 to
    every face, so the infected component stays away from zero.  Returns an
    (N, 3) state block."""
    margin = 1e-3
    xs = np.linspace(margin, 1.0 - margin - 2.0 * margin, nx)
    fractions = np.linspace(0.0, 1.0, ny)
    x = np.repeat(xs, ny)
    span = 1.0 - x - margin - margin
    y = margin + np.tile(fractions, nx) * span
    return np.stack([x, y, 1.0 - x - y], axis=-1)


def _jump_integral(model: ModelSpec, pv, states, region: str, transform) -> float:
    """integral over the region of sup over states of transform(ratio),
    against the intensity measure, by the region's mark rule in chunks of
    64 nodes."""
    if region not in model.mark_rules:  # no run draws its marks
        return 0.0
    u_chunk = 64
    nodes, weights = model.mark_rules[region]
    jump_fn = model.small_jump_fn if region == SMALL else model.large_jump_fn
    total = 0.0
    for start in range(0, nodes.size, u_chunk):
        u = nodes[start : start + u_chunk, None]
        ratios = jump_fn(pv, states, u)[..., 1] / states[:, 1]
        if np.any(ratios <= -1.0):
            raise ValueError("jump ratio at or below -1 on the grid; positivity violated")
        total += float(weights[start : start + u_chunk] @ transform(ratios).max(axis=1))
    return total


def generic_alpha_estimate(
    model: ModelSpec,
    t_grid: Sequence[float],
    state_grid: np.ndarray,
) -> float:
    """Grid estimate of the decay functional: the maximum over times of the
    state supremum of per-capita infected drift minus half the squared
    per-capita diffusion, plus the mark integrals of the compensated
    log-ratio (small region) and log-ratio (large region).

    A grid estimate is a lower bound of the true supremum; refine the grids
    to tighten it.  The state grid must keep the infected component away
    from zero because the functional divides by it.
    """
    states = np.asarray(state_grid, dtype=float)
    times = np.asarray(t_grid, dtype=float)
    if times.ndim != 1 or not times.size or not np.isfinite(times).all():
        raise ValueError("t_grid must be a one-dimensional, non-empty grid of finite times")
    if states.ndim != 2 or states.shape[1] != 3 or not len(states):
        raise ValueError("state_grid must have shape (N, 3) with N > 0")
    if np.any(states <= 0.0):
        raise ValueError("state_grid must be strictly positive")
    Y = states[:, 1]
    best = -math.inf
    for t in times:
        pv = model.param_values(float(t))
        drift_pc = model.drift_fn(pv, states)[:, 1] / Y
        diff_sq = ((model.diffusion_fn(pv, states)[:, 1, :] / Y[:, None]) ** 2).sum(axis=-1)
        top = float((drift_pc - 0.5 * diff_sq).max())
        small = _jump_integral(model, pv, states, SMALL, lambda r: np.log1p(r) - r)
        large = _jump_integral(model, pv, states, LARGE, np.log1p)
        value = top + small + large
        if not math.isfinite(value):
            raise ValueError(f"the decay functional is {value} at t = {float(t)!r}")
        best = max(best, value)
    return best
