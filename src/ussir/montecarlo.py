"""Seeded path ensembles and theory-versus-simulation comparison.

:func:`run_ensemble` owns the per-path statistics.  The empirical
counterpart of the exponential rate is the finite horizon log slope
(ln Y_T - ln Y_0) / T; the persistence counterpart is the trapezoidal time
average of the infected component, over the full window and its tail half,
which the run sums as it records (``integrator._record``), keeping no
states, so its memory does not grow with the horizon.  The closed-form
criteria bound asymptotic quantities, so a finite-horizon comparison always
carries slack; the comparator makes that slack explicit instead of
pretending the constants are sharp.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .criteria import EXTINCT, INDETERMINATE, PERSISTENT, CriteriaReport
from .integrator import _REDUCER, SimConfig, _path_key, _tail_start, run_paths
from .models import SIMPLEX, ModelSpec

__all__ = [
    "EnsembleStats",
    "run_ensemble",
    "verdict",
    "write_ensemble_csv",
]

# below roughly one individual at the scales the bundled scenarios use
Y_EXTINCT_SIMPLEX = 1e-6
Y_EXTINCT_OCTANT = 1e-3


@dataclass(frozen=True)
class EnsembleStats:
    """Per-path statistics (clamps included) of one seeded ensemble plus its thresholds."""

    path_seeds: tuple[str, ...]
    lyapunov: np.ndarray
    mean_infected: np.ndarray
    tail_mean_infected: np.ndarray
    y_final: np.ndarray
    floor_hits: np.ndarray
    y_extinct: float

    @property
    def paths(self) -> int:
        return len(self.path_seeds)

    @property
    def extinction_fraction(self) -> float:
        return float(np.mean(self.y_final < self.y_extinct))

    def summary(self) -> dict[str, float]:
        out: dict[str, float] = {
            "paths": float(self.paths),
            "y_extinct": self.y_extinct,
            "extinction_fraction": self.extinction_fraction,
        }
        for name, arr in (
            ("lyapunov", self.lyapunov),
            ("mean_infected", self.mean_infected),
            ("tail_mean_infected", self.tail_mean_infected),
        ):
            q25, q75 = np.percentile(arr, [25.0, 75.0])
            out[f"{name}_mean"] = float(arr.mean())
            out[f"{name}_median"] = float(np.median(arr))
            out[f"{name}_iqr"] = float(q75 - q25)
        return out


def run_ensemble(
    model: ModelSpec,
    s0,
    cfg: SimConfig,
    paths: int,
    y_extinct: Optional[float] = None,
) -> EnsembleStats:
    """Run ``paths`` independent paths under ``cfg.seed``.

    Path i draws from the stream keyed by hash(seed, i), so the ensemble is
    reproducible and each path matches a solo run of the same stream.
    """
    if paths < 1:
        raise ValueError("paths must be positive")
    if y_extinct is None:
        y_extinct = Y_EXTINCT_SIMPLEX if model.domain == SIMPLEX else Y_EXTINCT_OCTANT
    elif not 0.0 < y_extinct < np.inf:  # also refuses nan
        raise ValueError(f"y_extinct must be positive and finite, got {y_extinct}")
    keys = [_path_key(cfg.seed, i) for i in range(paths)]
    traj = run_paths(model, s0, cfg, keys, keep=_REDUCER)
    horizon, tail = traj.times[-1] - traj.times[0], traj.times[_tail_start(traj.times)]
    return EnsembleStats(
        path_seeds=tuple("".join(f"{w:016x}" for w in key) for key in keys),
        lyapunov=(np.log(traj.y_final) - np.log(np.asarray(s0, dtype=float)[1])) / horizon,
        mean_infected=traj.y_area / horizon,
        # a stride at least the step count leaves one tail record
        tail_mean_infected=traj.tail_area / (traj.times[-1] - tail) if tail < traj.times[-1] else traj.y_final.copy(),
        y_final=traj.y_final,
        floor_hits=traj.floor_hits,
        y_extinct=float(y_extinct),
    )


def verdict(stats: EnsembleStats, report: CriteriaReport, slack: float) -> str:
    """Compare ensemble medians against the report's one-sided bounds.

    Extinct reports require the median log slope at most
    -rate*(1-slack) + slack; persistent reports require the median tail
    average at least bound*(1-slack).  Indeterminate reports admit no
    comparison.  ``slack`` must lie in (0, 1): at 1 or more the persistence
    threshold is at most 0, and that verdict could never fail.
    """
    if not 0 < slack < 1:  # NaN fails it too
        raise ValueError(f"slack must be in (0, 1), got {slack!r}")
    if report.classification == INDETERMINATE:
        return "inapplicable"
    if report.classification == EXTINCT:
        threshold = -report.extinction_rate_lb * (1.0 - slack) + slack
        ok = float(np.median(stats.lyapunov)) <= threshold
    elif report.classification == PERSISTENT:
        threshold = report.mean_infected_lb * (1.0 - slack)
        ok = float(np.median(stats.tail_mean_infected)) >= threshold
    else:
        raise ValueError(f"unknown classification {report.classification!r}")
    return "consistent" if ok else "inconsistent"


def write_ensemble_csv(stats: EnsembleStats, path) -> dict[str, float]:
    """One row per path, then the summary block as trailing comment lines; returns the summary."""
    lines = ["path,seed,lyapunov,mean_infected,tail_mean_infected,Y_T"]
    floats = (c.tolist() for c in (stats.lyapunov, stats.mean_infected, stats.tail_mean_infected, stats.y_final))
    for i, (seed, lyap, mean, tail, y) in enumerate(zip(stats.path_seeds, *floats)):  # Python floats format faster
        lines.append(f"{i},{seed},{lyap:.17g},{mean:.17g},{tail:.17g},{y:.17g}")
    summary = stats.summary()
    for key, value in summary.items():
        lines.append(f"# {key} = {value:.17g}")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    return summary
