"""Jump-noise intensity measure: region masses, quadrature, mark sampling.

The driving Poisson random measure lives on R - {0} with a piecewise-uniform
intensity.  Marks with |u| < 1 are the "small" region (they enter the
dynamics compensated); |u| >= 1 is the "large" region (uncompensated).  The
bundled scenarios all use the uniform density on [-2, 2], which splits into
mass 2 small and mass 2 large, but the measure is a config value rather
than a constant.  The integrator draws each step's jump counts from
Poisson(mass * dt) and their marks by :meth:`LevyMeasure.inverse_cdf`;
the compensator itself belongs to the model
(:meth:`ussir.models.ModelSpec.compensator_pv`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LevyMeasure"]

SMALL = "small"
LARGE = "large"


# the mark windows of each region: |u| < 1 is small, |u| >= 1 is large
_WINDOWS = {SMALL: ((-1.0, 1.0),), LARGE: ((-np.inf, -1.0), (1.0, np.inf))}


@dataclass(frozen=True)
class LevyMeasure:
    """Piecewise-uniform intensity measure on a bounded support.

    ``pieces`` is a tuple of (lo, hi, density) intervals with lo < hi and
    density >= 0; intervals must not overlap.  Bounded support keeps
    integral(1 ^ |u|^2) finite automatically.
    """

    pieces: tuple[tuple[float, float, float], ...]

    def __post_init__(self):
        if not self.pieces:
            raise ValueError("measure needs at least one interval")
        ordered = sorted(self.pieces)
        for lo, hi, dens in ordered:
            if not lo < hi:
                raise ValueError(f"measure interval ({lo}, {hi}) is empty")
            if dens < 0:
                raise ValueError(f"measure density {dens} is negative")
        for (_, hi1, _), (lo2, _, _) in zip(ordered, ordered[1:]):
            if hi1 > lo2:
                raise ValueError("overlapping intervals")
        object.__setattr__(self, "pieces", tuple(ordered))

    @classmethod
    def uniform(cls, lo: float = -2.0, hi: float = 2.0, density: float = 1.0) -> "LevyMeasure":
        return cls(pieces=((lo, hi, density),))

    def region_pieces(self, region: str) -> tuple[tuple[float, float, float], ...]:
        if region not in (SMALL, LARGE):
            raise ValueError(f"region must be {SMALL!r} or {LARGE!r}, got {region!r}")
        out = []
        for lo, hi, dens in self.pieces:
            for w_lo, w_hi in _WINDOWS[region]:
                a, b = max(lo, w_lo), min(hi, w_hi)
                if a < b:
                    out.append((a, b, dens))
        return tuple(out)

    def mass(self, region: str) -> float:
        return float(sum((hi - lo) * dens for lo, hi, dens in self.region_pieces(region)))

    def quadrature(self, region: str, nodes_per_piece: int = 1001):
        """Midpoint nodes and weights for integrating against the measure
        restricted to ``region``.  Exact for u-constant integrands."""
        us, ws = [], []
        for lo, hi, dens in self.region_pieces(region):
            edges = np.linspace(lo, hi, nodes_per_piece + 1)
            us.append(0.5 * (edges[:-1] + edges[1:]))
            ws.append(np.full(nodes_per_piece, (hi - lo) / nodes_per_piece * dens))
        if not us:
            return np.empty(0), np.empty(0)
        return np.concatenate(us), np.concatenate(ws)

    def inverse_cdf(self, region: str, levels: np.ndarray) -> np.ndarray:
        """Map measure levels in [0, mass(region)) to marks by inverse CDF on
        the piecewise-constant density: the integrator's one mark mapping."""
        pieces = self.region_pieces(region)
        cum = np.cumsum([(hi - lo) * dens for lo, hi, dens in pieces])
        idx = np.searchsorted(cum, levels, side="right")
        lows = np.array([p[0] for p in pieces])
        denss = np.array([p[2] for p in pieces])
        offsets = levels - np.concatenate(([0.0], cum[:-1]))[idx]
        return lows[idx] + offsets / denss[idx]

    def sample_marks(self, region: str, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``count`` i.i.d. marks from the normalized measure on
        ``region``: ``count`` uniforms scaled by the region's mass, then
        :meth:`inverse_cdf`.  Exact and rejection-free."""
        total = self.mass(region)
        if count and total <= 0:
            raise ValueError(f"cannot sample from massless region {region!r}")
        return self.inverse_cdf(region, total * rng.random(count))
