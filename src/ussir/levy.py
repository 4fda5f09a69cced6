"""Jump-noise intensity measure: region masses, quadrature, mark mapping.

The driving Poisson random measure lives on R - {0} with one finite
uniform density on one finite interval.  Marks with |u| < 1 are the
"small" region (they enter the dynamics compensated); |u| >= 1 is the
"large" region (uncompensated), which can be two pieces, one on each side
of zero.  The bundled scenarios all use the uniform density on [-2, 2],
which splits into mass 2 small and mass 2 large, but the measure is a
config value rather than a constant.  The integrator draws each step's
jump counts from Poisson(mass * dt) and their marks as uniforms
``rng.random(n)`` mapped by :meth:`LevyMeasure.inverse_cdf`, which scales
them by the region's mass; the rule each integral against the measure uses
is the model's (:attr:`ussir.models.ModelSpec.mark_rules`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LevyMeasure"]

SMALL = "small"
LARGE = "large"
QUAD_NODES = 1001


# the mark windows of each region: |u| < 1 is small, |u| >= 1 is large
_WINDOWS = {SMALL: ((-1.0, 1.0),), LARGE: ((-np.inf, -1.0), (1.0, np.inf))}


@dataclass(frozen=True)
class LevyMeasure:
    """Uniform intensity ``density`` >= 0 on the interval [lo, hi], lo < hi.
    Bounded support keeps integral(1 ^ |u|^2) finite automatically."""

    lo: float = -2.0
    hi: float = 2.0
    density: float = 1.0

    def __post_init__(self):
        for name in ("lo", "hi", "density"):
            if not np.isfinite(value := getattr(self, name)):
                raise ValueError(f"measure {name} must be finite, got {value}")
        if not self.lo < self.hi:
            raise ValueError(f"measure interval ({self.lo}, {self.hi}) is empty")
        if self.density < 0:
            raise ValueError(f"measure density {self.density} is negative")

    def region_pieces(self, region: str) -> tuple[tuple[float, float], ...]:
        """The (lo, hi) pieces of the support inside ``region``."""
        if region not in (SMALL, LARGE):
            raise ValueError(f"region must be {SMALL!r} or {LARGE!r}, got {region!r}")
        clipped = ((max(self.lo, w_lo), min(self.hi, w_hi)) for w_lo, w_hi in _WINDOWS[region])
        return tuple((a, b) for a, b in clipped if a < b)

    def mass(self, region: str) -> float:
        return float(sum((hi - lo) * self.density for lo, hi in self.region_pieces(region)))

    def quadrature(self, region: str):
        """Midpoint nodes and weights, :data:`QUAD_NODES` per piece, for
        integrating against the measure restricted to ``region``."""
        us, ws = [], []
        for lo, hi in self.region_pieces(region):
            edges = np.linspace(lo, hi, QUAD_NODES + 1)
            us.append(0.5 * (edges[:-1] + edges[1:]))
            ws.append(np.full(QUAD_NODES, (hi - lo) / QUAD_NODES * self.density))
        if not us:
            raise ValueError(f"the measure has no support in the {region} region")
        return np.concatenate(us), np.concatenate(ws)

    def inverse_cdf(self, region: str, uniforms: np.ndarray) -> np.ndarray:
        """Map uniforms in [0, 1) to marks in ``region``, through the measure
        levels ``mass(region) * uniforms``: the one mark mapping."""
        levels = self.mass(region) * uniforms
        pieces = self.region_pieces(region)
        cum = np.cumsum([(hi - lo) * self.density for lo, hi in pieces])
        idx = np.searchsorted(cum, levels, side="right")
        lows = np.array([lo for lo, _ in pieces])
        return lows[idx] + (levels - np.concatenate(([0.0], cum[:-1]))[idx]) / self.density
