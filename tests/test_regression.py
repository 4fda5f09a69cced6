"""Pinned trajectories of the bundled scenarios.

Final states of ``simulate`` at horizon 1 under each scenario's own seed
and time step, recorded from the hand-written named-model coefficients.  A
change to a named model's arithmetic, draw order or safeguard shows up here
even when reruns of one version stay byte-identical.
"""

import numpy as np
import pytest

from ussir.integrator import simulate
from ussir.scenario import sim_config

FINAL_STATES = {
    "table1": (0.7997731139899994, 0.08533053616043812, 0.1148963498495607),
    "table2": (0.8350464388000832, 0.10513205524804199, 0.05982150595187609),
    "table3": (1.9534540624585806, 0.5047627634994356, 1.4735619314787276),
    "table4": (1.9406498201018656, 0.6206016586523977, 1.3860106688563785),
    "table5": (1.4826137823459093, 1.2108666764046407, 1.1552541788326716),
    "table6": (3.902513632507393, 1.2991633746985025, 1.0402332529569125),
    "table7": (6.192224966176003, 3.00118583560818, 0.7718500545128878),
}


@pytest.mark.parametrize("name", sorted(FINAL_STATES))
def test_final_state_pinned(scenario, name):
    cfg, model = scenario(name)
    traj = simulate(model, cfg.initial_state, sim_config(cfg, horizon=1.0))
    np.testing.assert_allclose(traj.final_state, FINAL_STATES[name], rtol=1e-12, atol=0.0)
