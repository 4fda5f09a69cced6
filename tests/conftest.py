import dataclasses

import pytest

from ussir.expr import Num
from ussir.scenario import build_model, bundled_scenario_path, load_scenario


@pytest.fixture(scope="session")
def scenario():
    """Factory loading (config, model) for a bundled scenario, cached for
    the whole session (model building scans expression bounds)."""
    cache = {}

    def get(name):
        if name not in cache:
            cfg = load_scenario(bundled_scenario_path(name))
            cache[name] = (cfg, build_model(cfg))
        return cache[name]

    return get


@pytest.fixture(scope="session")
def reduced():
    """Factory rebuilding a model from its table without the selected
    groups: a dropped drift is three zeros, dropped noise is absent, so the
    copy draws none of it (``jumps`` covers both jump regions).  With the
    defaults it is the deterministic companion; dropping the drift alone
    gives the pure-noise panels."""

    def rebuild(model, drift=False, diffusion=True, jumps=True):
        return dataclasses.replace(
            model,
            drift=(Num(0.0),) * 3 if drift else model.drift,
            diffusion=() if diffusion else model.diffusion,
            small_jump=None if jumps else model.small_jump,
            large_jump=None if jumps else model.large_jump,
        )

    return rebuild
