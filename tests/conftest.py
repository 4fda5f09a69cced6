import dataclasses
import os

import numpy as np
import pytest

from ussir import integrator
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


@pytest.fixture
def split_runs(monkeypatch):
    """Factory making every ``run_paths`` call split its rows into
    ``workers`` slices, however few they are; it returns the list of the
    row counts of the ``_step_rows`` calls made in this process (slice 0,
    then all rows if the run steps again with the checked program).  On
    teardown no worker is left and numpy's error settings are unchanged."""
    before = np.geterr()

    def force(workers):
        monkeypatch.setattr(integrator, "MIN_SPLIT_PATHS", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)))
        calls, step_rows, parent = [], integrator._step_rows, os.getpid()

        def record(model, s0, cfg, keys, *args):
            if os.getpid() == parent:
                calls.append(len(keys))
            return step_rows(model, s0, cfg, keys, *args)

        monkeypatch.setattr(integrator, "_step_rows", record)
        return calls

    yield force
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert np.geterr() == before
