"""Every bundled scenario restated as a ``custom`` scenario.

Each family expression has its time coefficients inlined as parenthesised
time functions and its jump constants and cap as numerals, so the custom
model evaluates its coefficients at ``t`` inside every step while the named
model reads them from the precomputed grid.  Both must follow the same path.
"""

import re

import numpy as np
import pytest

from ussir.integrator import simulate
from ussir.models import FAMILIES
from ussir.scenario import build_model, load_scenario, sim_config

TABLES = [f"table{i}" for i in range(1, 8)]


def custom_text(cfg) -> str:
    """``cfg`` restated as a custom scenario."""
    family = FAMILIES[cfg.model_id]
    values = {name: f"({text})" for name, text in cfg.params.items()}
    values.update({name: repr(value) for name, value in cfg.jumps.items()})
    if cfg.cap is not None:
        values["cap"] = repr(cfg.cap)

    def inline(text):
        return re.sub(r"[A-Za-z_]\w*", lambda m: values.get(m.group(), m.group()), text)

    keys = {f"b{i}": inline(e) for i, e in enumerate(family.drift, 1)}
    for j, column in enumerate(family.diffusion, 1):
        keys.update({f"sigma{i}{j}": inline(e) for i, e in enumerate(column, 1)})
    for prefix, vector in (("h", family.small_jump), ("g", family.large_jump)):
        keys.update({f"{prefix}{i}": inline(e) for i, e in enumerate(vector or (), 1)})
    lo, hi = cfg.measure_support
    return "\n".join(
        ["[model]", "id = custom", f"domain = {family.domain}", f"brownian_dim = {len(family.diffusion)}",
         "[params]", *(f'{k} = "{v}"' for k, v in keys.items()),
         "[measure]", f"support = ({lo!r}, {hi!r})", f"density = {cfg.measure_density!r}",
         "[initial]", f"state = {cfg.initial_state!r}",
         "[sim]", f"dt = {cfg.dt!r}", f"seed = {cfg.seed}"]
    ) + "\n"


@pytest.mark.parametrize("name", TABLES)
def test_custom_restatement_follows_the_named_model(scenario, tmp_path, name):
    cfg, named = scenario(name)
    path = tmp_path / f"{name}_custom.scn"
    path.write_text(custom_text(cfg))
    custom_cfg = load_scenario(path)
    custom = build_model(custom_cfg)
    assert custom.model_id == "custom" and not custom.params
    assert (custom.has_small_jumps, custom.has_large_jumps) == (named.has_small_jumps, named.has_large_jumps)
    sim = sim_config(cfg, horizon=1.0)
    expected = simulate(named, cfg.initial_state, sim).final_state
    got = simulate(custom, custom_cfg.initial_state, sim).final_state
    np.testing.assert_allclose(got, expected, rtol=1e-9, atol=0.0)
