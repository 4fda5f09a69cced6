"""Scenario files: a line-based ``key = value`` format with sections.

Sections are ``[model]``, ``[params]``, ``[jumps]``, ``[measure]``,
``[initial]``, ``[sim]``.  Values are numerals, tuples ``(a, b, c)``, words
of letters, digits and ``_``, or quoted expressions (all ``[params]``
takes); ``#`` starts a comment.  Unknown sections or keys are rejected so a
typo cannot silently fall back to a default.  The format is diff-friendly
and bit-exact: loading the same file twice builds the same model and the
same simulation config.

Each fault is refused once, by the code that owns its rule.  Loading
checks what the format alone knows: sections, keys, value kinds, finite
numerals, the support pair and state triple shapes, and ``[sim]`` as the
``SimConfig`` it becomes.  Building checks the values in the constructors
(names, jump constants and cap in ``build_named``, a custom model's keys,
the measure, the domain, the initial state), and :func:`build_model`
re-raises their errors as :class:`ScenarioError`, so errors of both
stages name the file.

Seven scenarios ship with the package (``table1.scn`` .. ``table7.scn``)
covering every named model family; ``bundled_scenario_path`` resolves them
by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Mapping, Optional

from .levy import LevyMeasure
from .models import FAMILIES, ModelSpec, build_custom, build_named, check_admissible

__all__ = [
    "ScenarioConfig",
    "ScenarioError",
    "SimConfig",
    "build_model",
    "bundled_scenario_path",
    "bundled_scenarios",
    "load_scenario",
    "sim_config",
]

MODEL_IDS = (*FAMILIES, "custom")

_SECTIONS = ("model", "params", "jumps", "measure", "initial", "sim")

# the keys of each fixed section; [params] and [jumps] keys are the model's to check
_KEYS = {
    "model": ("id", "cap", "domain", "brownian_dim"),
    "measure": ("support", "density"),
    "initial": ("state",),
    "sim": ("dt", "horizon", "seed", "paths", "record_stride", "y_extinct"),
}
# the [sim] numerals a SimConfig checks; it keeps their defaults
_SIM_NUMBERS = ("horizon", "dt", "seed", "record_stride")


class ScenarioError(ValueError):
    """Malformed scenario file; the message carries file and line."""


@dataclass(frozen=True)
class SimConfig:
    """Time grid, seed and record stride of one run."""

    horizon: float
    dt: float = 0.001
    seed: int = 0
    record_stride: int = 1

    def __post_init__(self):
        if not all(map(math.isfinite, (self.horizon, self.dt))):
            raise ValueError("horizon and dt must be finite")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.horizon < self.dt:
            raise ValueError("horizon must cover at least one step")
        if self.record_stride < 1 or int(self.record_stride) != self.record_stride:
            raise ValueError("record_stride must be a positive integer")
        object.__setattr__(self, "record_stride", int(self.record_stride))
        if not (-(2**63) <= self.seed < 2**63 and int(self.seed) == self.seed):
            raise ValueError("seed must fit in a signed 64-bit integer")
        object.__setattr__(self, "seed", int(self.seed))

    @property
    def n_steps(self) -> int:
        return max(1, int(math.ceil(self.horizon / self.dt - 1e-9)))


def _strip_comment(raw: str) -> str:
    """Drop everything from the first ``#`` outside double quotes."""
    out = []
    in_quote = False
    for ch in raw:
        if ch == '"':
            in_quote = not in_quote
        elif ch == "#" and not in_quote:
            break
        out.append(ch)
    return "".join(out).strip()


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated contents of one scenario file."""

    model_id: str
    params: Mapping[str, str]
    jumps: Mapping[str, float]
    measure_support: tuple[float, float]
    measure_density: float
    initial_state: tuple[float, float, float]
    dt: float
    horizon: float
    seed: int
    paths: int
    record_stride: int
    cap: Optional[float] = None
    domain: Optional[str] = None
    brownian_dim: Optional[int] = None
    y_extinct: Optional[float] = None
    source: Optional[str] = None

    @property
    def stem(self) -> str:
        return Path(self.source).stem if self.source else self.model_id


def _parse_value(raw: str, where: str):
    raw = raw.strip()
    if raw.startswith('"'):
        if not raw.endswith('"') or len(raw) < 2:
            raise ScenarioError(f"{where}: unterminated quoted value {raw!r}")
        return raw[1:-1]
    if raw.startswith("("):
        if not raw.endswith(")"):
            raise ScenarioError(f"{where}: unterminated tuple {raw!r}")
        parts = [p.strip() for p in raw[1:-1].split(",")]  # an empty entry is no numeral
        try:
            value = numbers = tuple(float(p) for p in parts)
        except ValueError:
            raise ScenarioError(f"{where}: tuple entries must be numerals in {raw!r}") from None
    else:
        try:
            value = float(raw)
        except ValueError:
            if raw.isascii() and raw.replace("_", "a").isalnum():
                return raw  # bare identifier (model id, domain)
            raise ScenarioError(
                f"{where}: expected a numeral, tuple, quoted expression, or bare identifier, got {raw!r}"
            ) from None
        numbers = (value,)
    if not all(map(math.isfinite, numbers)):
        raise ScenarioError(f"{where}: numerals must be finite, got {raw!r}")
    return value


def _want_float(value, where: str) -> float:
    if not isinstance(value, float):
        raise ScenarioError(f"{where}: expected a numeral, got {value!r}")
    return value


def _want_int(value, where: str) -> int:
    value = _want_float(value, where)
    if value != int(value):
        raise ScenarioError(f"{where}: expected an integer, got {value!r}")
    return int(value)


def load_scenario(path) -> ScenarioConfig:
    """Parse and validate one scenario file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc

    sections: dict[str, dict[str, object]] = {name: {} for name in _SECTIONS}
    current: Optional[str] = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        where = f"{path}:{lineno}"
        line = _strip_comment(raw_line)
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ScenarioError(f"{where}: malformed section header {line!r}")
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ScenarioError(f"{where}: unknown section [{name}]")
            current = name
            continue
        if "=" not in line:
            raise ScenarioError(f"{where}: expected 'key = value', got {line!r}")
        if current is None:
            raise ScenarioError(f"{where}: key outside any section")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        if current in _KEYS and key not in _KEYS[current]:
            raise ScenarioError(f"{where}: unknown key {key!r} in [{current}]")
        if key in sections[current]:
            raise ScenarioError(f"{where}: duplicate key {key!r} in [{current}]")
        if current == "params" and not raw_value.strip().startswith('"'):
            raise ScenarioError(f"{where}: [params] {key} must be a quoted expression, got {raw_value.strip()!r}")
        sections[current][key] = _parse_value(raw_value, where)

    where = str(path)
    model_sec = sections["model"]
    if "id" not in model_sec:
        raise ScenarioError(f"{where}: [model] must set id")
    model_id = model_sec["id"]
    if model_id not in MODEL_IDS:
        raise ScenarioError(f"{where}: unknown model id {model_id!r}; choose from {MODEL_IDS}")
    for key in ("domain", "brownian_dim"):
        if model_id != "custom" and key in model_sec:
            raise ScenarioError(f"{where}: model {model_id} does not take {key}; its family fixes it")
    cap = model_sec.get("cap")
    if cap is not None:
        cap = _want_float(cap, f"{where}: [model] cap")
    brownian_dim = model_sec.get("brownian_dim")
    if brownian_dim is not None:
        brownian_dim = _want_int(brownian_dim, f"{where}: [model] brownian_dim")

    jumps = {key: _want_float(value, f"{where}: [jumps] {key}") for key, value in sections["jumps"].items()}

    support = sections["measure"].get("support", (-2.0, 2.0))
    if not (isinstance(support, tuple) and len(support) == 2):
        raise ScenarioError(f"{where}: measure support must be a pair (lo, hi), got {support!r}")
    density = _want_float(sections["measure"].get("density", 1.0), f"{where}: [measure] density")
    state = sections["initial"].get("state")
    if not (isinstance(state, tuple) and len(state) == 3):
        raise ScenarioError(f"{where}: [initial] must set state = (x, y, z)")

    sim = sections["sim"]
    numbers = {key: _want_float(sim[key], f"{where}: [sim] {key}") for key in _SIM_NUMBERS if key in sim}
    try:
        run = SimConfig(**{"horizon": 100.0, **numbers})
    except ValueError as exc:
        raise ScenarioError(f"{where}: [sim] {exc}") from None
    paths = _want_int(sim.get("paths", 50.0), f"{where}: [sim] paths")
    if paths < 1:
        raise ScenarioError(f"{where}: paths must be positive")
    y_extinct = sim.get("y_extinct")
    if y_extinct is not None and not _want_float(y_extinct, f"{where}: [sim] y_extinct") > 0:
        raise ScenarioError(f"{where}: y_extinct must be positive, got {y_extinct}")

    return ScenarioConfig(
        model_id=model_id,
        params=sections["params"],
        jumps=jumps,
        measure_support=support,
        measure_density=density,
        initial_state=state,
        dt=run.dt,
        horizon=run.horizon,
        seed=run.seed,
        paths=paths,
        record_stride=run.record_stride,
        cap=cap,
        domain=model_sec.get("domain"),
        brownian_dim=brownian_dim,
        y_extinct=y_extinct,
        source=str(path),
    )


def _custom_model(cfg: ScenarioConfig, measure: LevyMeasure) -> ModelSpec:
    """A custom model from its [params] keys: drift ``b1..b3``, one diffusion
    column ``sigma1j..sigma3j`` per Brownian driver, and optionally all
    three small-jump entries ``h1..h3`` or large-jump entries ``g1..g3``."""
    if cfg.cap is not None or cfg.jumps:
        raise ValueError("custom model does not take cap or [jumps]; write constants into its expressions")
    params = cfg.params
    dim = 1 if cfg.brownian_dim is None else cfg.brownian_dim
    if dim < 1:
        raise ValueError(f"custom model brownian_dim must be at least 1, got {dim}")
    if 3 * dim > len(params):  # before building 3 * dim key names
        raise ValueError(
            f"custom model brownian_dim = {dim} needs {3 * dim} diffusion entries; [params] has {len(params)} keys"
        )
    columns = [[f"sigma{i}{j}" for i in (1, 2, 3)] for j in range(1, dim + 1)]
    small, large = ["h1", "h2", "h3"], ["g1", "g2", "g3"]
    unknown = sorted(set(params).difference(["b1", "b2", "b3"], *columns, small, large))
    if unknown:
        raise ValueError(f"custom model does not take parameters {unknown}")

    def entries(keys, what, optional=False):
        missing = [k for k in keys if k not in params]
        if optional and len(missing) == len(keys):
            return None
        if missing:
            raise ValueError(f"custom model missing {what} {missing}")
        return [params[k] for k in keys]

    drift = entries(["b1", "b2", "b3"], "drift expressions")
    diffusion = [entries(keys, "diffusion entries") for keys in columns]
    small_jump = entries(small, "small-jump entries", optional=True)
    large_jump = entries(large, "large-jump entries", optional=True)
    return build_custom(cfg.domain, drift, diffusion, small_jump, large_jump, measure)


def build_model(cfg: ScenarioConfig) -> ModelSpec:
    """Construct the ModelSpec a scenario describes and check the initial
    state is admissible in its domain.  The constructors check the values;
    any error they raise comes back as a ScenarioError naming the file."""
    try:
        measure = LevyMeasure(*cfg.measure_support, cfg.measure_density)
        if cfg.model_id == "custom":
            model = _custom_model(cfg, measure)
        else:
            model = build_named(cfg.model_id, cfg.params, cfg.jumps, cfg.cap, measure)
        check_admissible(cfg.initial_state, model.domain)
    except ValueError as exc:
        raise ScenarioError(f"{cfg.source}: {exc}") from exc
    return model


def sim_config(
    cfg: ScenarioConfig,
    seed: Optional[int] = None,
    dt: Optional[float] = None,
    horizon: Optional[float] = None,
) -> SimConfig:
    """SimConfig from a scenario, with optional overrides beating file
    values."""
    return SimConfig(
        horizon=horizon if horizon is not None else cfg.horizon,
        dt=dt if dt is not None else cfg.dt,
        seed=seed if seed is not None else cfg.seed,
        record_stride=cfg.record_stride,
    )


def bundled_scenarios() -> list[str]:
    """Names of the scenario files shipped inside the package."""
    root = resources.files("ussir").joinpath("scenarios")
    return sorted(p.name for p in root.iterdir() if p.name.endswith(".scn"))


def bundled_scenario_path(name: str) -> Path:
    """Filesystem path of a bundled scenario (``table1`` or ``table1.scn``)."""
    if not name.endswith(".scn"):
        name = f"{name}.scn"
    candidate = resources.files("ussir").joinpath("scenarios", name)
    if not candidate.is_file():
        raise ScenarioError(f"no bundled scenario named {name!r}; have {bundled_scenarios()}")
    return Path(str(candidate))
