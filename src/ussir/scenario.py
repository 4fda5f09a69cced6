"""Scenario files: a line-based ``key = value`` format with sections.

Sections are ``[model]``, ``[params]``, ``[jumps]``, ``[measure]``,
``[initial]``, ``[sim]``.  Values are numerals, tuples ``(a, b, c)``, or
double-quoted coefficient expressions; ``#`` starts a comment.  Unknown
sections or keys are rejected so a typo cannot silently fall back to a
default.  The format is diff-friendly and bit-exact: loading the same file
twice builds the same model and the same simulation config.

Seven scenarios ship with the package (``table1.scn`` .. ``table7.scn``)
covering every named model family; ``bundled_scenario_path`` resolves them
by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Mapping, Optional

from .integrator import SimConfig
from .levy import LevyMeasure
from .models import FAMILIES, OCTANT, SIMPLEX, ModelSpec, build_custom, build_named, check_admissible

__all__ = [
    "ScenarioConfig",
    "ScenarioError",
    "build_model",
    "bundled_scenario_path",
    "bundled_scenarios",
    "load_scenario",
    "sim_config",
]

MODEL_IDS = (*FAMILIES, "custom")

_SECTIONS = ("model", "params", "jumps", "measure", "initial", "sim")

_MODEL_KEYS = ("id", "cap", "domain", "brownian_dim")
_MEASURE_KEYS = ("support", "density")
_INITIAL_KEYS = ("state",)
_SIM_KEYS = ("dt", "horizon", "seed", "paths", "record_stride", "positivity_floor", "y_extinct", "out")


class ScenarioError(ValueError):
    """Malformed scenario file; the message carries file and line."""


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
    positivity_floor: float
    cap: Optional[float] = None
    domain: Optional[str] = None
    brownian_dim: Optional[int] = None
    y_extinct: Optional[float] = None
    out_dir: Optional[str] = None
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
        parts = [p.strip() for p in raw[1:-1].split(",") if p.strip()]
        try:
            return tuple(float(p) for p in parts)
        except ValueError:
            raise ScenarioError(f"{where}: tuple entries must be numerals in {raw!r}") from None
    try:
        return float(raw)
    except ValueError:
        pass
    if raw and all(c.isalnum() or c in "_./-" for c in raw):
        return raw  # bare identifier (model id, domain, output path)
    raise ScenarioError(
        f"{where}: expected a numeral, tuple, quoted expression, or bare identifier, got {raw!r}"
    )


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
        if key in sections[current]:
            raise ScenarioError(f"{where}: duplicate key {key!r} in [{current}]")
        sections[current][key] = _parse_value(raw_value, where)

    where = str(path)
    model_sec = sections["model"]
    for key in model_sec:
        if key not in _MODEL_KEYS:
            raise ScenarioError(f"{where}: unknown key {key!r} in [model]")
    if "id" not in model_sec:
        raise ScenarioError(f"{where}: [model] must set id")
    model_id = model_sec["id"]
    if model_id not in MODEL_IDS:
        raise ScenarioError(f"{where}: unknown model id {model_id!r}; choose from {MODEL_IDS}")

    params = {}
    for key, value in sections["params"].items():
        if not isinstance(value, str):
            raise ScenarioError(f"{where}: [params] {key} must be a quoted expression")
        params[key] = value
    jumps = {}
    for key, value in sections["jumps"].items():
        jumps[key] = _want_float(value, f"{where}: [jumps] {key}")

    family = FAMILIES.get(model_id)
    if family is not None:
        try:
            family.check_names(params, jumps)
        except ValueError as exc:
            raise ScenarioError(f"{where}: model {exc}") from None

    for key in sections["measure"]:
        if key not in _MEASURE_KEYS:
            raise ScenarioError(f"{where}: unknown key {key!r} in [measure]")
    support = sections["measure"].get("support", (-2.0, 2.0))
    if not (isinstance(support, tuple) and len(support) == 2 and support[0] < support[1]):
        raise ScenarioError(f"{where}: measure support must be an increasing pair, got {support!r}")
    density = _want_float(sections["measure"].get("density", 1.0), f"{where}: [measure] density")
    if density < 0:
        raise ScenarioError(f"{where}: measure density must be nonnegative")

    for key in sections["initial"]:
        if key not in _INITIAL_KEYS:
            raise ScenarioError(f"{where}: unknown key {key!r} in [initial]")
    state = sections["initial"].get("state")
    if not (isinstance(state, tuple) and len(state) == 3):
        raise ScenarioError(f"{where}: [initial] must set state = (x, y, z)")
    if not all(v > 0 for v in state):
        raise ScenarioError(f"{where}: initial state must be positive, got {state}")

    sim = sections["sim"]
    for key in sim:
        if key not in _SIM_KEYS:
            raise ScenarioError(f"{where}: unknown key {key!r} in [sim]")
    dt = _want_float(sim.get("dt", 0.001), f"{where}: [sim] dt")
    if dt <= 0:
        raise ScenarioError(f"{where}: dt must be positive, got {dt}")
    horizon = _want_float(sim.get("horizon", 100.0), f"{where}: [sim] horizon")
    if horizon < dt:
        raise ScenarioError(f"{where}: horizon must cover at least one step")
    seed = _want_int(sim.get("seed", 0.0), f"{where}: [sim] seed")
    paths = _want_int(sim.get("paths", 50.0), f"{where}: [sim] paths")
    if paths < 1:
        raise ScenarioError(f"{where}: paths must be positive")
    stride = _want_int(sim.get("record_stride", 1.0), f"{where}: [sim] record_stride")
    if stride < 1:
        raise ScenarioError(f"{where}: record_stride must be positive")
    floor = _want_float(sim.get("positivity_floor", 1e-12), f"{where}: [sim] positivity_floor")
    y_extinct = sim.get("y_extinct")
    if y_extinct is not None:
        y_extinct = _want_float(y_extinct, f"{where}: [sim] y_extinct")
    out_dir = sim.get("out")
    if out_dir is not None and not isinstance(out_dir, str):
        raise ScenarioError(f"{where}: [sim] out must be a quoted path")

    cap = model_sec.get("cap")
    if cap is not None:
        cap = _want_float(cap, f"{where}: [model] cap")
    uses_cap = family is not None and family.uses_cap
    if uses_cap and cap is None:
        raise ScenarioError(f"{where}: model {model_id} requires cap in [model]")
    if cap is not None and not uses_cap:
        raise ScenarioError(f"{where}: model {model_id} does not take cap")
    domain = model_sec.get("domain")
    if domain is not None and domain not in (SIMPLEX, OCTANT):
        raise ScenarioError(f"{where}: domain must be {SIMPLEX!r} or {OCTANT!r}")
    if model_id == "custom" and domain is None:
        raise ScenarioError(f"{where}: custom models must set domain in [model]")
    brownian_dim = model_sec.get("brownian_dim")
    if brownian_dim is not None:
        brownian_dim = _want_int(brownian_dim, f"{where}: [model] brownian_dim")

    return ScenarioConfig(
        model_id=model_id,
        params=params,
        jumps=jumps,
        measure_support=(float(support[0]), float(support[1])),
        measure_density=density,
        initial_state=(float(state[0]), float(state[1]), float(state[2])),
        dt=dt,
        horizon=horizon,
        seed=seed,
        paths=paths,
        record_stride=stride,
        positivity_floor=floor,
        cap=cap,
        domain=domain,
        brownian_dim=brownian_dim,
        y_extinct=y_extinct,
        out_dir=out_dir,
        source=str(path),
    )


def _custom_model(cfg: ScenarioConfig, measure: LevyMeasure) -> ModelSpec:
    """A custom model from its [params] keys: drift ``b1..b3``, one diffusion
    column ``sigma1j..sigma3j`` per Brownian driver, and optionally all
    three small-jump entries ``h1..h3`` or large-jump entries ``g1..g3``."""
    params = cfg.params
    columns = [[f"sigma{i}{j}" for i in (1, 2, 3)] for j in range(1, (cfg.brownian_dim or 1) + 1)]
    small, large = ["h1", "h2", "h3"], ["g1", "g2", "g3"]
    unknown = sorted(set(params).difference(["b1", "b2", "b3"], *columns, small, large))
    if unknown:
        raise ScenarioError(f"{cfg.source}: custom model does not take parameters {unknown}")

    def entries(keys, what, optional=False):
        missing = [k for k in keys if k not in params]
        if optional and len(missing) == len(keys):
            return None
        if missing:
            raise ScenarioError(f"{cfg.source}: custom model missing {what} {missing}")
        return [params[k] for k in keys]

    drift = entries(["b1", "b2", "b3"], "drift expressions")
    diffusion = [entries(keys, "diffusion entries") for keys in columns]
    small_jump = entries(small, "small-jump entries", optional=True)
    large_jump = entries(large, "large-jump entries", optional=True)
    return build_custom(cfg.domain, drift, diffusion, small_jump, large_jump, measure)


def build_model(cfg: ScenarioConfig) -> ModelSpec:
    """Construct the ModelSpec a scenario describes and check the initial
    state is admissible in its domain."""
    lo, hi = cfg.measure_support
    measure = LevyMeasure.uniform(lo, hi, cfg.measure_density)
    if cfg.model_id == "custom":
        model = _custom_model(cfg, measure)
    else:
        model = build_named(cfg.model_id, cfg.params, cfg.jumps, cfg.cap, measure)
    check_admissible(cfg.initial_state, model.domain)
    return model


def sim_config(
    cfg: ScenarioConfig,
    seed: Optional[int] = None,
    dt: Optional[float] = None,
    horizon: Optional[float] = None,
    record_stride: Optional[int] = None,
) -> SimConfig:
    """SimConfig from a scenario, with optional overrides beating file
    values."""
    return SimConfig(
        horizon=horizon if horizon is not None else cfg.horizon,
        dt=dt if dt is not None else cfg.dt,
        seed=seed if seed is not None else cfg.seed,
        positivity_floor=cfg.positivity_floor,
        record_stride=record_stride if record_stride is not None else cfg.record_stride,
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
