"""Output checks for every benchmark operation.

Simulation outputs are checked with tolerances, never bytes, because a
speed-up may change low-order bits: every value finite, states positive,
simplex rows on the unit sum within the engine's renormalisation
tolerance, CSVs with the expected header and row counts.  Each check
returns a list of problems; an empty list means the operation passed.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

# the engine renormalises a simplex state once its sum drifts beyond 1e-9;
# the extra 1e-12 covers the 17-digit CSV round trip
SIMPLEX_SUM_TOL = 1e-9 + 1e-12

TRAJECTORY_HEADER = "t,X,Y,Z"
ENSEMBLE_HEADER = "path,seed,lyapunov,mean_infected,tail_mean_infected,Y_T"
ENSEMBLE_SUMMARY_KEYS = {
    "paths",
    "y_extinct",
    "extinction_fraction",
    *(f"{name}_{stat}" for name in ("lyapunov", "mean_infected", "tail_mean_infected")
      for stat in ("mean", "median", "iqr")),
}
CRITERIA_HEADER = (
    "model,classification,extinction_rate_lb,lambda0,lambda,"
    "mean_infected_lb,r_tilde,invariant_set_bound,side_conditions"
)


def expected_records(horizon: float, dt: float, stride: int) -> int:
    """Recorded time points of one path: every ``stride`` steps plus the end."""
    steps = max(1, math.ceil(horizon / dt - 1e-9))
    return len(range(0, steps + 1, stride)) + (steps % stride != 0)


def check_states(states: np.ndarray, simplex: bool, where: str) -> list[str]:
    """Finite, positive, and (on the simplex) unit-sum states of shape (..., 3)."""
    problems = []
    if not np.all(np.isfinite(states)):
        problems.append(f"{where}: non-finite state")
    elif not np.all(states > 0.0):
        problems.append(f"{where}: non-positive state component")
    elif simplex:
        dev = float(np.abs(states.sum(axis=-1) - 1.0).max())
        if dev > SIMPLEX_SUM_TOL:
            problems.append(f"{where}: simplex row sum off by {dev:.3e}")
    return problems


def check_trajectory_csv(path: Path, records: int, simplex: bool) -> list[str]:
    if not path.is_file():
        return [f"{path.name}: missing"]
    lines = path.read_text().splitlines()
    if not lines or lines[0] != TRAJECTORY_HEADER:
        return [f"{path.name}: bad header"]
    if len(lines) - 1 != records:
        return [f"{path.name}: {len(lines) - 1} rows, expected {records}"]
    table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    if table.shape != (records, 4):
        return [f"{path.name}: rows do not have four columns"]
    if not np.all(np.diff(table[:, 0]) > 0):
        return [f"{path.name}: times not increasing"]
    return check_states(table[:, 1:], simplex, path.name)


def check_ensemble_arrays(lyapunov, mean_infected, tail_mean, y_final, paths: int, where: str) -> list[str]:
    problems = []
    for name, arr in (("lyapunov", lyapunov), ("mean_infected", mean_infected),
                      ("tail_mean_infected", tail_mean), ("Y_T", y_final)):
        arr = np.asarray(arr, dtype=float)
        if arr.shape != (paths,):
            problems.append(f"{where}: {name} has shape {arr.shape}, expected ({paths},)")
        elif not np.all(np.isfinite(arr)):
            problems.append(f"{where}: non-finite {name}")
        elif name != "lyapunov" and not np.all(arr > 0.0):
            problems.append(f"{where}: non-positive {name}")
    return problems


def read_ensemble_csv(path: Path, paths: int):
    """Parse an ensemble CSV; returns (columns dict, problems)."""
    if not path.is_file():
        return None, [f"{path.name}: missing"]
    lines = path.read_text().splitlines()
    if not lines or lines[0] != ENSEMBLE_HEADER:
        return None, [f"{path.name}: bad header"]
    rows = [line.split(",") for line in lines[1 : paths + 1]]
    summary = lines[paths + 1 :]
    problems = []
    if len(rows) != paths or any(len(r) != 6 for r in rows):
        return None, [f"{path.name}: expected {paths} rows of six fields"]
    if [r[0] for r in rows] != [str(i) for i in range(paths)]:
        problems.append(f"{path.name}: path column is not 0..{paths - 1}")
    if len({r[1] for r in rows}) != paths or any(len(r[1]) != 32 for r in rows):
        problems.append(f"{path.name}: path seeds are not distinct 128-bit keys")
    keys = {}
    for line in summary:
        if not line.startswith("# ") or " = " not in line:
            problems.append(f"{path.name}: bad summary line {line!r}")
            continue
        key, value = line[2:].split(" = ", 1)
        keys[key] = float(value)
    if set(keys) != ENSEMBLE_SUMMARY_KEYS:
        problems.append(f"{path.name}: summary keys {sorted(keys)}")
    elif keys["paths"] != paths or not all(math.isfinite(v) for v in keys.values()):
        problems.append(f"{path.name}: summary paths or values wrong")
    cols = np.array([[float(v) for v in r[2:]] for r in rows])
    columns = {
        "lyapunov": cols[:, 0],
        "mean_infected": cols[:, 1],
        "tail_mean_infected": cols[:, 2],
        "y_final": cols[:, 3],
    }
    problems += check_ensemble_arrays(
        columns["lyapunov"], columns["mean_infected"], columns["tail_mean_infected"],
        columns["y_final"], paths, path.name,
    )
    return columns, problems


def check_verdict(rc: int, stdout: str) -> list[str]:
    """An ensemble exits 0 on a consistent or inapplicable verdict and 2 on
    an inconsistent one; the printed verdict must agree with the code."""
    verdicts = [line.split(":", 1)[1].strip() for line in stdout.splitlines() if line.startswith("verdict:")]
    if len(verdicts) != 1:
        return [f"expected one verdict line, got {len(verdicts)}"]
    verdict = verdicts[0].split()[0]
    expected_rc = {"consistent": 0, "inapplicable": 0, "inconsistent": 2}.get(verdict)
    if expected_rc is None:
        return [f"unknown verdict {verdict!r}"]
    if rc != expected_rc:
        return [f"exit code {rc} with verdict {verdict!r}"]
    return []


def check_criteria(out: Path, stem: str, model_id: str, classification: str) -> list[str]:
    text_path, csv_path = out / f"{stem}_criteria.txt", out / f"{stem}_criteria.csv"
    if not text_path.is_file() or not csv_path.is_file():
        return [f"{stem}: criteria outputs missing"]
    problems = []
    if f"classification: {classification}\n" not in text_path.read_text():
        problems.append(f"{text_path.name}: classification is not {classification!r}")
    lines = csv_path.read_text().splitlines()
    if len(lines) != 2 or lines[0] != CRITERIA_HEADER:
        problems.append(f"{csv_path.name}: expected the header and one row")
    elif lines[1].split(",")[:2] != [model_id, classification]:
        problems.append(f"{csv_path.name}: row starts {lines[1].split(',')[:2]}")
    return problems


def same_bytes(dir_a: Path, dir_b: Path) -> list[str]:
    """Every file of two output directories is byte-identical."""
    names_a = sorted(p.name for p in dir_a.iterdir())
    names_b = sorted(p.name for p in dir_b.iterdir())
    if not names_a or names_a != names_b:
        return [f"rerun wrote {names_b}, first run wrote {names_a}"]
    return [f"rerun changed {n}" for n in names_a if (dir_a / n).read_bytes() != (dir_b / n).read_bytes()]
