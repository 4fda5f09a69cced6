"""Compare two record files written by ``run.py --record``.

One row per workload and metric: both medians, their ratio (new over
base), the run-to-run spread (the larger interquartile range of the two
sides as a share of the base median) and a verdict.  A difference within
the spread is unresolved, unless every new run reads better than every
base run; otherwise an end-to-end metric that got worse by more than the
bound in BENCHMARK.json is a regression.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path


def load(path) -> tuple[dict, list]:
    """(workload, metric) -> [values], and the distinct machine records."""
    values, machines = defaultdict(list), []
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        host = {k: v for k, v in rec["machine"].items() if k != "seed"}
        if host not in machines:
            machines.append(host)
        for name, metric in rec["result"]["metrics"].items():
            values[(rec["workload"], name)].append(metric["value"])
    return values, machines


def _iqr(vals: list) -> float:
    if len(vals) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return q3 - q1


def verdict(base: list, new: list, better: str, bound) -> tuple[str, float, float]:
    mb, mn = statistics.median(base), statistics.median(new)
    if mb == 0:
        return ("unresolved (base median is 0)", float("nan"), float("nan"))
    change = (mn - mb) / abs(mb)
    worse = change if better == "lower" else -change
    spread = max(_iqr(base), _iqr(new)) / abs(mb)
    new_wins = max(new) < min(base) if better == "lower" else min(new) > max(base)
    if abs(change) <= spread and not new_wins:
        return "unresolved", change, spread
    if worse <= 0:
        return "better", change, spread
    if bound is not None and worse > bound:
        return f"REGRESSION (> {bound:.0%})", change, spread
    return ("worse, within bound" if bound is not None else "worse"), change, spread


def main(base_path, new_path, spec_path) -> int:
    spec = json.loads(Path(spec_path).read_text())
    kinds = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, base_hosts = load(base_path)
    new, new_hosts = load(new_path)
    print(f"base machine: {base_hosts}")
    print(f"new machine:  {new_hosts}")
    print(f"{'workload':<15} {'metric':<42} {'unit':<14} {'base':>12} {'new':>12} "
          f"{'ratio':>7} {'spread':>7}  verdict")
    regressions = 0
    for key in sorted(set(base) & set(new)):
        workload, name = key
        kind = kinds.get(name, {"better": "lower", "unit": "?"})
        text, change, spread = verdict(base[key], new[key], kind["better"], kind.get("bound"))
        regressions += text.startswith("REGRESSION")
        mb, mn = statistics.median(base[key]), statistics.median(new[key])
        ratio = mn / mb if mb else float("nan")
        print(f"{workload:<15} {name:<42} {kind['unit']:<14} {mb:>12.6g} {mn:>12.6g} "
              f"{ratio:>7.4f} {spread:>7.2%}  {text} (n={len(base[key])}/{len(new[key])})")
    return 1 if regressions else 0
