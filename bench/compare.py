"""Compare two sets of result files: ``python -m bench compare BASE NEW``.

``BASE`` and ``NEW`` are directories of result files written by ``python -m
bench run --out DIR``.  For every workload and metric the table shows each
set's median and quartiles (``statistics.quantiles(values, n=4)``), the
change of the new median against the base median, and a flag:

* ``REGRESSION`` -- the new median is worse than the base median by more
  than the metric's bound in ``BENCHMARK.json``;
* ``unresolved`` -- the change is within the bound, but a set's quartile
  spread (as a share of its median) is wider than the bound, so no change
  can be ruled out.

Runs marked invalid (``info.valid`` false: the load generator fell behind
its schedule) are left out of the medians and counted under the table.
Per-layer metrics of traced runs have no bound and are shown unflagged.
Exits 1 if any metric regressed.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from . import load_spec

#: Environment fields that must match for two sets to be comparable.
HARDWARE = ("nproc", "cpu_model", "blas", "OPENBLAS_NUM_THREADS")

Key = Tuple[str, bool]


def load_results(directory: str) -> Tuple[Dict[Key, Dict[str, List[float]]],
                                          List[dict], List[str]]:
    """Metric values per (workload, traced) of the valid result files in a
    directory, their environments, and the names of the invalid files."""
    values: Dict[Key, Dict[str, List[float]]] = defaultdict(
        lambda: defaultdict(list))
    environments, invalid = [], []
    for path in sorted(Path(directory).glob("*.json")):
        if path.name.endswith("-spans.json"):
            continue
        record = json.loads(path.read_text())
        if record.get("info", {}).get("valid") is False:
            invalid.append(path.name)
            continue
        key = (record["workload"], bool(record["trace"]))
        for name, metric in record["metrics"].items():
            values[key][name].append(float(metric["value"]))
        environments.append(record.get("environment", {}))
    return values, environments, invalid


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: List[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(base: List[float], new: List[float], better: str,
            bound: Optional[float]) -> Tuple[float, str]:
    """Change of the median as a share of the base median, and its flag.

    The flag is REGRESSION, unresolved, or empty; metrics without a bound
    are never flagged.
    """
    base_median, new_median = quartiles(base)[1], quartiles(new)[1]
    if not base_median:
        return 0.0, ""
    change = (new_median - base_median) / abs(base_median)
    if bound is None:
        return change, ""
    worse = change if better == "lower" else -change
    if worse > bound:
        return change, "REGRESSION"
    if max(spread(base), spread(new)) > bound:
        return change, "unresolved"
    return change, ""


def compare_dirs(base_dir: str, new_dir: str) -> int:
    """Print the comparison table; 1 if any metric regressed."""
    spec = load_spec()
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, base_env, base_invalid = load_results(base_dir)
    new, new_env, new_invalid = load_results(new_dir)
    for field in HARDWARE:
        seen = {str(env.get(field)) for env in base_env + new_env}
        if len(seen) > 1:
            print(f"warning: the sets differ in {field}: {sorted(seen)}")

    rows = [("workload", "metric", "unit", "base median [q1, q3]",
             "new median [q1, q3]", "change", "bound", "flag")]
    regressions = 0
    for key in sorted(set(base) & set(new)):
        for name, metric in declared.items():
            if name not in base[key] or name not in new[key]:
                continue
            b, n = base[key][name], new[key][name]
            if not any(b) and not any(n):
                continue  # a layer this workload does not run
            bound = metric.get("bound")
            change, flag = verdict(b, n, metric["better"], bound)
            regressions += flag == "REGRESSION"
            rows.append((key[0], name, metric["unit"], _cell(b), _cell(n),
                         f"{change:+.1%}",
                         "" if bound is None else f"{bound:.0%}", flag))
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(width)
                        for cell, width in zip(row, widths)).rstrip())
    only = sorted(set(base) ^ set(new))
    if only:
        print(f"in one set only: {only}")
    for label, names in (("base", base_invalid), ("new", new_invalid)):
        if names:
            print(f"INVALID, left out of the {label} set: {', '.join(names)}")
    return 1 if regressions else 0


def _cell(values: List[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}"
