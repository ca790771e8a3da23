"""``python -m benchmarks.perf compare A.json B.json``.

One row per (workload, end-to-end metric): both medians and quartiles
over the files' runs, the ratio B/A with A as its base, and a verdict.
One *set* in a result file is one run of every workload and gives one
observation per metric (the run's reported value).  The bound is the
issue's (:data:`benchmarks.perf.spec.END_TO_END`), not the looser one
``BENCHMARK.json`` declares to the driver.

* ``same`` — B's median is no worse than A's by more than the bound
  (and not better by more than it);
* ``better`` / ``worse`` — the medians differ by more than the bound;
  for exact metrics (bound 0) any difference at all;
* ``unresolved`` — either side's quartile spread is wider than the
  bound and the two sides' runs overlap, so the data cannot say.

Exit status 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, List

from benchmarks.perf import spec


def observations(result: dict) -> Dict[str, Dict[str, List[float]]]:
    """``{workload: {metric: one value per set}}``."""
    values: Dict[str, Dict[str, List[float]]] = {}
    for one_set in result["sets"]:
        for workload, record in one_set["workloads"].items():
            for metric, summary in record["metrics"].items():
                values.setdefault(workload, {}).setdefault(metric, []).append(
                    summary["value"]
                )
    return values


def verdict(metric: spec.Metric, base: List[float], other: List[float]) -> str:
    """Judge ``other`` against ``base`` for one metric on one workload."""
    base_median, other_median = statistics.median(base), statistics.median(other)
    sign = 1.0 if metric.better == "higher" else -1.0
    if metric.bound == 0:
        # Exact simulated statistics: any movement is a behaviour change.
        if set(base) == set(other):
            return "same"
        return "better" if sign * (other_median - base_median) > 0 else "worse"
    spreads = []
    for values, median in ((base, base_median), (other, other_median)):
        q1, q3 = spec.quartiles(values)
        spreads.append((q3 - q1) / abs(median) if median else 0.0)
    overlap = min(other) <= max(base) and min(base) <= max(other)
    if max(spreads) > metric.bound and overlap:
        return "unresolved"
    gain = sign * (other_median - base_median) / abs(base_median)
    if gain < -metric.bound:
        return "worse"
    if gain > metric.bound:
        return "better"
    return "same"


def compare(path_a: Path, path_b: Path) -> int:
    """Print the comparison table; return the process exit status."""
    result_a, result_b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    for path, result in ((path_a, result_a), (path_b, result_b)):
        if not result.get("comparable", False):
            print(f"warning: {path} is marked non-comparable (smoke run)")
    values_a, values_b = observations(result_a), observations(result_b)
    header = (
        f"{'workload':<17} {'metric':<18} {'A median [q1..q3]':>34} "
        f"{'B median [q1..q3]':>34} {'B/A':>8}  verdict"
    )
    print(header)
    print("-" * len(header))
    counts: Dict[str, int] = {}
    for workload in spec.WORKLOADS:
        for metric in spec.end_to_end_metrics():
            base = values_a.get(workload, {}).get(metric.name)
            other = values_b.get(workload, {}).get(metric.name)
            if not metric.applies_to(workload) or not base or not other:
                continue
            outcome = verdict(metric, base, other)
            counts[outcome] = counts.get(outcome, 0) + 1
            cells = []
            for values in (base, other):
                q1, q3 = spec.quartiles(values)
                cells.append(f"{statistics.median(values):.6g} [{q1:.6g}..{q3:.6g}]")
            base_median = statistics.median(base)
            ratio = f"{statistics.median(other) / base_median:.4f}" if base_median else "-"
            print(
                f"{workload:<17} {metric.name:<18} {cells[0]:>34} {cells[1]:>34} "
                f"{ratio:>8}  {outcome}"
            )
    print("-" * len(header))
    print("  ".join(f"{name}: {count}" for name, count in sorted(counts.items())),
          "(ratio = B median / A median; base A)")
    return 1 if counts.get("worse") else 0
