"""Compare two sets of benchmark results, metric by metric.

    python3 benchmarks/e2e/compare.py BASE.json CHANGE.json

Each file holds one result or a list of them, as ``run.py`` writes to
``out/``; a file may hold several runs of a workload (other seeds, or
repeats).  For every workload and end-to-end metric it prints

* ``ok``          the change's median is no worse than the base's by more
                  than the metric's bound in ``BENCHMARK.json``;
* ``regressed``   it is worse by more than the bound;
* ``unresolved``  the spread is wider than the bound, so neither can be
                  said.  With four or more runs on each side the spread is
                  the wider side's interquartile range over its median;
                  with fewer it is the range of the runs, or for a single
                  run the disagreement between that run's own epochs.

Exits 1 when anything regressed.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Any

MANIFEST = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..", "BENCHMARK.json")


def load(path: str) -> dict[str, list[dict[str, Any]]]:
    """Untraced results of a file, by workload."""
    with open(path, encoding="utf-8") as handle:
        found = json.load(handle)
    runs: dict[str, list[dict[str, Any]]] = {}
    for result in found if isinstance(found, list) else [found]:
        if not result.get("traced"):
            runs.setdefault(result["workload"], []).append(result)
    return runs


def spread(runs: list[dict[str, Any]], metric: str) -> float:
    values = [run["metrics"][metric]["value"] for run in runs]
    middle = statistics.median(values)
    if not middle:
        return 0.0
    if len(values) >= 4:
        quartiles = statistics.quantiles(values, n=4)
        return (quartiles[2] - quartiles[0]) / abs(middle)
    if len(values) >= 2:
        return (max(values) - min(values)) / abs(middle)
    return runs[0].get("spread", {}).get(metric, 0.0)


def verdict(base, change, metric: str, better: str, bound: float) -> tuple[str, float, float, float]:
    before = statistics.median(run["metrics"][metric]["value"] for run in base)
    after = statistics.median(run["metrics"][metric]["value"] for run in change)
    worse_by = (after - before) / before if better == "lower" else (before - after) / before
    width = max(spread(base, metric), spread(change, metric))
    if width > bound:
        return "unresolved", before, after, width
    return ("regressed" if worse_by > bound else "ok"), before, after, width


def compare(base_path: str, change_path: str) -> int:
    with open(MANIFEST, encoding="utf-8") as handle:
        manifest = json.load(handle)
    base, change = load(base_path), load(change_path)
    regressed = 0
    for workload in (entry["name"] for entry in manifest["workloads"]):
        if workload not in base or workload not in change:
            print(f"{workload}: missing on one side")
            continue
        print(f"{workload}  ({len(base[workload])} vs {len(change[workload])} runs)")
        for metric in manifest["end_to_end"]:
            word, before, after, width = verdict(
                base[workload], change[workload], metric["name"], metric["better"], metric["bound"]
            )
            regressed += word == "regressed"
            print(
                f"  {metric['name']:<24}{before:>14.4f} -> {after:>14.4f} {metric['unit']:<6}"
                f" bound {metric['bound']:.0%}  spread {width:.1%}  {word}"
            )
        failed = sum(run["failed"] for run in change[workload])
        if failed:
            regressed += 1
            print(f"  {failed} operations failed on the change side  regressed")
    return 1 if regressed else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(compare(sys.argv[1], sys.argv[2]))
