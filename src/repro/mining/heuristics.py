"""Heuristics miner: frequency-weighted dependency graphs.

Where the alpha algorithm is exact but brittle (noise, incompleteness),
the heuristics miner scores each activity pair with the *dependency
measure*

    dep(a, b) = (|a>b| - |b>a|) / (|a>b| + |b>a| + 1)

and keeps edges above a threshold — noise produces low-frequency, low-score
edges that fall away.  The result is a dependency graph (not a net): the
standard first half of the full heuristics-net construction, sufficient for
the discovery comparisons in T4.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.history.log import EventLog
from repro.mining.dfg import DirectlyFollowsGraph


@dataclass
class DependencyGraph:
    """Thresholded dependency relation over activities."""

    activities: set[str] = field(default_factory=set)
    dependencies: dict[tuple[str, str], float] = field(default_factory=dict)
    start_activities: set[str] = field(default_factory=set)
    end_activities: set[str] = field(default_factory=set)

    def edge(self, a: str, b: str) -> float:
        """Dependency score of a retained edge (0.0 when absent)."""
        return self.dependencies.get((a, b), 0.0)


def dependency_measure(dfg: DirectlyFollowsGraph, a: str, b: str) -> float:
    """The classic Weijters dependency measure in [-1, 1]."""
    if a == b:
        # length-one-loop measure: |a>a| / (|a>a| + 1)
        n = dfg.follows(a, a)
        return n / (n + 1)
    forward = dfg.follows(a, b)
    backward = dfg.follows(b, a)
    return (forward - backward) / (forward + backward + 1)


def heuristics_miner(
    log: EventLog,
    dependency_threshold: float = 0.9,
    min_frequency: int = 1,
) -> DependencyGraph:
    """Mine a dependency graph, dropping edges below the thresholds."""
    dfg = DirectlyFollowsGraph.from_log(log)
    graph = DependencyGraph(
        activities=set(dfg.activities),
        start_activities=set(dfg.start_activities),
        end_activities=set(dfg.end_activities),
    )
    for (a, b), count in dfg.counts.items():
        if count < min_frequency:
            continue
        score = dependency_measure(dfg, a, b)
        if score >= dependency_threshold:
            graph.dependencies[(a, b)] = round(score, 6)
    return graph
