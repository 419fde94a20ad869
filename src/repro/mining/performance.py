"""Log-based performance analysis: sojourn times and bottlenecks."""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import mean

from repro.history.log import EventLog


@dataclass
class PerformanceProfile:
    """Timing diagnostics extracted from a timestamped log."""

    case_durations: list[float] = field(default_factory=list)
    # (a, b) -> list of gaps between completing a and completing b
    transition_times: dict[tuple[str, str], list[float]] = field(default_factory=dict)

    @property
    def mean_case_duration(self) -> float:
        return mean(self.case_durations) if self.case_durations else 0.0

    @property
    def max_case_duration(self) -> float:
        return max(self.case_durations, default=0.0)

    def mean_transition_time(self, a: str, b: str) -> float:
        """Mean gap between completing ``a`` and completing ``b``."""
        gaps = self.transition_times.get((a, b), [])
        return mean(gaps) if gaps else 0.0

    def bottlenecks(self, top: int = 3) -> list[tuple[str, str, float]]:
        """The handovers with the largest mean gaps (waiting hotspots)."""
        scored = [
            (a, b, mean(gaps))
            for (a, b), gaps in self.transition_times.items()
            if gaps
        ]
        scored.sort(key=lambda e: (-e[2], e[0], e[1]))
        return scored[:top]


def analyze_performance(log: EventLog) -> PerformanceProfile:
    """Compute case durations and inter-activity gaps from timestamps."""
    profile = PerformanceProfile()
    for trace in log:
        if len(trace.events) >= 2:
            profile.case_durations.append(trace.duration)
        elif trace.events:
            profile.case_durations.append(0.0)
        for first, second in zip(trace.events, trace.events[1:]):
            gap = second.timestamp - first.timestamp
            profile.transition_times.setdefault(
                (first.activity, second.activity), []
            ).append(gap)
    return profile
