"""Fleet-level KPIs aggregated from engine history."""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import mean, median

from repro.history.audit import HistoryService
from repro.history.events import EventTypes


@dataclass
class CycleTimeAggregate:
    """A mergeable, constant-size cycle-time summary (count/total/min/max).

    Unlike the raw duration lists kept by :class:`FleetReport`, this
    aggregate is O(1) in memory and supports both incremental
    ``observe`` (the read-model maintenance path in :mod:`repro.views`)
    and cross-shard ``merge`` — the two operations a materialized
    per-definition analytics view needs.
    """

    count: int = 0
    total: float = 0.0
    min: float | None = None
    max: float | None = None

    def observe(self, duration: float) -> None:
        self.count += 1
        self.total += duration
        self.min = duration if self.min is None else builtins_min(self.min, duration)
        self.max = duration if self.max is None else builtins_max(self.max, duration)

    def merge(self, other: "CycleTimeAggregate") -> "CycleTimeAggregate":
        """A new aggregate combining both (neither operand mutated)."""
        if other.count == 0:
            return CycleTimeAggregate(self.count, self.total, self.min, self.max)
        if self.count == 0:
            return CycleTimeAggregate(other.count, other.total, other.min, other.max)
        return CycleTimeAggregate(
            count=self.count + other.count,
            total=self.total + other.total,
            min=builtins_min(self.min, other.min),
            max=builtins_max(self.max, other.max),
        )

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "CycleTimeAggregate":
        return cls(
            count=int(raw.get("count", 0)),
            total=float(raw.get("total", 0.0)),
            min=raw.get("min"),
            max=raw.get("max"),
        )


# dataclass fields shadow the builtins inside the class body
builtins_min = min
builtins_max = max


@dataclass
class ActivityStats:
    """Aggregate statistics for one activity across instances."""

    node_id: str
    executions: int = 0
    durations: list[float] = field(default_factory=list)

    @property
    def mean_duration(self) -> float:
        return mean(self.durations) if self.durations else 0.0


@dataclass
class FleetReport:
    """Everything the monitoring dashboard needs."""

    total_instances: int = 0
    completed: int = 0
    failed: int = 0
    terminated: int = 0
    running: int = 0
    cycle_times: list[float] = field(default_factory=list)
    activity_stats: dict[str, ActivityStats] = field(default_factory=dict)
    failures: list[tuple[str, str]] = field(default_factory=list)  # (instance, reason)

    @property
    def completion_rate(self) -> float:
        return self.completed / self.total_instances if self.total_instances else 0.0

    @property
    def mean_cycle_time(self) -> float:
        return mean(self.cycle_times) if self.cycle_times else 0.0

    @property
    def median_cycle_time(self) -> float:
        return median(self.cycle_times) if self.cycle_times else 0.0

    def bottleneck_activities(self, top: int = 3) -> list[ActivityStats]:
        """Activities with the largest mean enter→complete duration."""
        scored = [s for s in self.activity_stats.values() if s.durations]
        scored.sort(key=lambda s: (-s.mean_duration, s.node_id))
        return scored[:top]


def fleet_report(history: HistoryService) -> FleetReport:
    """Aggregate per-instance history into a fleet report."""
    report = FleetReport()
    for instance_id in history.instances():
        events = history.instance_events(instance_id)
        if not any(e.type == EventTypes.INSTANCE_STARTED for e in events):
            continue
        report.total_instances += 1
        terminal = next(
            (
                e
                for e in events
                if e.type
                in (
                    EventTypes.INSTANCE_COMPLETED,
                    EventTypes.INSTANCE_FAILED,
                    EventTypes.INSTANCE_TERMINATED,
                )
            ),
            None,
        )
        if terminal is None:
            report.running += 1
        elif terminal.type == EventTypes.INSTANCE_COMPLETED:
            report.completed += 1
            duration = history.instance_duration(instance_id)
            if duration is not None:
                report.cycle_times.append(duration)
        elif terminal.type == EventTypes.INSTANCE_FAILED:
            report.failed += 1
            report.failures.append(
                (instance_id, terminal.data.get("reason", "unknown"))
            )
        else:
            report.terminated += 1
        for node_id, durations in history.node_durations(instance_id).items():
            stats = report.activity_stats.setdefault(
                node_id, ActivityStats(node_id=node_id)
            )
            stats.executions += len(durations)
            stats.durations.extend(durations)
    return report
