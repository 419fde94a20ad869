"""Work items and their lifecycle state machine.

Lifecycle (WfMC-inspired)::

    CREATED -> OFFERED -> ALLOCATED -> STARTED -> COMPLETED
        \\         \\          \\           \\
         +---------+----------+-----------+--> CANCELLED

``CREATED`` items are in no one's queue yet; ``OFFERED`` items sit in a
role queue for pull-based claiming; ``ALLOCATED`` items are pushed to one
resource; ``STARTED`` marks actual work in progress (waiting-time metrics
end here).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

from repro.worklist.errors import IllegalWorkItemTransition


class WorkItemState(enum.Enum):
    CREATED = "created"
    OFFERED = "offered"
    ALLOCATED = "allocated"
    STARTED = "started"
    COMPLETED = "completed"
    CANCELLED = "cancelled"

    @property
    def is_terminal(self) -> bool:
        return self in (WorkItemState.COMPLETED, WorkItemState.CANCELLED)


_LEGAL: dict[WorkItemState, frozenset[WorkItemState]] = {
    WorkItemState.CREATED: frozenset(
        {WorkItemState.OFFERED, WorkItemState.ALLOCATED, WorkItemState.CANCELLED}
    ),
    WorkItemState.OFFERED: frozenset(
        {WorkItemState.ALLOCATED, WorkItemState.CANCELLED}
    ),
    WorkItemState.ALLOCATED: frozenset(
        {WorkItemState.STARTED, WorkItemState.OFFERED, WorkItemState.CANCELLED}
    ),
    WorkItemState.STARTED: frozenset(
        {WorkItemState.COMPLETED, WorkItemState.CANCELLED}
    ),
    WorkItemState.COMPLETED: frozenset(),
    WorkItemState.CANCELLED: frozenset(),
}


@dataclass
class WorkItem:
    """One unit of human work scheduled by the engine."""

    id: str
    instance_id: str
    node_id: str
    role: str
    priority: int = 0
    created_at: float = 0.0
    due_at: float | None = None
    state: WorkItemState = WorkItemState.CREATED
    allocated_to: str | None = None
    offered_at: float | None = None
    allocated_at: float | None = None
    started_at: float | None = None
    finished_at: float | None = None
    escalations: int = 0
    data: dict[str, Any] = field(default_factory=dict)
    result: dict[str, Any] = field(default_factory=dict)

    def _transition(self, target: WorkItemState) -> None:
        if target not in _LEGAL[self.state]:
            raise IllegalWorkItemTransition(self.id, self.state.value, target.value)
        self.state = target

    # -- lifecycle ------------------------------------------------------------

    def offer(self, now: float) -> None:
        """Place the item in its role queue for claiming."""
        self._transition(WorkItemState.OFFERED)
        self.offered_at = now

    def allocate(self, resource_id: str, now: float) -> None:
        """Assign the item to one resource."""
        self._transition(WorkItemState.ALLOCATED)
        self.allocated_to = resource_id
        self.allocated_at = now

    def reoffer(self, now: float) -> None:
        """Return an allocated item to the queue (deadline escalation)."""
        self._transition(WorkItemState.OFFERED)
        self.allocated_to = None
        self.offered_at = now

    def start(self, now: float) -> None:
        """Mark work as begun by the allocated resource."""
        self._transition(WorkItemState.STARTED)
        self.started_at = now

    def complete(self, result: dict[str, Any] | None, now: float) -> None:
        """Finish the item with an optional result payload."""
        self._transition(WorkItemState.COMPLETED)
        self.result = dict(result or {})
        self.finished_at = now

    def cancel(self, now: float) -> None:
        """Withdraw the item (instance terminated, boundary fired, ...)."""
        self._transition(WorkItemState.CANCELLED)
        self.finished_at = now

    # -- metrics ----------------------------------------------------------------

    def waiting_time(self) -> float | None:
        """Creation → start (None while not started)."""
        if self.started_at is None:
            return None
        return self.started_at - self.created_at

    def service_time(self) -> float | None:
        """Start → completion (None while not completed)."""
        if self.started_at is None or self.finished_at is None:
            return None
        if self.state is not WorkItemState.COMPLETED:
            return None
        return self.finished_at - self.started_at

    # -- persistence ----------------------------------------------------------
    #
    # data and result are copied both ways, as ProcessInstance does: a
    # store keeping value objects must not alias a live item.  A completed
    # or cancelled item never changes again, so its record shares them

    def to_dict(self) -> dict[str, Any]:
        data, result = self.data, self.result
        if not self.state.is_terminal:
            data, result = dict(data), dict(result)
        return {
            "id": self.id,
            "instance_id": self.instance_id,
            "node_id": self.node_id,
            "role": self.role,
            "priority": self.priority,
            "created_at": self.created_at,
            "due_at": self.due_at,
            "state": self.state.value,
            "allocated_to": self.allocated_to,
            "offered_at": self.offered_at,
            "allocated_at": self.allocated_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "escalations": self.escalations,
            "data": data,
            "result": result,
        }

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "WorkItem":
        item = cls(
            id=raw["id"],
            instance_id=raw["instance_id"],
            node_id=raw["node_id"],
            role=raw["role"],
            priority=raw.get("priority", 0),
            created_at=raw.get("created_at", 0.0),
            due_at=raw.get("due_at"),
            allocated_to=raw.get("allocated_to"),
            offered_at=raw.get("offered_at"),
            allocated_at=raw.get("allocated_at"),
            started_at=raw.get("started_at"),
            finished_at=raw.get("finished_at"),
            escalations=raw.get("escalations", 0),
            data=dict(raw.get("data", ())),
            result=dict(raw.get("result", ())),
        )
        item.state = WorkItemState(raw.get("state", "created"))
        return item
