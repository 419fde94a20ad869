"""The history service: typed audit trail over an event store."""

from __future__ import annotations

from typing import Any

from repro.clock import Clock, WallClock
from repro.history.events import EventTypes
from repro.storage.eventstore import EventRecord, EventStore

#: the events that end an instance's run
_FINISHED = (
    EventTypes.INSTANCE_COMPLETED,
    EventTypes.INSTANCE_TERMINATED,
    EventTypes.INSTANCE_FAILED,
)


class HistoryService:
    """Records and queries engine events.

    The ``stream`` of an event is the process-instance id; engine-level
    events (deployments) use the reserved stream ``"engine"``.
    """

    ENGINE_STREAM = "engine"

    def __init__(self, store: EventStore | None = None, clock: Clock | None = None) -> None:
        self.store = store if store is not None else EventStore()
        self.clock = clock if clock is not None else WallClock()

    # -- recording ------------------------------------------------------------

    def record(
        self,
        instance_id: str,
        event_type: str,
        **data: Any,
    ) -> int:
        """Append one event stamped with the service clock; returns its
        sequence number (read it back with ``store.since(sequence)``)."""
        return self.store.append(instance_id, event_type, self.clock.now(), data)

    # -- queries --------------------------------------------------------------

    def instance_events(self, instance_id: str) -> list[EventRecord]:
        """All events of one instance, in order."""
        return self.store.stream(instance_id)

    def instances(self) -> list[str]:
        """All instance ids that have history (excludes the engine stream)."""
        return [s for s in self.store.streams() if s != self.ENGINE_STREAM]

    def events_of_type(self, event_type: str) -> list[EventRecord]:
        """All events of one type across instances."""
        return self.store.of_type(event_type)

    def instance_duration(self, instance_id: str) -> float | None:
        """Wall time from start to completion/termination, if both exist."""
        started = finished = None
        for event in self.instance_events(instance_id):
            if event.type == EventTypes.INSTANCE_STARTED and started is None:
                started = event.timestamp
            elif event.type in _FINISHED and finished is None:
                finished = event.timestamp
        return None if started is None or finished is None else finished - started

    def node_durations(self, instance_id: str) -> dict[str, list[float]]:
        """Per-node durations (entered → completed) for one instance.

        A node can run several times (loops); each run contributes one
        duration.  Pairing is FIFO per node id.
        """
        pending: dict[str, list[float]] = {}
        durations: dict[str, list[float]] = {}
        for event in self.instance_events(instance_id):
            node_id = event.data.get("node_id")
            if node_id is None:
                continue
            if event.type == EventTypes.NODE_ENTERED:
                pending.setdefault(node_id, []).append(event.timestamp)
            elif event.type == EventTypes.NODE_COMPLETED and pending.get(node_id):
                entered = pending[node_id].pop(0)
                durations.setdefault(node_id, []).append(event.timestamp - entered)
        return durations

    def completed_instances(self) -> list[str]:
        """Instance ids that reached normal completion."""
        completed = self.store.of_type(EventTypes.INSTANCE_COMPLETED)
        return sorted({event.stream for event in completed})

    def close(self) -> None:
        """Close the backing store."""
        self.store.close()
