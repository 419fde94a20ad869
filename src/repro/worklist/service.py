"""The worklist service: queues, lifecycle operations, deadlines.

The engine calls :meth:`WorklistService.create_item` when a token reaches a
user task and registers a completion listener to resume the token.  People
(or the simulator) interact through ``claim``/``start``/``complete``.

Lifecycle mutations are serialized by a re-entrant lock.  An engine binds
its dispatch lock here (:meth:`WorklistService.bind_lock`) so direct
worklist calls from foreign threads queue behind the running command
instead of interleaving with it; calls made from inside a dispatched
command re-enter the same lock without deadlocking.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.clock import Clock, WallClock
from repro.history.audit import HistoryService

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import Observability
from repro.history.events import EventTypes
from repro.storage.kvstore import KeyValueStore
from repro.storage.writeset import WriteSet
from repro.worklist.allocation import Allocator, OfferOnlyAllocator
from repro.worklist.errors import UnknownWorkItemError, WorklistError
from repro.worklist.items import WorkItem, WorkItemState
from repro.worklist.resources import OrganizationalModel

CompletionListener = Callable[[WorkItem], None]

#: store-key family of work items (``workitem/<item id>``)
WORKITEM_PREFIX = "workitem/"


def _id_counter(item_id: str) -> int:
    """The creation counter a generated id ends in (``wi-7``, ``wi-s2-7``)."""
    tail = item_id.rsplit("-", 1)[-1]
    return int(tail) if tail.isdigit() else 0


class WorklistService:
    """Work-item routing and lifecycle management."""

    def __init__(
        self,
        organization: OrganizationalModel | None = None,
        allocator: Allocator | None = None,
        clock: Clock | None = None,
        history: HistoryService | None = None,
        obs: "Observability | None" = None,
        id_namespace: str = "",
    ) -> None:
        """``id_namespace`` (e.g. ``"s2"``) is spliced into generated item
        ids (``wi-s2-7``) so several services — one per cluster shard —
        can coexist without id collisions."""
        # `is None` checks: an empty OrganizationalModel is falsy (__len__)
        self.organization = (
            organization if organization is not None else OrganizationalModel()
        )
        self.allocator = allocator if allocator is not None else OfferOnlyAllocator()
        self.clock = clock if clock is not None else WallClock()
        self.history = history
        self._obs = obs
        self._h_route = None if obs is None else obs.registry.histogram(
            "worklist.route_seconds"
        )
        self._g_open = None if obs is None else obs.registry.gauge(
            "worklist.open_items"
        )
        # every item this service created or read; with an engine's index
        # bound (bind_index) that is the open ones plus those read through
        self._items: dict[str, WorkItem] = {}
        self._store: KeyValueStore | None = None
        self._index: Callable[[str | None], list[str]] | None = None
        self._completion_listeners: list[CompletionListener] = []
        self._id_counter = itertools.count(1)
        self._id_prefix = f"wi-{id_namespace}-" if id_namespace else "wi-"
        self._lock = threading.RLock()
        # created or mutated items are put (items are never deleted); an
        # engine binds its shared write-set in place of this private one
        self._writes = WriteSet((WORKITEM_PREFIX,))
        # the open (non-terminal) items in creation order: added on create,
        # dropped on complete/cancel — no other transition closes an item.
        # Queue queries and the deadline check walk this, not every item
        # the service has ever held; the queries, which take no lock, walk
        # a snapshot, since a completion on another thread shrinks it.
        self._open: dict[str, WorkItem] = {}

    # -- wiring -----------------------------------------------------------------

    def bind_lock(self, lock: threading.RLock) -> None:
        """Share the caller's (engine's) serialization lock."""
        self._lock = lock

    def bind_writes(self, writes: WriteSet) -> None:
        """Share the caller's (engine's) write-set."""
        self._writes = writes

    def bind_index(
        self, store: KeyValueStore, ids: Callable[[str | None], list[str]]
    ) -> None:
        """List items from the caller's (engine's) index — ``ids(state)``
        gives item ids in creation order, ``state`` a state value or
        ``None`` — and read an item this service does not hold from
        ``store`` on first use."""
        self._store = store
        self._index = ids

    def _touch(self, item: WorkItem) -> None:
        self._writes.put(WORKITEM_PREFIX, item.id, item.to_dict)

    def on_completion(self, listener: CompletionListener) -> None:
        """Register a callback fired on every completed item (engine hook)."""
        self._completion_listeners.append(listener)

    def _record(self, item: WorkItem, event_type: str, **data: Any) -> None:
        history = self.history
        if history is not None:
            # history.record() without packing the keywords a second time
            history.store.append(
                item.instance_id,
                event_type,
                history.clock.now(),
                {
                    "work_item_id": item.id,
                    "node_id": item.node_id,
                    "role": item.role,
                    **data,
                },
            )

    # -- creation & routing -------------------------------------------------------

    def create_item(
        self,
        instance_id: str,
        node_id: str,
        role: str,
        priority: int = 0,
        due_seconds: float | None = None,
        data: dict[str, Any] | None = None,
        item_id: str | None = None,
    ) -> WorkItem:
        """Create, then offer/allocate a work item per the allocator."""
        with self._lock:
            now = self.clock.now()
            item = WorkItem(
                id=item_id or f"{self._id_prefix}{next(self._id_counter)}",
                instance_id=instance_id,
                node_id=node_id,
                role=role,
                priority=priority,
                created_at=now,
                due_at=None if due_seconds is None else now + due_seconds,
                data=dict(data or {}),
            )
            if item.id in self._items:
                raise WorklistError(f"duplicate work item id {item.id!r}")
            self._items[item.id] = self._open[item.id] = item
            self._touch(item)
            if self._g_open is not None:
                self._g_open.inc()
            self._record(item, EventTypes.WORKITEM_CREATED, priority=priority)
            if self._h_route is None:
                self._route(item)
            else:
                started = time.perf_counter()
                self._route(item)
                self._h_route.observe(time.perf_counter() - started)
            return item

    def _route(self, item: WorkItem) -> None:
        now = self.clock.now()
        candidates = self.organization.with_role(item.role)
        excluded = set(item.data.get("excluded_resources", ()))
        if excluded:
            candidates = [r for r in candidates if r.id not in excluded]
        chosen = self.allocator.choose(item, candidates, self.queue_lengths())
        if chosen is None:
            item.offer(now)
            self._record(item, EventTypes.WORKITEM_OFFERED)
        else:
            item.offer(now)
            item.allocate(chosen.id, now)
            self._record(item, EventTypes.WORKITEM_ALLOCATED, resource=chosen.id)

    # -- queries ----------------------------------------------------------------

    def item(self, item_id: str) -> WorkItem:
        """Look up an item; raises :class:`UnknownWorkItemError`.

        An item not in memory (after a restart: a finished one) is read
        from the bound store on first use and kept, so an id maps to one
        object."""
        item = self._find(item_id)
        if item is None:
            raise UnknownWorkItemError(f"unknown work item {item_id!r}")
        return item

    def _find(self, item_id: str) -> WorkItem | None:
        item = self._items.get(item_id)
        if item is not None or self._store is None:
            return item
        with self._lock:
            item = self._items.get(item_id)
            if item is None:
                raw = self._store.get(WORKITEM_PREFIX + item_id)
                if raw is not None:
                    item = self._items[item_id] = WorkItem.from_dict(raw)
            return item

    def items(self, state: WorkItemState | None = None) -> list[WorkItem]:
        """All items (optionally filtered by state), by creation order."""
        if self._index is None:
            values = list(self._items.values())
            return values if state is None else [i for i in values if i.state is state]
        with self._lock:
            ids = self._index(None if state is None else state.value)
            return [item for item in map(self._find, ids) if item is not None]

    def queue_of(self, resource_id: str) -> list[WorkItem]:
        """Open items allocated to (or started by) one resource,
        highest priority first, then oldest first."""
        mine = [i for i in list(self._open.values()) if i.allocated_to == resource_id]
        return sorted(mine, key=lambda i: (-i.priority, i.created_at))

    def offered_for_role(self, role: str) -> list[WorkItem]:
        """Unclaimed items in a role queue, highest priority first."""
        offered = [
            i
            for i in list(self._open.values())
            if i.role == role and i.state is WorkItemState.OFFERED
        ]
        return sorted(offered, key=lambda i: (-i.priority, i.created_at))

    def offered_for_resource(self, resource_id: str) -> list[WorkItem]:
        """Union of role queues visible to one resource (minus items the
        resource is excluded from by separation of duties)."""
        resource = self.organization.get(resource_id)
        visible: list[WorkItem] = []
        for role in sorted(resource.roles):
            visible.extend(
                item
                for item in self.offered_for_role(role)
                if resource_id not in item.data.get("excluded_resources", ())
            )
        return sorted(visible, key=lambda i: (-i.priority, i.created_at))

    def queue_lengths(self) -> dict[str, int]:
        """Open (non-terminal) item count per resource."""
        lengths: dict[str, int] = {}
        for item in list(self._open.values()):
            if item.allocated_to:
                lengths[item.allocated_to] = lengths.get(item.allocated_to, 0) + 1
        return lengths

    # -- lifecycle operations ------------------------------------------------------

    def claim(self, item_id: str, resource_id: str) -> WorkItem:
        """A resource pulls an offered item from its role queue.

        Rejected if the resource lacks the role or is excluded by a
        separation-of-duties constraint (``excluded_resources`` in the
        item's data).
        """
        with self._lock:
            item = self.item(item_id)
            resource = self.organization.get(resource_id)
            if not resource.has_role(item.role):
                raise WorklistError(
                    f"resource {resource_id!r} lacks role {item.role!r} "
                    f"for {item_id!r}"
                )
            if resource_id in item.data.get("excluded_resources", ()):
                raise WorklistError(
                    f"resource {resource_id!r} is excluded from {item_id!r} "
                    "(separation of duties)"
                )
            item.allocate(resource_id, self.clock.now())
            self._touch(item)
            self._record(item, EventTypes.WORKITEM_ALLOCATED, resource=resource_id)
            return item

    def delegate(self, item_id: str) -> WorkItem:
        """Return an allocated item to its role queue."""
        with self._lock:
            item = self.item(item_id)
            item.reoffer(self.clock.now())
            self._touch(item)
            self._record(item, EventTypes.WORKITEM_OFFERED, delegated=True)
            return item

    def start(self, item_id: str) -> WorkItem:
        """The allocated resource begins work."""
        with self._lock:
            item = self.item(item_id)
            item.start(self.clock.now())
            self._touch(item)
            self._record(
                item, EventTypes.WORKITEM_STARTED, resource=item.allocated_to
            )
            return item

    def complete(self, item_id: str, result: dict[str, Any] | None = None) -> WorkItem:
        """Finish an item; fires completion listeners (the engine resumes)."""
        with self._lock:
            item = self.item(item_id)
            item.complete(result, self.clock.now())
            self._touch(item)
            del self._open[item.id]
            if self._g_open is not None:
                self._g_open.dec()
            self._record(
                item,
                EventTypes.WORKITEM_COMPLETED,
                resource=item.allocated_to,
                result_keys=sorted((result or {}).keys()),
            )
            record_completion = getattr(self.allocator, "record_completion", None)
            if record_completion is not None and item.allocated_to:
                record_completion(item.instance_id, item.allocated_to)
            for listener in self._completion_listeners:
                listener(item)
            return item

    def cancel(self, item_id: str) -> WorkItem:
        """Withdraw a live item (engine calls this on interrupts)."""
        with self._lock:
            item = self.item(item_id)
            item.cancel(self.clock.now())
            self._touch(item)
            del self._open[item.id]
            if self._g_open is not None:
                self._g_open.dec()
            self._record(item, EventTypes.WORKITEM_CANCELLED)
            return item

    def cancel_for_instance(self, instance_id: str) -> int:
        """Cancel every live item of one instance; returns the count."""
        with self._lock:
            cancelled = 0
            for item in list(self._open.values()):
                if item.instance_id == instance_id:
                    self.cancel(item.id)
                    cancelled += 1
            return cancelled

    # -- deadlines -----------------------------------------------------------------

    def check_deadlines(self) -> list[WorkItem]:
        """Escalate every overdue live item.

        Escalation policy: bump priority and return allocated-but-unstarted
        items to their role queue so a less-loaded resource can claim them.
        Items already started are only bumped.  Returns escalated items.
        """
        with self._lock:
            now = self.clock.now()
            escalated = []
            for item in self._open.values():
                if not item.is_overdue(now):
                    continue
                item.priority += 1
                item.escalations += 1
                item.due_at = None  # one escalation per deadline
                self._touch(item)
                if item.state is WorkItemState.ALLOCATED:
                    item.reoffer(now)
                self._record(
                    item, EventTypes.WORKITEM_ESCALATED, new_priority=item.priority
                )
                escalated.append(item)
            return escalated

    # -- persistence hooks -----------------------------------------------------------

    @property
    def open_count(self) -> int:
        """Open (non-terminal) items, O(1) — no scan of ``items()``."""
        return len(self._open)

    def export_items(self) -> list[dict[str, Any]]:
        """Serializable snapshot of all items (engine persistence)."""
        return [item.to_dict() for item in self.items()]

    def import_items(self, raw_items: list[dict[str, Any]], floor: int = 0) -> None:
        """Restore items from a snapshot (engine recovery); generated ids
        continue above ``floor`` and above every imported one."""
        for raw in raw_items:
            item = WorkItem.from_dict(raw)
            self._items[item.id] = item
        was_open = len(self._open)
        self._open = {
            item.id: item
            for item in self._items.values()
            if not item.state.is_terminal
        }
        if self._g_open is not None:
            # a delta, not set(): cluster shards share one gauge
            self._g_open.inc(len(self._open) - was_open)
        # keep generated ids unique after recovery
        top = max(
            [floor]
            + [
                _id_counter(item_id)
                for item_id in self._items
                if item_id.startswith(self._id_prefix)
            ]
        )
        if top:
            self._id_counter = itertools.count(top + 1)

    def load(self, store: KeyValueStore, ids: Iterable[str], floor: int) -> None:
        """Restore the live items ``ids`` names, in creation order, from a
        store.  Every other stored item stays there until :meth:`item`
        reads it; ``floor`` is the highest creation counter stored, so
        generated ids never reuse one."""
        self.import_items([store.get(WORKITEM_PREFIX + i) for i in ids], floor)
