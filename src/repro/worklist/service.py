"""The worklist service: queues, lifecycle operations, deadlines.

The engine creates an item when a token reaches a user task, claims,
starts and completes it from the work-item commands (then resuming the
token itself), cancels it when it withdraws the token, and escalates it
when the task's ``deadline`` job fires.  Every change enters through one
gate, :meth:`WorklistService._changing`: the lock and, once an engine has
bound its dispatch lock here (:meth:`WorklistService.bind_lock`), a
refusal outside a running command (a restore, outside the engine's
recovery), since only a command logs and commits the change.  A
standalone service takes direct calls.
"""

from __future__ import annotations

import itertools
import threading
import time
import weakref
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.clock import Clock, WallClock
from repro.history.audit import HistoryService

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import Observability
from repro.history.events import EventTypes
from repro.storage.kvstore import KeyValueStore
from repro.storage.writeset import WriteSet
from repro.worklist.allocation import Allocator, OfferOnlyAllocator
from repro.worklist.errors import (
    IllegalWorkItemTransition,
    UnknownWorkItemError,
    WorklistError,
)
from repro.worklist.items import WorkItem, WorkItemState
from repro.worklist.resources import OrganizationalModel

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
        # every item this service created or read; with an engine bound
        # (bind_index) the open ones and those its views have not folded,
        # and the weak identity cache keeps a folded item while held
        self._items: dict[str, WorkItem] = {}
        self._finished: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
        self._store: KeyValueStore | None = None
        self._index: Callable[[str | None], list[str]] | None = None
        self._id_counter = itertools.count(1)
        self._id_prefix = f"wi-{id_namespace}-" if id_namespace else "wi-"
        self._lock = threading.RLock()
        self._gate: Any = None  # standalone: no command gate
        # created or mutated items are put (items are never deleted); an
        # engine binds its shared write-set in place of this private one
        self._writes = WriteSet((WORKITEM_PREFIX,))
        # the open (non-terminal) items in creation order: added on create,
        # dropped on complete/cancel — no other transition closes an item.
        # Queue queries walk this, not every item the service has ever
        # held; they take no lock and walk a snapshot, since a completion
        # on another thread shrinks it.
        self._open: dict[str, WorkItem] = {}

    # -- wiring -----------------------------------------------------------------

    def bind_lock(self, lock: threading.RLock, gate: Any) -> None:
        """Share the caller's (engine's) dispatch lock and ``Dispatcher``,
        the gate every change passes; reads still take the lock against
        the views handing finished items to the weak cache."""
        self._lock, self._gate = lock, gate

    def _changing(
        self, command: str = "an engine command", restore: bool = False
    ) -> threading.RLock:
        """The lock a change runs under.  A bound worklist first checks,
        under it, that a command runs (for a ``restore``, the engine's
        recovery), else raises a :class:`WorklistError` naming ``command``;
        a caller that passes already holds the lock, so nothing runs
        between the check and the change."""
        with self._lock:
            gate = self._gate
            if gate is not None and not (gate.restoring if restore else gate.running()):
                raise WorklistError(f"use {command}: a direct call commits nothing")
        return self._lock

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
        self._items[item.id] = item  # live until the views fold the change
        self._writes.put(WORKITEM_PREFIX, item.id, item.to_dict)

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
        with self._changing():
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
            self._open[item.id] = item
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

        A finished item nothing holds is read from the bound store; while
        anything holds it, an id maps to one object."""
        item = self._find(item_id)
        if item is None:
            raise UnknownWorkItemError(f"unknown work item {item_id!r}")
        return item

    def _find(self, item_id: str) -> WorkItem | None:
        """The live item, else the cached finished one, else a read of the
        bound store (into the cache when finished, else the live map)."""
        item = self._items.get(item_id)
        if item is not None or self._store is None:
            return item
        with self._lock:
            item = self._items.get(item_id) or self._finished.get(item_id)
            if item is None:
                raw = self._store.get(WORKITEM_PREFIX + item_id)
                if raw is not None:
                    item = WorkItem.from_dict(raw)
                    held = self._finished if item.state.is_terminal else self._items
                    held[item_id] = item
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
        with self._changing("engine.claim_work_item"):
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

    def start(self, item_id: str) -> WorkItem:
        """The allocated resource begins work."""
        with self._changing("engine.start_work_item"):
            item = self.item(item_id)
            item.start(self.clock.now())
            self._touch(item)
            self._record(
                item, EventTypes.WORKITEM_STARTED, resource=item.allocated_to
            )
            return item

    def complete(self, item_id: str, result: dict[str, Any] | None = None) -> WorkItem:
        """Finish an item (the engine then resumes its token)."""
        with self._changing("engine.complete_work_item"):
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
            return item

    def cancel(self, item_id: str) -> WorkItem:
        """Withdraw a live item (engine calls this on interrupts)."""
        with self._changing():
            item = self.item(item_id)
            item.cancel(self.clock.now())
            self._touch(item)
            del self._open[item.id]
            if self._g_open is not None:
                self._g_open.dec()
            self._record(item, EventTypes.WORKITEM_CANCELLED)
            return item

    # -- deadlines -----------------------------------------------------------------

    def escalate(self, item_id: str) -> WorkItem:
        """Escalate an open item whose deadline passed (an engine fires
        this from the user task's ``deadline`` job).

        Escalation policy: bump priority and return an allocated-but-
        unstarted item to its role queue so a less-loaded resource can
        claim it.  A started item is only bumped.  The deadline is spent.
        """
        with self._changing():
            item = self.item(item_id)
            if item.state.is_terminal:
                raise IllegalWorkItemTransition(item.id, item.state.value, "escalated")
            now = self.clock.now()
            item.priority += 1
            item.escalations += 1
            item.due_at = None  # one escalation per deadline
            self._touch(item)
            if item.state is WorkItemState.ALLOCATED:
                item.reoffer(now)
            self._record(
                item, EventTypes.WORKITEM_ESCALATED, new_priority=item.priority
            )
            return item

    # -- persistence hooks -----------------------------------------------------------

    @property
    def open_count(self) -> int:
        """Open (non-terminal) items, O(1) — no scan of ``items()``."""
        return len(self._open)

    def export_items(self) -> list[dict[str, Any]]:
        """Serializable snapshot of all items (engine persistence)."""
        return [item.to_dict() for item in self.items()]

    def import_items(self, raw_items: list[dict[str, Any]], floor: int = 0) -> None:
        """Restore items from a snapshot; generated ids continue above
        ``floor`` and above every imported one.  A bound worklist takes
        this (and :meth:`load`) only from ``ProcessEngine.recover()``."""
        with self._changing("ProcessEngine.recover()", restore=True):
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
            ours = [_id_counter(i) for i in self._items if i.startswith(self._id_prefix)]
            top = max([floor, *ours])
            if top:
                self._id_counter = itertools.count(top + 1)

    def load(self, store: KeyValueStore, ids: Iterable[str], floor: int) -> None:
        """Restore the live items ``ids`` names, in creation order, from a
        store.  Every other stored item stays there until :meth:`item`
        reads it; ``floor`` is the highest creation counter stored, so
        generated ids never reuse one."""
        self.import_items([store.get(WORKITEM_PREFIX + i) for i in ids], floor)
