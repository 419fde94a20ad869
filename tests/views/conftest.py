"""Shared helpers for the read-model (repro.views) test suite."""

import json

import pytest

from repro.clock import VirtualClock
from repro.engine.engine import ProcessEngine
from repro.model.builder import ProcessBuilder
from repro.model.elements import ScriptTask
from repro.views.manager import ProjectionManager
from repro.views.projections import (
    TERMINAL_INSTANCE_STATES,
    TERMINAL_ITEM_STATES,
    compact_instance_obj,
    compact_item_obj,
)
from repro.worklist.allocation import ShortestQueueAllocator


def approval_model():
    return (
        ProcessBuilder("approval")
        .start()
        .user_task("review", role="clerk")
        .script_task("after", script="done = true")
        .end()
        .build()
    )


def auto_model():
    return (
        ProcessBuilder("auto")
        .start()
        .script_task("work", script="doubled = n * 2")
        .end()
        .build()
    )


def trip_model():
    """Two steps, each with an undo handler: compensating a completed
    trip re-puts a finished instance."""
    builder = ProcessBuilder("trip")
    builder.add_node(ScriptTask("cancel_flight", script="order = order + 'F'"))
    builder.add_node(ScriptTask("cancel_hotel", script="order = order + 'H'"))
    builder.start()
    builder.script_task(
        "book_flight", script="flight = 1", compensation_handler="cancel_flight"
    )
    builder.script_task(
        "book_hotel", script="hotel = 1", compensation_handler="cancel_hotel"
    )
    builder.end()
    return builder.build()


def build_engine(store=None, **kwargs):
    kwargs.setdefault("clock", VirtualClock(0))
    engine = ProcessEngine(
        store=store, allocator=ShortestQueueAllocator(), **kwargs
    )
    engine.organization.add("ana", roles=["clerk"])
    return engine


class TerminalGuard:
    """Wraps a manager's ``by_state.apply_instances`` and
    ``worklist.apply_items``: fails the test when a table is fed a
    transition out of a terminal state, or any transition of an entity
    already seen final — what the finished tier's drop rule must
    prevent."""

    def __init__(self, manager):
        self.finished = set()
        self._wrap(manager.by_state, "apply_instances", TERMINAL_INSTANCE_STATES)
        self._wrap(manager.worklist, "apply_items", TERMINAL_ITEM_STATES)

    def _wrap(self, table, method, terminal):
        apply = getattr(table, method)

        def checked(pairs):
            for old, new in pairs:
                self._check(old, new, terminal)
            apply(pairs)

        setattr(table, method, checked)

    def _check(self, old, new, terminal):
        assert old is None or old["state"] not in terminal, (old, new)
        assert new["id"] not in self.finished, f"{new['id']} left a final state"
        if new["state"] in terminal:
            self.finished.add(new["id"])


def guarded(engine):
    """``engine`` with a :class:`TerminalGuard` on its read models
    (install before ``recover()``)."""
    TerminalGuard(engine.views)
    return engine


def stored_view_image(store):
    """All persisted ``view/`` records minus the cursor, key → value."""
    return {
        key: value
        for key, value in store.scan("view/")
        if not key.endswith("/__cursor")
    }


def rebuilt_view_image(engine):
    """A from-scratch rebuild of the engine's current state, cursor-free.

    The entities come from the engine's objects and the store's keys, not
    from the views under test; what a recovery left on disk is read
    through."""

    def stored(prefix):
        return {key[len(prefix):] for key in engine.store.keys(prefix)}

    manager = ProjectionManager()
    writes = manager.rebuild(
        [
            compact_instance_obj(engine.instance(instance_id))
            for instance_id in stored("instance/") | set(engine._instances)
        ],
        [
            compact_item_obj(engine.worklist.item(item_id))
            for item_id in stored("workitem/") | set(engine.worklist._items)
        ],
        engine.dispatch_log.seq,
    )
    return {
        key: value
        for key, value in writes.items()
        if not key.endswith("/__cursor")
    }


def canonical(image):
    return json.dumps(image, sort_keys=True)


def assert_byte_identical(store, engine):
    """The rebuildability invariant: incremental image == replay image."""
    assert canonical(stored_view_image(store)) == canonical(
        rebuilt_view_image(engine)
    )


@pytest.fixture
def clock():
    return VirtualClock(0)
