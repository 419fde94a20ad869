"""Shared helpers for the read-model (repro.views) test suite."""

import json

import pytest

from repro.clock import VirtualClock
from repro.engine.engine import ProcessEngine
from repro.model.builder import ProcessBuilder
from repro.views.manager import ProjectionManager
from repro.views.projections import compact_instance_obj, compact_item_obj
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


def build_engine(store=None, **kwargs):
    kwargs.setdefault("clock", VirtualClock(0))
    engine = ProcessEngine(
        store=store, allocator=ShortestQueueAllocator(), **kwargs
    )
    engine.organization.add("ana", roles=["clerk"])
    return engine


def stored_view_image(store):
    """All persisted ``view/`` records minus the cursors, key → value."""
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
