"""Finished cases leave the engine's live maps once the views fold them.

``ProcessEngine._instances`` and ``WorklistService._items`` hold live
entities only: after the read models have applied an entity's terminal
state, the entity moves into a weak identity cache.  While anything
holds it, a lookup returns that same object; once nothing does, it is
collected and a lookup reads it back from the store.  Checked on
``MemoryKV`` and ``DurableKV``.
"""

import gc
import weakref

import pytest

from repro.clock import VirtualClock
from repro.engine.engine import ProcessEngine
from repro.engine.instance import InstanceState
from repro.model.builder import ProcessBuilder
from repro.model.elements import ScriptTask
from repro.storage.kvstore import DurableKV, MemoryKV
from repro.worklist.allocation import ShortestQueueAllocator
from repro.worklist.items import WorkItemState


def approval_model():
    return (
        ProcessBuilder("approval")
        .start()
        .user_task("review", role="clerk")
        .script_task("after", script="done = true")
        .end()
        .build()
    )


def trip_model():
    """Two steps, each with an undo handler."""
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


@pytest.fixture(params=["memory", "durable"])
def open_store(request, tmp_path):
    """A callable that opens the test's store (again, after a close)."""
    if request.param == "memory":
        store = MemoryKV()
        return lambda: store
    return lambda: DurableKV(str(tmp_path / "store"))


def build(store, deploy=True):
    engine = ProcessEngine(
        clock=VirtualClock(0), store=store, allocator=ShortestQueueAllocator()
    )
    engine.organization.add("ana", roles=["clerk"])
    if deploy:
        engine.deploy(approval_model())
        engine.deploy(trip_model())
    return engine


def open_item_ids(engine):
    return [item.id for item in engine.worklist.items(WorkItemState.ALLOCATED)]


def finish(engine, item_id):
    engine.start_work_item(item_id)
    engine.complete_work_item(item_id, {"ok": True})


def fold(engine):
    """Let the views apply everything noted, without returning objects."""
    engine.views.instance_counts()
    gc.collect()


def assert_views_match_store(engine):
    engine.flush()
    for prefix, states, query in (
        ("instance/", InstanceState, engine.instances),
        ("workitem/", WorkItemState, engine.worklist.items),
    ):
        for state in states:
            stored = sorted(
                raw["id"]
                for _, raw in engine.store.scan(prefix)
                if raw["state"] == state.value
            )
            assert sorted(entity.id for entity in query(state)) == stored


def run_epoch(engine, cases=6):
    """Finish ``cases`` approvals and compensate two trips; leaves one
    approval open.  Returns the ids of the finished cases."""
    finished = [engine.start_instance("approval").id for _ in range(cases)]
    engine.start_instance("approval")
    for item in engine.worklist.items(WorkItemState.ALLOCATED):
        if item.instance_id in finished:
            finish(engine, item.id)
    for _ in range(2):
        trip_id = engine.start_instance("trip", {"order": ""}).id
        engine.compensate_instance(trip_id)
        finished.append(trip_id)
    return finished


class TestLiveMaps:
    def test_finished_unreferenced_entities_leave_and_are_collected(
        self, open_store
    ):
        engine = build(open_store())
        instance_ids = [engine.start_instance("approval").id for _ in range(5)]
        item_ids = open_item_ids(engine)
        for item_id in item_ids:
            finish(engine, item_id)
        refs = [weakref.ref(engine.instance(i)) for i in instance_ids]
        refs += [weakref.ref(engine.worklist.item(i)) for i in item_ids]
        running = engine.start_instance("approval").id
        fold(engine)
        assert [ref() for ref in refs] == [None] * len(refs)
        assert not set(instance_ids) & set(engine._instances)
        assert not set(item_ids) & set(engine.worklist._items)
        assert running in engine._instances
        assert len(engine.worklist._items) == 1
        assert engine.instance(instance_ids[0]).state is InstanceState.COMPLETED

    def test_a_held_entity_keeps_its_identity(self, open_store):
        engine = build(open_store())
        held = engine.start_instance("approval")
        item = engine.worklist.item(open_item_ids(engine)[0])
        finish(engine, item.id)
        fold(engine)
        assert held.id not in engine._instances
        assert item.id not in engine.worklist._items
        assert engine.instance(held.id) is held
        assert engine.instances(InstanceState.COMPLETED) == [held]
        assert engine.worklist.item(item.id) is item

    def test_a_released_entity_reads_back_equal(self, open_store):
        engine = build(open_store())
        instance_id = engine.start_instance("approval").id
        item_id = open_item_ids(engine)[0]
        finish(engine, item_id)
        before = engine.instance(instance_id).to_dict()
        item_before = engine.worklist.item(item_id).to_dict()
        fold(engine)
        assert instance_id not in engine._finished
        again = engine.instance(instance_id)
        assert again.to_dict() == before
        assert engine.worklist.item(item_id).to_dict() == item_before
        # read back, it is cached while held and stays out of the live map
        assert engine.instance(instance_id) is again
        assert instance_id not in engine._instances


class TestTouchedAgain:
    def test_compensating_an_evicted_trip(self, open_store):
        engine = build(open_store())
        trip_id = engine.start_instance("trip", {"order": ""}).id
        fold(engine)
        assert trip_id not in engine._instances
        assert trip_id not in engine._finished
        result = engine.compensate_instance(trip_id)
        assert result["compensated"] == ["cancel_hotel", "cancel_flight"]
        # touched again: live until the views fold it again
        assert trip_id in engine._instances
        assert engine.instance(trip_id).variables["order"] == "HF"
        assert_views_match_store(engine)
        fold(engine)
        assert trip_id not in engine._instances
        assert engine.instance(trip_id).compensations == []

    def test_a_held_trip_sees_its_compensation(self, open_store):
        engine = build(open_store())
        trip = engine.start_instance("trip", {"order": ""})
        fold(engine)
        assert trip.id not in engine._instances
        engine.compensate_instance(trip.id)
        assert trip.variables["order"] == "HF"
        assert engine.instance(trip.id) is trip
        assert_views_match_store(engine)


class TestRecovery:
    def test_recover_then_another_epoch(self, open_store):
        store = open_store()
        engine = build(store)
        first = run_epoch(engine)
        engine.flush()
        before = {i.id: i.to_dict() for i in engine.instances()}
        items_before = {i.id: i.to_dict() for i in engine.worklist.items()}
        store.close()

        store = open_store()
        engine = build(store, deploy=False)
        engine.recover()
        assert {i.id: i.to_dict() for i in engine.instances()} == before
        assert {i.id: i.to_dict() for i in engine.worklist.items()} == items_before
        second = run_epoch(engine)
        assert_views_match_store(engine)
        fold(engine)
        assert not set(first + second) & set(engine._instances)
        assert [i.state for i in engine._instances.values()] == [
            InstanceState.RUNNING
        ] * 2
        assert all(
            engine.instance(i).state is InstanceState.COMPLETED for i in second
        )
        store.close()
