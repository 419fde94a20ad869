"""Engine-level view maintenance: the flush hook, cursors, write gating."""

import pytest

from repro.engine.instance import InstanceState
from repro.storage.kvstore import MemoryKV
from repro.views.projections import INSTANCE_STATES
from repro.worklist.items import WorkItemState

from tests.counting_kv import CountingKV
from tests.views.conftest import (
    approval_model,
    assert_byte_identical,
    auto_model,
    build_engine,
    canonical,
    guarded,
    stored_view_image,
    trip_model,
)


class TestFlushHook:
    def test_forced_flush_persists_views_with_current_cursor(self):
        store = MemoryKV()
        engine = build_engine(store=store)
        engine.deploy(approval_model())
        instance = engine.start_instance("approval", business_key="bk-1")
        engine.flush()  # the group-commit boundary drains view dirt
        record = store.get(f"view/by_state/{instance.id}")
        assert record["state"] == "running"
        assert record["business_key"] == "bk-1"
        cursor = store.get("view/__cursor")
        # the cursor also stamps the finished tier's census per table
        assert cursor == {
            "seq": engine.dispatch_log.seq,
            "finished": {
                "by_state": {"completed": 0, "failed": 0, "terminated": 0},
                "worklist": {"completed": 0, "cancelled": 0},
            },
        }
        # one cursor for the whole image, none per table
        assert [k for k in store.keys("view/") if k.endswith("__cursor")] == [
            "view/__cursor"
        ]
        # the business-key index is derived in memory, never persisted
        assert store.keys("view/by_key/") == []
        assert engine.views.ids_for_business_key("bk-1") == [instance.id]

    def test_lifecycle_updates_propagate_to_all_projections(self):
        store = MemoryKV()
        engine = build_engine(store=store)
        engine.deploy(approval_model())
        instance = engine.start_instance("approval")
        engine.clock.advance(30)
        item = engine.worklist.items()[0]
        engine.start_work_item(item.id)
        engine.complete_work_item(item.id)
        engine.flush()
        # finished: out of the live records, into rank page 0
        assert store.get(f"view/by_state/{instance.id}") is None
        page = store.get("view/by_state/__p0")
        assert page["id"] == [instance.id]
        assert page["state"] == [INSTANCE_STATES.index("completed")]
        stats = store.get("view/def_stats/approval")
        assert stats["total"] == 1
        assert stats["states"]["completed"] == 1
        assert stats["cycle"]["count"] == 1
        assert stats["cycle"]["total"] == 30.0
        # the queue aggregate is derived in memory, never persisted
        assert store.get("view/worklist/__queues") is None
        assert engine.views.open_work_items() == 0
        assert engine.views.work_item_ids("completed") == [item.id]
        assert_byte_identical(store, engine)

    def test_in_memory_queries_match_engine_scans(self):
        engine = build_engine(store=MemoryKV())
        engine.deploy(approval_model())
        engine.deploy(auto_model())
        for k in range(3):
            engine.start_instance("approval", business_key=f"bk-{k}")
        engine.start_instance("auto", {"n": 2})
        views = engine.views
        running = [i.id for i in engine.instances() if i.state.value == "running"]
        assert views.instance_ids("running") == running
        assert views.instance_ids() == [i.id for i in engine.instances()]
        assert views.ids_for_business_key("bk-1") == [
            i.id for i in engine.find_instances(business_key="bk-1")
        ]
        assert views.open_work_items() == engine.worklist.open_count == 3
        assert views.open_by_role() == {"clerk": 3}

    def test_status_reports_seq_and_record_counts(self):
        engine = build_engine(store=MemoryKV())
        engine.deploy(approval_model())
        engine.start_instance("approval", business_key="bk-1")
        status = engine.views.status()
        assert status["applied_seq"] == engine.dispatch_log.seq
        assert status["projections"]["by_state"] == 1
        assert status["projections"]["def_stats"] == 1
        assert status["projections"]["worklist"] == 1


class TestWriteGating:
    def test_read_only_dispatch_writes_nothing(self):
        # pins the flush-policy contract: an unmatched publish must not
        # grow into view writes either
        store = CountingKV()
        engine = build_engine(store=store)
        engine.deploy(approval_model())
        engine.start_instance("approval")
        store.reset_counts()
        engine.correlate_message("go", "nobody-waiting", {})
        assert store.puts == 0

    def test_cursor_only_advances_on_view_relevant_flushes(self):
        store = MemoryKV()
        engine = build_engine(store=store)
        engine.deploy(approval_model())
        engine.start_instance("approval")
        engine.flush()
        cursor = store.get("view/__cursor")["seq"]
        engine.deploy(auto_model())  # logs a dispatch, dirties no entities
        assert engine.dispatch_log.seq > cursor
        assert store.get("view/__cursor")["seq"] == cursor


class TestWriteBehind:
    """Maintenance is write-behind: commits note ids, reads materialize,
    persistence waits for a forced flush or a lag of retention/4 seqs."""

    def test_deferred_until_lag_threshold_then_drained(self):
        store = CountingKV()
        engine = build_engine(store=store, dispatch_log_retention=16)  # lag 4
        engine.deploy(approval_model())  # seq 1
        engine.start_instance("approval", business_key="bk-0")  # seq 2
        engine.start_instance("approval", business_key="bk-1")  # seq 3
        assert not any(k.startswith("view/") for k in store.put_keys)
        # in-memory queries are exact while the store lags
        assert engine.views.instance_ids("running") == [
            "approval-1", "approval-2",
        ]
        engine.start_instance("approval", business_key="bk-2")  # seq 4: drain
        assert store.get("view/__cursor")["seq"] == 4
        assert store.get("view/by_state/approval-1")["state"] == "running"
        assert engine.views.persisted_seq == 4

    def test_autocommit_flushes_between_drains_write_no_view_keys(self):
        store = CountingKV()
        engine = build_engine(store=store, dispatch_log_retention=4_000_000)
        engine.deploy(approval_model())
        engine.start_instance("approval")
        store.reset_counts()
        engine.start_instance("approval")  # base records commit, views defer
        assert store.puts > 0
        assert not any(k.startswith("view/") for k in store.put_keys)
        engine.flush()  # force: the deferred dirt drains in one batch
        assert any(k.startswith("view/") for k in store.put_keys)
        assert store.get("view/__cursor")["seq"] == engine.dispatch_log.seq

    def test_read_then_forced_flush_still_persists(self):
        # a read materializes the noted dirt (clearing the pending sets);
        # the forced flush that follows must still drain the in-memory
        # records the store has never seen — and stay write-free after
        store = CountingKV()
        engine = build_engine(store=store, dispatch_log_retention=4_000_000)
        engine.deploy(approval_model())
        instance = engine.start_instance("approval", business_key="bk-1")
        assert engine.views.instance_ids("running") == [instance.id]
        engine.flush()
        assert store.get(f"view/by_state/{instance.id}")["state"] == "running"
        assert store.get("view/__cursor")["seq"] == engine.dispatch_log.seq
        store.reset_counts()
        engine.flush()  # drained and confirmed: nothing left to persist
        assert store.puts == 0

    def test_drain_dedupes_entities_flushed_many_times(self):
        store = CountingKV()
        engine = build_engine(store=store, dispatch_log_retention=4_000_000)
        engine.deploy(approval_model())
        engine.start_instance("approval")
        item = engine.worklist.items()[0]
        engine.start_work_item(item.id)
        engine.complete_work_item(item.id)
        store.reset_counts()
        engine.flush()
        view_puts = [k for k in store.put_keys if k.startswith("view/")]
        # the item changed state three times but persists once: finished,
        # in its rank page and never as a live record
        assert view_puts.count("view/worklist/__p0") == 1
        assert f"view/worklist/{item.id}" not in view_puts
        # no drain wrote its live record, so none deletes one either
        assert not [k for k in store.delete_keys if k.startswith("view/")]
        assert store.get("view/worklist/__p0")["id"] == [item.id]


class TestExactBetweenFlushes:
    """The views are the engine's only index: its queries see a state
    change before any flush, inside batch()."""

    def test_queries_reflect_unflushed_changes(self):
        store = CountingKV()
        engine = build_engine(store=store)
        engine.deploy(approval_model())
        engine.flush()
        store.reset_counts()
        with engine.batch():
            gold = engine.start_instance("approval", {"tier": "gold"}, business_key="bk")
            basic = engine.start_instance("approval", {"tier": "basic"}, business_key="bk")
            other = engine.start_instance("approval", {"tier": "gold"})
            item = engine.worklist.items()[0]
            engine.start_work_item(item.id)
            engine.complete_work_item(item.id)
            engine.suspend_instance(basic.id)
            assert store.puts == 0
            assert engine.instances(InstanceState.COMPLETED) == [gold]
            assert engine.instances(InstanceState.SUSPENDED) == [basic]
            assert engine.instances(InstanceState.RUNNING) == [other]
            assert engine.instances() == [gold, basic, other]
            assert engine.find_instances(business_key="bk", where={"tier": "gold"}) == [gold]
            assert engine.find_instances(
                state=InstanceState.SUSPENDED, business_key="bk"
            ) == [basic]
            assert engine.worklist.items(WorkItemState.COMPLETED) == [item]
            assert len(engine.worklist.items(WorkItemState.ALLOCATED)) == 2
            assert engine.views.open_work_items() == engine.worklist.open_count == 2
        assert store.puts > 0


class TestWorklistOpenCount:
    def test_open_count_tracks_lifecycle(self):
        engine = build_engine(store=MemoryKV())
        engine.deploy(approval_model())
        engine.start_instance("approval")
        engine.start_instance("approval")
        assert engine.worklist.open_count == 2
        item = engine.worklist.items()[0]
        engine.start_work_item(item.id)
        assert engine.worklist.open_count == 2
        engine.complete_work_item(item.id)
        assert engine.worklist.open_count == 1
        second = [i for i in engine.worklist.items() if not i.state.is_terminal]
        engine.terminate_instance(second[0].instance_id)
        assert engine.worklist.open_count == 0
        assert engine.worklist.open_count == sum(
            1 for i in engine.worklist.items() if not i.state.is_terminal
        )


class TestFinishedTier:
    """A finished entity's record is final: once paged, nothing about it
    is written again."""

    def test_compensating_a_paged_instance_changes_no_view_record(self):
        store = CountingKV()
        engine = guarded(build_engine(store=store))
        engine.deploy(trip_model())
        trip = engine.start_instance("trip", {"order": ""})
        assert trip.state is InstanceState.COMPLETED
        engine.flush()
        assert store.get("view/by_state/__p0")["id"] == [trip.id]
        before = stored_view_image(store)
        store.reset_counts()
        engine.compensate_instance(trip.id)
        assert trip.variables["order"] == "HF"
        engine.flush()  # forced: the drain runs, with the re-put noted
        assert canonical(stored_view_image(store)) == canonical(before)
        view_writes = [
            key
            for key in store.put_keys + store.delete_keys
            if key.startswith("view/")
        ]
        assert view_writes == ["view/__cursor"]
        assert engine.views.definition_stats()["trip"]["total"] == 1
        assert_byte_identical(store, engine)

    def test_paging_a_written_live_record_deletes_it(self):
        store = MemoryKV()
        engine = build_engine(store=store)
        engine.deploy(approval_model())
        instance = engine.start_instance("approval")
        engine.flush()
        assert store.get(f"view/by_state/{instance.id}")["state"] == "running"
        item = engine.worklist.items()[0]
        engine.start_work_item(item.id)
        engine.complete_work_item(item.id)
        engine.flush()
        assert store.get(f"view/by_state/{instance.id}") is None
        assert store.get(f"view/worklist/{item.id}") is None
        assert store.get("view/by_state/__p0")["id"] == [instance.id]
        assert store.get("view/worklist/__p0")["id"] == [item.id]
        assert_byte_identical(store, engine)
