"""View recovery: load fast path, tail replay, rebuild, torn commits.

The contract under test (see ProjectionManager.recover): the persisted
view image is never *ahead* of durable base state, and after any
recovery it equals a from-scratch rebuild of that state byte for byte.
"""

import os

from repro.engine.instance import InstanceState
from repro.storage.kvstore import DurableKV
from repro.views.manager import ProjectionManager
from repro.views.rebuild import rebuild_store_views
from repro.worklist.items import WorkItemState

from tests.counting_kv import CountingDurableKV
from tests.views.conftest import (
    approval_model,
    assert_byte_identical,
    auto_model,
    build_engine,
)


def reopen(path):
    engine = build_engine(store=DurableKV(path))
    engine.recover()
    return engine


def run_some_work(engine, instances=3):
    engine.deploy(approval_model())
    started = [
        engine.start_instance("approval", business_key=f"bk-{k}")
        for k in range(instances)
    ]
    item = engine.worklist.items()[0]
    engine.start_work_item(item.id)
    engine.clock.advance(10)
    engine.complete_work_item(item.id)
    # orderly shutdown: the forced flush drains write-behind view dirt,
    # so a clean close leaves cursors at the dispatch seq
    engine.flush()
    return started


class TestRecoveryModes:
    def test_clean_reopen_takes_the_load_path(self, tmp_path):
        path = str(tmp_path / "store")
        engine = build_engine(store=DurableKV(path))
        run_some_work(engine)
        seq = engine.dispatch_log.seq
        engine.store.close()

        recovered = reopen(path)
        assert recovered.views.recovered_mode == "load"
        assert recovered.views.applied_seq == seq == recovered.dispatch_log.seq
        assert recovered.views.instance_ids("completed") == ["approval-1"]
        assert recovered.views.open_work_items() == 2
        assert_byte_identical(recovered.store, recovered)
        recovered.store.close()

    def test_pristine_store_loads_without_writing(self, tmp_path):
        path = str(tmp_path / "store")
        engine = build_engine(store=DurableKV(path))
        engine.recover()
        assert engine.views.recovered_mode == "load"
        assert list(engine.store.scan("view/")) == []
        engine.store.close()

    def test_lagging_cursor_with_retained_tail_replays_the_tail(
        self, tmp_path
    ):
        path = str(tmp_path / "store")
        engine = build_engine(store=DurableKV(path))
        run_some_work(engine)
        # a logged dispatch that dirties no instances/items leaves the
        # cursor behind the dispatch seq (the exact shape an older build
        # or a views-irrelevant tail produces)
        engine.deploy(auto_model())
        cursor = engine.store.get("view/__cursor")["seq"]
        assert cursor < engine.dispatch_log.seq
        engine.store.close()

        recovered = reopen(path)
        assert recovered.views.recovered_mode == "tail"
        assert recovered.views.applied_seq == recovered.dispatch_log.seq
        # the catch-up was persisted: next open is a plain load
        recovered.store.close()
        third = reopen(path)
        assert third.views.recovered_mode == "load"
        assert_byte_identical(third.store, third)
        third.store.close()

    def test_rewound_cursors_converge_by_touched_replay(self, tmp_path):
        path = str(tmp_path / "store")
        engine = build_engine(store=DurableKV(path))
        run_some_work(engine)
        seq = engine.dispatch_log.seq
        engine.store.close()

        offline = DurableKV(path)
        offline.put("view/__cursor", {"seq": seq - 1})
        offline.sync()
        offline.close()

        recovered = reopen(path)
        assert recovered.views.recovered_mode == "tail"
        assert recovered.views.applied_seq == seq
        assert_byte_identical(recovered.store, recovered)
        recovered.store.close()

    def test_legacy_store_without_views_rebuilds(self, tmp_path):
        path = str(tmp_path / "store")
        engine = build_engine(store=DurableKV(path))
        run_some_work(engine)
        engine.store.close()

        offline = DurableKV(path)
        with offline.transaction():
            for key in offline.keys("view/"):
                offline.delete(key)
        assert offline.keys("view/") == []
        offline.close()

        recovered = reopen(path)
        assert recovered.views.recovered_mode == "rebuild"
        assert recovered.views.applied_seq == recovered.dispatch_log.seq
        assert recovered.views.instance_ids("completed") == ["approval-1"]
        assert_byte_identical(recovered.store, recovered)
        recovered.store.close()

    def test_diverged_cursors_force_rebuild(self, tmp_path):
        # the one image cursor cannot diverge from itself; a cursor ahead
        # of the recovered dispatch seq is what recovery cannot trust
        path = str(tmp_path / "store")
        engine = build_engine(store=DurableKV(path))
        run_some_work(engine)
        seq = engine.dispatch_log.seq
        engine.store.close()

        offline = DurableKV(path)
        offline.put("view/__cursor", {"seq": seq + 5})
        offline.sync()
        offline.close()

        recovered = reopen(path)
        assert recovered.views.recovered_mode == "rebuild"
        assert_byte_identical(recovered.store, recovered)
        recovered.store.close()

    def test_stale_view_keys_deleted_on_rebuild(self, tmp_path):
        path = str(tmp_path / "store")
        engine = build_engine(store=DurableKV(path))
        run_some_work(engine)
        engine.store.close()

        offline = DurableKV(path)
        offline.put("view/by_state/ghost-99", {"id": "ghost-99"})
        offline.put("view/__cursor", {"seq": 10**6})  # ahead: force rebuild
        offline.sync()
        offline.close()

        recovered = reopen(path)
        assert recovered.views.recovered_mode == "rebuild"
        assert recovered.store.get("view/by_state/ghost-99", None) is None
        recovered.store.close()


def to_per_table_cursors(store):
    """Rewrite a store's image cursor as builds before the one image
    cursor wrote it: one ``view/<name>/__cursor`` per table."""
    cursor = store.get("view/__cursor")
    with store.transaction():
        store.delete("view/__cursor")
        for name in ("by_state", "def_stats", "worklist"):
            store.put(f"view/{name}/__cursor", cursor)
    store.sync()


def to_old_layout(store):
    """Rewrite a store's view image as builds before the finished tier
    wrote it: every finished entity kept per id, business keys persisted
    under ``view/by_key/``, a cursor per table."""
    manager = ProjectionManager()
    cursor, _ = manager.load(store)
    with store.transaction():
        for table in (manager.by_state, manager.worklist):
            for number in table.pages:
                store.delete(f"view/{table.name}/__p{number}")
            for entity_id in table.ids():
                store.put(f"view/{table.name}/{entity_id}", table.record(entity_id))
        for key, ids in manager.by_state.keys.items():
            store.put(f"view/by_key/{key}", {"ids": ids})
        store.put("view/by_key/__cursor", {"seq": cursor})
    store.sync()
    to_per_table_cursors(store)


def answers(engine):
    """What the business-key, by-state and worklist queries return."""
    return {
        "by_key": {
            f"bk-{k}": [i.id for i in engine.find_instances(business_key=f"bk-{k}")]
            for k in range(4)
        },
        "by_state": {
            state.value: [i.id for i in engine.instances(state)]
            for state in InstanceState
        },
        "worklist": {
            state.value: [i.id for i in engine.worklist.items(state)]
            for state in WorkItemState
        },
    }


class TestOldLayout:
    def test_old_layout_rebuilds_and_drops_stale_keys_in_one_commit(
        self, tmp_path
    ):
        path = str(tmp_path / "store")
        engine = build_engine(store=DurableKV(path))
        run_some_work(engine, instances=4)
        engine.terminate_instance("approval-4")
        engine.flush()
        expected = answers(engine)
        new_layout = set(engine.store.keys("view/"))
        engine.store.close()

        offline = DurableKV(path)
        to_old_layout(offline)
        stale = set(offline.keys("view/")) - new_layout
        assert {"view/by_key/bk-0", "view/by_state/approval-1"} <= stale
        offline.close()

        store = CountingDurableKV(path)
        recovered = build_engine(store=store)
        recovered.recover()
        assert recovered.views.recovered_mode == "rebuild"
        assert store.commits == 1
        assert stale <= set(store.delete_keys)
        assert set(store.keys("view/")) == new_layout
        assert answers(recovered) == expected
        assert_byte_identical(store, recovered)
        store.close()

    def test_per_table_cursors_rebuild_once_then_load(self, tmp_path):
        path = str(tmp_path / "store")
        engine = build_engine(store=DurableKV(path))
        run_some_work(engine, instances=4)
        expected = answers(engine)
        new_layout = set(engine.store.keys("view/"))
        engine.store.close()

        offline = DurableKV(path)
        to_per_table_cursors(offline)
        assert offline.get("view/__cursor", None) is None
        offline.close()

        store = CountingDurableKV(path)
        recovered = build_engine(store=store)
        recovered.recover()
        assert recovered.views.stale
        assert recovered.views.recovered_mode == "rebuild"
        assert store.commits == 1
        assert set(store.keys("view/")) == new_layout
        assert answers(recovered) == expected
        store.close()

        again = reopen(path)
        assert again.views.recovered_mode == "load"
        assert answers(again) == expected
        assert_byte_identical(again.store, again)
        again.store.close()

    def test_queues_aggregate_of_older_builds_loads_unread(self, tmp_path):
        """Older builds also wrote a ``view/worklist/__queues`` aggregate;
        a store holding one still takes the load path, and the queue
        counts come from the item records, not from it."""
        path = str(tmp_path / "store")
        engine = build_engine(store=DurableKV(path))
        run_some_work(engine, instances=4)
        expected = answers(engine)
        assert engine.store.get("view/worklist/__queues") is None
        engine.store.close()

        offline = DurableKV(path)
        with offline.transaction():
            offline.put(
                "view/worklist/__queues",
                {"open": 99, "roles": {"clerk": 99}, "states": {"offered": 99}},
            )
        offline.close()

        recovered = reopen(path)
        assert recovered.views.recovered_mode == "load"
        assert answers(recovered) == expected
        assert recovered.views.open_work_items() == 3
        assert recovered.views.open_by_role() == {"clerk": 3}
        recovered.store.close()


class TestTornCommit:
    """A torn group commit drops base records, view records, and the
    cursor together — the view image can lag, never lead."""

    def _tear(self, path, cut):
        journal = os.path.join(path, "journal.log")
        size = os.path.getsize(journal)
        with open(journal, "r+b") as fh:
            fh.truncate(size - min(cut, size - 8))

    def test_torn_tail_never_leaves_cursor_ahead(self, tmp_path):
        for cut in (1, 16, 64, 512):
            path = str(tmp_path / f"store-{cut}")
            engine = build_engine(store=DurableKV(path))
            run_some_work(engine, instances=4)
            full_seq = engine.dispatch_log.seq
            engine.store.close()
            self._tear(path, cut)

            recovered = reopen(path)
            assert recovered.dispatch_log.seq <= full_seq
            assert recovered.views.applied_seq == recovered.dispatch_log.seq
            assert_byte_identical(recovered.store, recovered)
            recovered.store.close()


class TestOfflineRebuild:
    def test_rebuild_store_views_recreates_image_from_base_records(
        self, tmp_path
    ):
        path = str(tmp_path / "store")
        engine = build_engine(store=DurableKV(path))
        run_some_work(engine)
        before = {
            key: value
            for key, value in engine.store.scan("view/")
        }
        engine.store.close()

        offline = DurableKV(path)
        with offline.transaction():
            for key in list(before):
                offline.delete(key)
            offline.put("view/by_state/stale-1", {"id": "stale-1"})
        counts = rebuild_store_views(offline)
        after = dict(offline.scan("view/"))
        offline.close()
        assert counts["instances"] == 3
        assert counts["deleted"] == 1
        assert after == before
