"""Unit tests for the projection primitives (repro.views.projections)."""

import pytest

from repro.analytics.kpis import CycleTimeAggregate
from repro.storage.kvstore import MemoryKV
from repro.views.projections import (
    PAGE,
    DefinitionStats,
    InstancesByState,
    WorklistQueues,
    compact_instance,
    compact_instance_obj,
    compact_item,
    compact_item_obj,
    creation_rank,
    merge_ranked,
)

from tests.views.conftest import approval_model, build_engine


class TestCreationRank:
    def test_numeric_tail(self):
        assert creation_rank("approval-2") == 2
        assert creation_rank("s1:approval-10") == 10

    def test_rank_orders_double_digit_ids_after_single(self):
        # lexicographically "approval-10" < "approval-2"; rank fixes that
        ids = ["approval-10", "approval-2"]
        assert sorted(ids, key=creation_rank) == ["approval-2", "approval-10"]

    def test_non_numeric_tail_ranks_zero(self):
        assert creation_rank("no-digits-here") == 0


class TestMergeRanked:
    def test_interleaves_by_rank(self):
        a = [{"id": "x-1", "rank": 1}, {"id": "x-5", "rank": 5}]
        b = [{"id": "y-2", "rank": 2}, {"id": "y-4", "rank": 4}]
        merged = merge_ranked([a, b], lambda e: e["rank"])
        assert [e["id"] for e in merged] == ["x-1", "y-2", "y-4", "x-5"]

    def test_equal_ranks_break_ties_by_source_index(self):
        a = [{"id": "a", "rank": 1}]
        b = [{"id": "b", "rank": 1}]
        merged = merge_ranked([b, a], lambda e: e["rank"])
        assert [e["id"] for e in merged] == ["b", "a"]

    def test_never_compares_entries(self):
        # dicts are not orderable; the merge must key on (rank, source,
        # position) only — a tie in all three is impossible by construction
        a = [{"id": "a", "rank": 3}]
        b = [{"id": "b", "rank": 3}]
        merged = merge_ranked([a, b], lambda e: e["rank"])
        assert len(merged) == 2

    def test_empty_sources(self):
        assert merge_ranked([[], []], lambda e: 0) == []
        assert merge_ranked([], lambda e: 0) == []


class TestCompactParity:
    """The obj/raw constructor pairs must produce identical dicts."""

    def test_instance_and_item_compacts_match_persisted_records(self):
        store = MemoryKV()
        engine = build_engine(store=store)
        engine.deploy(approval_model())
        engine.start_instance("approval", business_key="bk-7")
        instance_id, raw = next(iter(store.scan("instance/")))
        instance_id = instance_id.split("/", 1)[1]
        assert compact_instance(raw) == compact_instance_obj(
            engine._instances[instance_id]
        )
        item_key, raw_item = next(iter(store.scan("workitem/")))
        item_id = item_key.split("/", 1)[1]
        assert compact_item(raw_item) == compact_item_obj(
            engine.worklist.item(item_id)
        )


class TestCycleTimeAggregate:
    def test_observe_and_mean(self):
        agg = CycleTimeAggregate()
        agg.observe(2.0)
        agg.observe(4.0)
        assert agg.count == 2
        assert agg.mean == 3.0
        assert agg.min == 2.0
        assert agg.max == 4.0

    def test_merge_is_commutative(self):
        a = CycleTimeAggregate()
        a.observe(1.0)
        b = CycleTimeAggregate()
        b.observe(5.0)
        b.observe(3.0)
        ab, ba = a.merge(b), b.merge(a)
        assert ab.to_dict() == ba.to_dict()
        assert ab.count == 3 and ab.min == 1.0 and ab.max == 5.0

    def test_dict_roundtrip(self):
        agg = CycleTimeAggregate()
        agg.observe(2.5)
        assert CycleTimeAggregate.from_dict(agg.to_dict()).to_dict() == (
            agg.to_dict()
        )

    def test_empty_merge_identity(self):
        agg = CycleTimeAggregate()
        agg.observe(1.5)
        merged = agg.merge(CycleTimeAggregate())
        assert merged.to_dict() == agg.to_dict()
        assert CycleTimeAggregate().mean == 0.0


class TestProjectionTransitions:
    """Direct one-pair ``(old, new)`` batches on each table."""

    @staticmethod
    def _instance(n, state="running", key=None, ended=None):
        return {
            "id": f"p-{n}",
            "rank": n,
            "state": state,
            "definition": "p",
            "business_key": key,
            "created_at": 0.0,
            "ended_at": ended,
        }

    @staticmethod
    def _item(n, state="allocated", role="clerk"):
        return {
            "id": f"wi-{n}",
            "rank": n,
            "instance_id": f"p-{n}",
            "node_id": "review",
            "role": role,
            "priority": 0,
            "state": state,
            "created_at": 0.0,
            "allocated_to": None,
        }

    def test_by_state_buckets_follow_transitions(self):
        view = InstancesByState()
        first = self._instance(1)
        view.apply_instances(((None, first),))
        assert view.ids("running") == ["p-1"]
        done = self._instance(1, state="completed", ended=5.0)
        view.apply_instances(((first, done),))
        assert view.ids("running") == []
        assert view.ids("completed") == ["p-1"]
        assert view.ids() == ["p-1"]

    def test_by_key_indexes_every_key_but_none(self):
        # the index is derived, never persisted: no key is reserved
        view = InstancesByState()
        view.apply_instances(((None, self._instance(1, key="__cursor")),))
        view.apply_instances(((None, self._instance(2, key=None)),))
        view.apply_instances(((None, self._instance(3, key="ok")),))
        assert view.keys == {"__cursor": ["p-1"], "ok": ["p-3"]}

    def test_by_key_orders_by_rank_whatever_arrival_order(self):
        view = InstancesByState()
        view.apply_instances(((None, self._instance(9, key="k")),))
        view.apply_instances(((None, self._instance(2, key="k")),))
        assert view.ids_for_key("k") == ["p-2", "p-9"]

    def test_def_stats_census_and_cycle(self):
        view = DefinitionStats()
        first = self._instance(1)
        view.apply_instances(((None, first),))
        done = self._instance(1, state="completed", ended=7.0)
        view.apply_instances(((first, done),))
        record = view.report()["p"]
        assert record["total"] == 1
        assert record["states"]["running"] == 0
        assert record["states"]["completed"] == 1
        assert record["cycle"]["count"] == 1
        assert record["cycle"]["total"] == 7.0

    def test_worklist_queue_aggregate(self):
        view = WorklistQueues()
        open_item = self._item(1)
        view.apply_items(((None, open_item),))
        view.apply_items(((None, self._item(2, role="manager")),))
        assert view.open_total == 2
        assert view.role_open == {"clerk": 1, "manager": 1}
        done = self._item(1, state="completed")
        view.apply_items(((open_item, done),))
        assert view.open_total == 1
        assert view.role_open == {"clerk": 0, "manager": 1}
        assert view.state_counts["completed"] == 1
        assert view.ids("allocated") == ["wi-2"]
        # the aggregate lives in memory only: no record carries it
        assert set(view.dirty_records()) == {"wi-2", "__p0"}

    def test_dirty_records_survive_until_clear(self):
        view = InstancesByState()
        view.apply_instances(((None, self._instance(1)),))
        assert set(view.dirty_records()) == {"p-1"}
        # a failed commit retries: still dirty, value rebuilt at call time
        assert set(view.dirty_records()) == {"p-1"}
        view.clear_dirty()
        assert view.dirty_records() == {}
