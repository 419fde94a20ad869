"""ClusterViews: pre-merged cross-shard queries, freshness, status."""

import pytest

from repro.clock import VirtualClock
from repro.cluster import ShardedEngine
from repro.cluster.router import parse_shard_tag
from repro.engine.instance import InstanceState
from repro.worklist.items import WorkItemState
from repro.model.builder import ProcessBuilder
from repro.worklist.allocation import ShortestQueueAllocator

from tests.views.conftest import approval_model, auto_model


def cluster(shards=4, **kwargs):
    kwargs.setdefault("clock", VirtualClock(0))
    kwargs.setdefault("allocator", ShortestQueueAllocator())
    c = ShardedEngine(shards=shards, **kwargs)
    c.organization.add("ana", roles=["clerk"])
    return c


def scatter_instances(c, state=None):
    """Every shard's own answer, merged by creation rank."""
    from repro.views.projections import creation_rank, merge_ranked

    per_shard = [shard.instances(state) for shard in c.shards]
    return merge_ranked(per_shard, lambda i: creation_rank(i.id))


class TestQueryEquivalence:
    def test_instances_match_scatter_scan(self):
        c = cluster()
        c.deploy(approval_model())
        c.deploy(auto_model())
        for k in range(8):
            c.start_instance("approval", business_key=f"bk-{k}")
        for k in range(4):
            c.start_instance("auto", {"n": k})
        assert c.views is not None
        for state in (None, InstanceState.RUNNING, InstanceState.COMPLETED):
            want = [i.id for i in scatter_instances(c, state)]
            got = [i.id for i in c.instances(state)]
            assert got == want

    @pytest.mark.parametrize("shards", [1, 2, 8])
    def test_state_queries_return_the_whole_population(self, shards):
        c = cluster(shards=shards)
        c.deploy(approval_model())
        started = [c.start_instance("approval").id for _ in range(16)]
        running = [i.id for i in c.instances(InstanceState.RUNNING)]
        assert sorted(running) == sorted(started)
        assert running == [i.id for i in scatter_instances(c, InstanceState.RUNNING)]
        found = c.find_instances(state=InstanceState.RUNNING)
        assert [i.id for i in found] == running

    def test_ordering_interleaves_across_shards(self):
        c = cluster(shards=4)
        c.deploy(auto_model())
        for k in range(8):
            c.start_instance("auto", {"n": k})
        ranks = [int(i.id.rsplit("-", 1)[-1]) for i in c.instances()]
        assert ranks == sorted(ranks)

    def test_find_instances_filters_via_views(self):
        c = cluster()
        c.deploy(approval_model())
        c.deploy(auto_model())
        for k in range(6):
            c.start_instance("approval", business_key=f"bk-{k}")
        c.start_instance("auto", {"n": 1})
        by_def = c.find_instances(definition_key="approval")
        assert len(by_def) == 6
        assert all(i.definition_id.startswith("approval:") for i in by_def)
        by_key = c.find_instances(business_key="bk-2")
        assert [i.business_key for i in by_key] == ["bk-2"]
        by_state = c.find_instances(state=InstanceState.COMPLETED)
        assert [i.id for i in by_state] == [
            i.id for i in scatter_instances(c, InstanceState.COMPLETED)
        ]

    def test_work_items_match_per_shard_scan(self):
        c = cluster()
        c.deploy(approval_model())
        for k in range(6):
            c.start_instance("approval", business_key=f"bk-{k}")
        want = [
            item.id for shard in c.shards for item in shard.worklist.items()
        ]
        assert sorted(i.id for i in c.work_items()) == sorted(want)
        assert len(c.work_items()) == 6


class TestFallback:
    def test_pending_writes_fall_back_to_memory_state(self):
        # commit_interval > 1 leaves flushes pending: the views fold the
        # uncommitted puts in before they answer
        c = cluster(shards=2, commit_interval=50)
        c.deploy(approval_model())
        for k in range(6):
            c.start_instance("approval", business_key=f"bk-{k}")
        assert any(shard.has_pending_writes() for shard in c.shards)
        assert len(c.instances()) == 6
        assert len(c.find_instances(business_key="bk-3")) == 1
        assert len(c.work_items()) == 6
        assert c.views.open_work_items() == 6

    def test_state_changes_show_before_any_flush(self):
        c = cluster(shards=2, commit_interval=1000)
        c.deploy(approval_model())
        c.flush()
        gold = c.start_instance("approval", {"tier": "gold"}, business_key="bk-1")
        basic = c.start_instance("approval", {"tier": "basic"}, business_key="bk-1")
        other = c.start_instance("approval", {"tier": "gold"}, business_key="bk-2")
        item = c.instance(gold.id).tokens[0].waiting_on["work_item_id"]
        c.start_work_item(item)
        c.complete_work_item(item)
        c.suspend_instance(basic.id)
        for started in (gold, basic, other):
            assert c.shards[parse_shard_tag(started.id)].has_pending_writes()
        assert [i.id for i in c.instances(InstanceState.COMPLETED)] == [gold.id]
        assert [i.id for i in c.instances(InstanceState.SUSPENDED)] == [basic.id]
        assert [i.id for i in c.instances(InstanceState.RUNNING)] == [other.id]
        assert [
            i.id for i in c.find_instances(business_key="bk-1", where={"tier": "gold"})
        ] == [gold.id]
        assert [
            i.id for i in c.find_instances(state=InstanceState.RUNNING, where={"tier": "gold"})
        ] == [other.id]
        assert [i.id for i in c.work_items(WorkItemState.COMPLETED)] == [item]
        assert len(c.work_items(WorkItemState.ALLOCATED)) == 2
        assert c.views.open_work_items() == 2

    def test_reserved_looking_business_key_is_indexed(self):
        # no business key is reserved: the index is derived, never persisted
        c = cluster(shards=2)
        c.deploy(auto_model())
        c.start_instance("auto", {"n": 1}, business_key="__odd")
        assert [i.business_key for i in c.find_instances(business_key="__odd")] == [
            "__odd"
        ]


class TestClusterAnalytics:
    def test_definition_stats_merge_across_shards(self):
        c = cluster()
        c.deploy(approval_model())
        c.deploy(auto_model())
        for k in range(8):
            c.start_instance("approval", business_key=f"bk-{k}")
        for k in range(4):
            c.start_instance("auto", {"n": k})
        stats = c.views.definition_stats()
        assert list(stats) == ["approval", "auto"]
        assert stats["approval"]["total"] == 8
        assert stats["approval"]["states"]["running"] == 8
        assert stats["auto"]["states"]["completed"] == 4
        assert stats["auto"]["cycle"]["count"] == 4

    def test_status_reports_per_shard_views_and_open_items(self):
        c = cluster(shards=2)
        c.deploy(approval_model())
        for k in range(4):
            c.start_instance("approval", business_key=f"bk-{k}")
        status = c.status()
        assert sum(row["open_work_items"] for row in status["per_shard"]) == 4
        for row in status["per_shard"]:
            assert row["views"]["lag"] == 0

    def test_cluster_views_status_lists_shards(self):
        c = cluster(shards=2)
        c.deploy(auto_model())
        c.start_instance("auto", {"n": 1})
        rows = c.views.status()["per_shard"]
        assert len(rows) == 2
        for row in rows:
            assert row["applied_seq"] == row["dispatch_seq"]
            assert row["lag"] == 0
