"""Sharded durability: crash mid-batch, topology checks, dedup routes.

Extends PR 3's single-engine crash-consistency test to the cluster: a
crash with group-commit batches open on *several* shards must recover
every partition to its own consistent pre-completion state.
"""

import pytest

from repro.clock import VirtualClock
from repro.cluster import TOPOLOGY_KEY, ShardedEngine, parse_shard_tag, shard_of_key
from repro.engine.errors import EngineError
from repro.engine.instance import InstanceState
from repro.model.builder import ProcessBuilder
from repro.storage.kvstore import DurableKV
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


@pytest.fixture
def factory(tmp_path):
    def make(index):
        return DurableKV(str(tmp_path / f"shard-{index}"))

    return make


def build_cluster(factory, clock, shards=2, commit_interval=1):
    cluster = ShardedEngine(
        shards=shards,
        store_factory=factory,
        clock=clock,
        allocator=ShortestQueueAllocator(),
        commit_interval=commit_interval,
    )
    cluster.organization.add("ana", roles=["clerk"])
    return cluster


def business_key_for_shard(target, shards):
    for k in range(1000):
        key = f"bk-{k}"
        if shard_of_key(key, shards) == target:
            return key
    raise AssertionError("no key found")  # pragma: no cover


class TestCrashMidBatchAcrossShards:
    def test_crash_with_open_batches_on_both_shards(self, factory):
        """Complete a work item on each shard inside its group-commit
        window, then die before either batch commits: both partitions
        must recover to consistent pre-completion states independently."""
        clock = VirtualClock(0)
        cluster = build_cluster(factory, clock, commit_interval=64)
        cluster.deploy(approval_model())
        instance_ids = {}
        for shard in range(2):
            instance = cluster.start_instance(
                "approval",
                {"amount": 10 + shard},
                business_key=business_key_for_shard(shard, 2),
            )
            assert parse_shard_tag(instance.id) == shard
            instance_ids[shard] = instance.id
        item_ids = {
            parse_shard_tag(item.id): item.id for item in cluster.work_items()
        }
        for shard in range(2):
            cluster.start_work_item(item_ids[shard])
        # persist the in-progress baseline, then dirty both shards
        cluster.flush()
        for shard in range(2):
            cluster.complete_work_item(item_ids[shard], {"approved": True})
            # fully applied in memory...
            assert (
                cluster.instance(instance_ids[shard]).state
                is InstanceState.COMPLETED
            )
        # ...then the process dies before any shard's batch commits
        # (NOT cluster.close(), which would flush the dirty state)
        for shard in cluster.shards:
            shard.store.close()

        recovered_cluster = build_cluster(factory, clock, commit_interval=64)
        counts = recovered_cluster.recover()
        assert counts["definitions"] == 2  # one per shard
        assert counts["instances"] == 2
        assert counts["workitems"] == 2
        for shard in range(2):
            recovered = recovered_cluster.instance(instance_ids[shard])
            assert recovered.state is InstanceState.RUNNING
            assert recovered.variables == {"amount": 10 + shard}
            assert "done" not in recovered.variables
            item = recovered_cluster.shards[shard].worklist.item(item_ids[shard])
            assert not item.state.is_terminal
            assert recovered.tokens[0].node_id == "review"
        # and each shard can redo its completion to the same end state
        for shard in range(2):
            recovered_cluster.complete_work_item(
                item_ids[shard], {"approved": True}
            )
            done = recovered_cluster.instance(instance_ids[shard])
            assert done.state is InstanceState.COMPLETED
            assert done.variables["done"] is True
        recovered_cluster.close()

    def test_clean_shutdown_recovers_everything(self, factory):
        clock = VirtualClock(0)
        cluster = build_cluster(factory, clock)
        cluster.deploy(auto_model())
        ids = [
            cluster.start_instance("auto", {"n": k}).id for k in range(6)
        ]
        cluster.close()

        reopened = build_cluster(factory, clock)
        counts = reopened.recover()
        assert counts["instances"] == 6
        merged = reopened.instances()
        assert [i.id for i in merged] == ids  # creation-order merge
        for instance in merged:
            assert instance.state is InstanceState.COMPLETED
        reopened.close()


class TestRecoveryTopologyChecks:
    def test_construction_rejects_narrower_cluster(self, factory):
        ShardedEngine(shards=2, store_factory=factory).close()
        with pytest.raises(EngineError, match="refusing mismatched topology"):
            ShardedEngine(shards=1, store_factory=factory)

    def test_recover_rejects_tampered_topology(self, factory):
        cluster = ShardedEngine(shards=2, store_factory=factory)
        # simulate an operator pointing shard 1 at a foreign partition
        cluster.shards[1].store.put(TOPOLOGY_KEY, {"shards": 4, "shard": 1})
        with pytest.raises(EngineError, match="refusing mismatched topology"):
            cluster.recover()
        cluster.close()

    def test_recover_rejects_divergent_definitions(self, factory):
        clock = VirtualClock(0)
        cluster = build_cluster(factory, clock)
        cluster.deploy(auto_model())
        # a partial deployment: one shard sees a definition the other missed
        cluster.shards[0].deploy(approval_model())
        cluster.close()

        reopened = build_cluster(factory, clock)
        with pytest.raises(EngineError, match="divergent definition"):
            reopened.recover()
        reopened.close()


class TestDedupRouteRebuild:
    def test_recovered_dedup_key_replays_on_its_shard(self, factory):
        """The cluster routing table for nondeterministically routed keys
        (round-robin starts) must rebuild from the shards' recovered
        windows, so a post-restart retry replays instead of re-executing
        on whichever shard the cursor happens to point at."""
        clock = VirtualClock(0)
        cluster = build_cluster(factory, clock)
        cluster.deploy(auto_model())
        original = cluster.start_instance("auto", {"n": 4}, dedup_key="RK-1")
        home = parse_shard_tag(original.id)
        cluster.close()

        reopened = build_cluster(factory, clock)
        reopened.recover()
        assert reopened._dedup_route["RK-1"] == home
        # after recovery the replay returns the persisted result summary
        replay = reopened.start_instance("auto", {"n": 4}, dedup_key="RK-1")
        assert replay["instance_id"] == original.id
        assert [i.id for i in reopened.instances()] == [original.id]
        reopened.close()
