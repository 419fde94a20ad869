"""Sharded durability: crash mid-batch, topology checks, dedup routes.

Extends PR 3's single-engine crash-consistency test to the cluster: a
crash with group-commit batches open on *several* shards must recover
every partition to its own consistent pre-completion state.
"""

import pytest

import repro.deploy as deploy_mod
from repro.clock import VirtualClock
from repro.cluster import TOPOLOGY_KEY, ShardedEngine, parse_shard_tag, shard_of_key
from repro.engine.errors import DefinitionNotFoundError, EngineError
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


def build_cluster(factory, clock, shards=2):
    cluster = ShardedEngine(
        shards=shards,
        store_factory=factory,
        clock=clock,
        allocator=ShortestQueueAllocator(),
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
        cluster = build_cluster(factory, clock)
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
        # persist the in-progress baseline, open a batch on each shard
        # (never exited), then dirty both shards
        cluster.flush()
        for shard in cluster.shards:
            shard.batch().__enter__()
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

        recovered_cluster = build_cluster(factory, clock)
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

    def test_recover_rejects_divergent_definitions(self, tmp_path):
        def partial_deployment(cluster):
            # one shard sees a definition the other missed, and alone serves it
            cluster.shards[0].deploy(approval_model())
            with pytest.raises(DefinitionNotFoundError):
                cluster.start_instance(
                    "approval", business_key=business_key_for_shard(1, 2)
                )

        def tampered_record(cluster):
            # the same identifiers, one shard's record with other content
            store = cluster.shards[1].store
            raw = store.get("definition/auto:1")
            store.put("definition/auto:1", {**raw, "description": "tampered"})

        clock = VirtualClock(0)
        for diverge in (partial_deployment, tampered_record):
            directory = tmp_path / diverge.__name__

            def factory(index, directory=directory):
                return DurableKV(str(directory / f"shard-{index}"))

            cluster = build_cluster(factory, clock)
            cluster.deploy(auto_model())
            diverge(cluster)
            cluster.close()

            reopened = build_cluster(factory, clock)
            with pytest.raises(EngineError, match="divergent definition"):
                reopened.recover()
            reopened.close()

    def test_a_deploy_whose_commit_fails_on_shard_0_shows_on_no_shard_1(
        self, tmp_path
    ):
        class FailingKV(DurableKV):
            failing = False

            def commit(self):
                if self.failing:
                    self.rollback()
                    raise OSError("disk full")
                super().commit()

        stores = []

        def factory(index):
            stores.append(FailingKV(str(tmp_path / f"shard-{index}")))
            return stores[-1]

        cluster = build_cluster(factory, VirtualClock(0))
        stores[0].failing = True
        with pytest.raises(OSError):
            cluster.deploy(auto_model())
        assert cluster.shards[1].definitions() == []
        with pytest.raises(DefinitionNotFoundError):
            cluster.start_instance(
                "auto", {"n": 1}, business_key=business_key_for_shard(1, 2)
            )
        for store in stores:
            store.close()

    def test_a_redeploy_after_a_refused_restart_agrees_but_mends_nothing(
        self, factory
    ):
        clock = VirtualClock(0)
        cluster = build_cluster(factory, clock)
        cluster.shards[0].deploy(auto_model())
        cluster.close()

        reopened = build_cluster(factory, clock)
        with pytest.raises(EngineError, match="divergent definition sets; a redeploy"):
            reopened.recover()
        # the redeploy mints auto:2 on shard 0, and shard 1 records that
        # same version, so both shards serve one latest version
        assert reopened.deploy(auto_model()) == "auto:2"
        assert [s.definition("auto").identifier for s in reopened.shards] == [
            "auto:2",
            "auto:2",
        ]
        reopened.close()

        # shard 1's store still lacks auto:1, so the next restart refuses too
        again = build_cluster(factory, clock)
        assert again.shards[1].store.keys("definition/") == ["definition/auto:2"]
        with pytest.raises(EngineError, match="divergent definition sets; a redeploy"):
            again.recover()
        again.close()


class TestDefinitionDecodes:
    def test_restart_decodes_each_stored_definition_once(self, factory, monkeypatch):
        clock = VirtualClock(0)
        cluster = build_cluster(factory, clock, shards=4)
        cluster.deploy(auto_model())
        cluster.deploy(approval_model())
        cluster.deploy(auto_model())
        cluster.close()

        decoded = []
        real = deploy_mod.definition_from_dict

        def spy(raw):
            decoded.append(f"{raw['key']}:{raw['version']}")
            return real(raw)

        monkeypatch.setattr(deploy_mod, "definition_from_dict", spy)
        reopened = build_cluster(factory, clock, shards=4)
        assert reopened.recover()["definitions"] == 12  # 3 records x 4 shards
        assert sorted(decoded) == ["approval:1", "auto:1", "auto:2"]
        # every shard serves the one decoded object
        latest = reopened.shards[0].definition("auto")
        assert all(shard.definition("auto") is latest for shard in reopened.shards)
        assert reopened.deploy(auto_model()) == "auto:3"
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
