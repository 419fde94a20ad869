"""Cluster tests: routing, cross-shard fan-out, per-shard isolation."""

import pytest

from repro.clock import VirtualClock
from repro.cluster import ShardedEngine, parse_shard_tag, shard_of_key
from repro.engine.engine import ProcessEngine
from repro.engine.errors import EngineError
from repro.engine.instance import InstanceState
from repro.model.builder import ProcessBuilder
from repro.storage.kvstore import DurableKV
from repro.worklist.allocation import ShortestQueueAllocator


def auto_model():
    return (
        ProcessBuilder("auto")
        .start()
        .script_task("work", script="doubled = n * 2")
        .end()
        .build()
    )


def waiter_model():
    return (
        ProcessBuilder("waiter")
        .start()
        .receive_task("rx", message_name="go", correlation_expression="key")
        .end()
        .build()
    )


def timer_model():
    return (
        ProcessBuilder("tick")
        .start()
        .timer("wait", duration=5)
        .script_task("after", script="fired = true")
        .end()
        .build()
    )


def approval_model():
    return (
        ProcessBuilder("approval")
        .start()
        .user_task("review", role="clerk")
        .end()
        .build()
    )


def cluster(shards=4, **kwargs):
    kwargs.setdefault("clock", VirtualClock(0))
    return ShardedEngine(shards=shards, **kwargs)


def business_key_for_shard(target, shards=4, prefix="bk"):
    """A business key whose stable hash routes to the given shard."""
    for k in range(1000):
        key = f"{prefix}-{k}"
        if shard_of_key(key, shards) == target:
            return key
    raise AssertionError("no key found")  # pragma: no cover


class TestRouting:
    def test_generated_ids_carry_their_shard(self):
        c = cluster()
        c.deploy(auto_model())
        for _ in range(8):
            instance = c.start_instance("auto", {"n": 1})
            tag = parse_shard_tag(instance.id)
            assert tag is not None
            assert instance.id in c.shards[tag]._instances

    def test_keyless_starts_spread_round_robin(self):
        c = cluster()
        c.deploy(auto_model())
        for _ in range(8):
            c.start_instance("auto", {"n": 1})
        assert [len(s._instances) for s in c.shards] == [2, 2, 2, 2]

    def test_business_keys_colocate(self):
        c = cluster()
        c.deploy(auto_model())
        shards_used = {
            parse_shard_tag(
                c.start_instance("auto", {"n": 1}, business_key="ORD-7").id
            )
            for _ in range(5)
        }
        assert len(shards_used) == 1
        assert shards_used == {shard_of_key("ORD-7", 4)}

    def test_instance_lookup_routes_by_tag(self):
        c = cluster()
        c.deploy(auto_model())
        instance = c.start_instance("auto", {"n": 3})
        assert c.instance(instance.id) is instance
        assert c.instance(instance.id).variables["doubled"] == 6

    def test_lifecycle_commands_route_to_owning_shard(self):
        c = cluster()
        c.deploy(approval_model())
        c.organization.add("ana", roles=["clerk"])
        instance = c.start_instance("approval")
        c.suspend_instance(instance.id)
        assert c.instance(instance.id).state is InstanceState.SUSPENDED
        c.resume_instance(instance.id)
        c.terminate_instance(instance.id, reason="test")
        assert c.instance(instance.id).state is InstanceState.TERMINATED

    def test_compensate_routes_to_owning_shard(self):
        from repro.model.elements import ScriptTask

        b = ProcessBuilder("saga")
        b.add_node(ScriptTask("undo", script="undone = true"))
        b.start()
        b.script_task("do", script="done = true", compensation_handler="undo")
        b.end()
        c = cluster()
        c.deploy(b.build())
        instance = c.start_instance("saga")
        result = c.compensate_instance(instance.id, dedup_key="COMP-1")
        assert result["compensated"] == ["undo"]
        assert c.instance(instance.id).variables["undone"] is True
        # replays on the owning shard instead of re-running
        assert c.compensate_instance(instance.id, dedup_key="COMP-1") == result

    def test_work_items_route_by_tag(self):
        c = cluster(allocator=ShortestQueueAllocator())
        c.organization.add("ana", roles=["clerk"])
        c.deploy(approval_model())
        for _ in range(8):
            c.start_instance("approval")
        items = c.work_items()
        assert len(items) == 8
        assert {parse_shard_tag(i.id) for i in items} == {0, 1, 2, 3}
        for item in items:
            c.start_work_item(item.id)
            c.complete_work_item(item.id, {"ok": True})
        assert len(c.instances(InstanceState.COMPLETED)) == 8

    def test_single_shard_cluster_behaves_like_engine(self):
        c = cluster(shards=1)
        c.deploy(auto_model())
        instance = c.start_instance("auto", {"n": 5})
        assert instance.state is InstanceState.COMPLETED
        assert instance.variables["doubled"] == 10

    def test_zero_shards_rejected(self):
        with pytest.raises(EngineError):
            ShardedEngine(shards=0)


class TestCrossShardMessages:
    def test_message_reaches_instance_on_non_routed_shard(self):
        """The satellite case: the waiting instance lives on a shard the
        message would never hash to — the probe fan-out must find it."""
        from repro.cluster import message_home_shard

        c = cluster()
        c.deploy(waiter_model())
        home = message_home_shard("go", "X", 4)
        target = (home + 2) % 4  # provably not the message's hash shard
        instance = c.start_instance(
            "waiter", {"key": "X"}, business_key=business_key_for_shard(target)
        )
        assert parse_shard_tag(instance.id) == target
        c.correlate_message("go", correlation="X")
        assert c.instance(instance.id).state is InstanceState.COMPLETED

    def test_unmatched_message_retains_for_any_shard(self):
        c = cluster()
        c.deploy(waiter_model())
        for k in range(8):
            c.correlate_message("go", correlation=f"L{k}")
        # late receivers spread round-robin across all four shards and
        # every one must consume its retained message
        for k in range(8):
            instance = c.start_instance("waiter", {"key": f"L{k}"})
            assert c.instance(instance.id).state is InstanceState.COMPLETED

    def test_suspended_receiver_gets_message_on_resume(self):
        c = cluster()
        c.deploy(waiter_model())
        instance = c.start_instance("waiter", {"key": "S"})
        c.suspend_instance(instance.id)
        c.correlate_message("go", correlation="S")
        assert c.instance(instance.id).state is InstanceState.SUSPENDED
        c.resume_instance(instance.id)
        assert c.instance(instance.id).state is InstanceState.COMPLETED

    def test_send_task_crosses_shards(self):
        """A send task on shard A completes a receiver on shard B via the
        forwarder + drain path (never two shard locks at once)."""
        c = cluster()
        c.deploy(
            ProcessBuilder("sender")
            .start()
            .send_task("tx", message_name="ping")
            .end()
            .build()
        )
        c.deploy(
            ProcessBuilder("pinger")
            .start()
            .receive_task("rx", message_name="ping")
            .end()
            .build()
        )
        receiver = c.start_instance(
            "pinger", business_key=business_key_for_shard(3)
        )
        sender = c.start_instance(
            "sender", business_key=business_key_for_shard(0)
        )
        assert parse_shard_tag(receiver.id) != parse_shard_tag(sender.id)
        assert c.instance(receiver.id).state is InstanceState.COMPLETED
        assert c.obs.registry.counter("cluster.message_forwards").value >= 1

    def test_first_match_wins_delivers_once(self):
        c = cluster()
        c.deploy(waiter_model())
        waiting = [
            c.start_instance("waiter", {"key": "W"}) for _ in range(3)
        ]
        c.correlate_message("go", correlation="W")
        states = [c.instance(i.id).state for i in waiting]
        assert states.count(InstanceState.COMPLETED) == 1
        assert states.count(InstanceState.RUNNING) == 2

    @pytest.mark.parametrize("shards", [None, 2], ids=["engine", "2-shard"])
    def test_send_task_republishing_a_routed_message_is_forwarded(self, shards):
        """A relay that receives ping(k) and sends ping(k) on: the send
        inside the routed delivery must reach the sink on the other shard,
        not stay retained on the relay's shard."""
        if shards is None:
            engine = ProcessEngine(clock=VirtualClock(0))
        else:
            engine = cluster(shards)
        engine.deploy(
            ProcessBuilder("relay")
            .start()
            .receive_task("rx", message_name="ping", correlation_expression="k")
            .send_task(
                "tx", message_name="ping", payload_expression="{'correlation': k}"
            )
            .end()
            .build()
        )
        engine.deploy(
            ProcessBuilder("sink")
            .start()
            .receive_task("rx", message_name="ping", correlation_expression="k")
            .end()
            .build()
        )
        # the relay waits first and on the lower shard, so the probe picks it
        relay = engine.start_instance(
            "relay", {"k": "x"}, business_key=business_key_for_shard(0, 2)
        )
        sink = engine.start_instance(
            "sink", {"k": "x"}, business_key=business_key_for_shard(1, 2)
        )
        if shards is not None:
            assert [parse_shard_tag(i.id) for i in (relay, sink)] == [0, 1]
        engine.correlate_message("ping", "x")
        for instance in (relay, sink):
            assert engine.instance(instance.id).state is InstanceState.COMPLETED
        buses = [engine.bus] if shards is None else [s.bus for s in engine.shards]
        assert [bus.retained_count for bus in buses] == [0] * len(buses)


class TestTimeFanOut:
    def test_advance_time_fires_every_shard_exactly_once(self):
        """The satellite case: one clock advance, every shard's timers
        fire once — not N times for an N-shard cluster."""
        c = cluster()
        c.deploy(timer_model())
        ids = [c.start_instance("tick").id for _ in range(8)]
        assert {parse_shard_tag(i) for i in ids} == {0, 1, 2, 3}
        fired = c.advance_time(10)
        assert fired == 8
        assert c.clock.now() == 10.0  # advanced once, not per shard
        for instance_id in ids:
            instance = c.instance(instance_id)
            assert instance.state is InstanceState.COMPLETED
            assert instance.variables == {"fired": True}
        # a second pump finds nothing due: everything fired exactly once
        assert c.run_due_jobs() == 0

    def test_advance_time_needs_virtual_clock(self):
        c = ShardedEngine(shards=2)
        with pytest.raises(EngineError):
            c.advance_time(1)


class TestIdempotency:
    def test_dedup_key_replays_across_cluster(self):
        c = cluster()
        c.deploy(auto_model())
        first = c.start_instance("auto", {"n": 1}, dedup_key="K1")
        replay = c.start_instance("auto", {"n": 1}, dedup_key="K1")
        assert replay.id == first.id
        assert sum(len(s._instances) for s in c.shards) == 1

    def test_dedup_windows_stay_shard_local(self):
        """The satellite case: the same key recorded on shard A must not
        shadow a command executing on shard B — windows are per shard,
        and the cluster routing table is what keeps replays consistent."""
        c = cluster()
        c.deploy(auto_model())
        c.deploy(waiter_model())
        keyed = c.start_instance("auto", {"n": 1}, dedup_key="SHARED")
        shard_a = parse_shard_tag(keyed.id)
        # a still-running instance on a different shard, by construction
        other = c.start_instance(
            "waiter",
            {"key": "Z"},
            business_key=business_key_for_shard((shard_a + 1) % 4),
        )
        shard_b = parse_shard_tag(other.id)
        assert shard_b != shard_a
        assert "SHARED" in c.shards[shard_a].dispatch_log.dedup
        assert "SHARED" not in c.shards[shard_b].dispatch_log.dedup
        # the same client key against shard B's instance executes (no
        # collision with shard A's record) and lands in B's window only
        c.terminate_instance(other.id, dedup_key="SHARED")
        assert c.instance(other.id).state is InstanceState.TERMINATED
        assert c.instance(keyed.id).state is InstanceState.COMPLETED
        assert "SHARED" in c.shards[shard_b].dispatch_log.dedup

    def test_dedup_routes_leave_with_the_shards_windows(self):
        """A client dedup key's route is dropped once the key leaves the
        recording shard's window, so the table stays within the windows;
        a retry inside the window still replays on its shard."""
        c = cluster(shards=2, dispatch_log_retention=8)
        c.deploy(auto_model())
        c.deploy(waiter_model())
        for k in range(100):
            c.start_instance("auto", {"n": k}, dedup_key=f"S{k}")
        for k in range(100):
            c.correlate_message("go", correlation=f"C{k}", dedup_key=f"M{k}")
        assert len(c._dedup_route) <= 16
        home = c._dedup_route["M99"]
        recorded = c.shards[home].dispatch_log.dedup["M99"]["result"]
        assert c.correlate_message("go", correlation="C99", dedup_key="M99") is recorded
        assert c.shards[0].bus.retained_count == 100
        started = c.start_instance("auto", {"n": 0}, dedup_key="S-last")
        assert c.start_instance("auto", {"n": 0}, dedup_key="S-last") is started
        assert len(c.instances()) == 101

    def test_correlate_dedup_routes_to_recorded_shard(self):
        c = cluster()
        c.deploy(waiter_model())
        message = c.correlate_message("go", correlation="D", dedup_key="M1")
        replay = c.correlate_message("go", correlation="D", dedup_key="M1")
        assert replay.id == message.id
        # exactly one copy retained cluster-wide, not one per dispatch
        assert sum(s.bus.retained_count for s in c.shards) / len(c.shards) == 1


class TestScatterGather:
    def test_instances_merge_across_shards(self):
        c = cluster()
        c.deploy(auto_model())
        ids = [c.start_instance("auto", {"n": k}).id for k in range(10)]
        merged = c.instances()
        assert {i.id for i in merged} == set(ids)
        assert len(c.instances(InstanceState.COMPLETED)) == 10
        assert c.instances(InstanceState.RUNNING) == []

    def test_find_instances_scatter_gathers(self):
        c = cluster()
        c.deploy(auto_model())
        for k in range(8):
            c.start_instance("auto", {"n": k})
        hits = c.find_instances(where={"doubled": 6})
        assert len(hits) == 1
        assert hits[0].variables["n"] == 3

    def test_find_instances_business_key_narrows_to_home_shard(self):
        c = cluster()
        c.deploy(auto_model())
        keyed = c.start_instance("auto", {"n": 1}, business_key="ORD-9")
        for k in range(6):
            c.start_instance("auto", {"n": k})
        hits = c.find_instances(business_key="ORD-9")
        assert [i.id for i in hits] == [keyed.id]


class TestObservabilityAndStatus:
    def test_per_shard_instruments_populate(self):
        c = cluster()
        c.deploy(auto_model())
        for _ in range(8):
            c.start_instance("auto", {"n": 1})
        registry = c.obs.registry
        dispatch_counts = [
            registry.counter(f"cluster.shard.dispatches.{i}").value
            for i in range(4)
        ]
        # one deploy + two starts each
        assert dispatch_counts == [3, 3, 3, 3]
        for i in range(4):
            assert (
                registry.histogram(f"cluster.shard.lock_wait_seconds.{i}").count
                == dispatch_counts[i]
            )

    def test_status_reports_topology_and_load(self):
        c = cluster()
        c.deploy(auto_model())
        c.start_instance("auto", {"n": 1})
        status = c.status()
        assert status["shards"] == 4
        assert status["pending_forwards"] == 0
        assert len(status["per_shard"]) == 4
        assert status["per_shard"][0]["by_state"] == {"completed": 1}
        assert status["per_shard"][1]["instances"] == 0


class TestTopology:
    def test_mismatched_shard_count_rejected(self, tmp_path):
        def factory(index):
            return DurableKV(str(tmp_path / f"shard-{index}"))

        c = cluster(shards=2, store_factory=factory)
        c.deploy(auto_model())
        c.start_instance("auto", {"n": 1})
        c.close()
        with pytest.raises(EngineError, match="2-shard"):
            cluster(shards=4, store_factory=factory)

    def test_swapped_partitions_rejected(self, tmp_path):
        def factory(index):
            return DurableKV(str(tmp_path / f"shard-{index}"))

        cluster(shards=2, store_factory=factory).close()
        with pytest.raises(EngineError, match="swapped"):
            cluster(
                shards=2,
                store_factory=lambda i: DurableKV(str(tmp_path / f"shard-{1 - i}")),
            )
