"""Durable cross-shard messaging: the transactional outbox.

A forwarder claim is persisted in the *same* group commit as the
dispatch that published the message, and the record is deleted only
after the target shard's delivery has flushed.  These tests walk the
crash-window matrix:

* crash after the origin commit, before the drain — the record survives
  and recovery redelivers it (window 1);
* crash after the target flush, before the outbox delete — the
  redelivery is absorbed by the target's persisted dedup window, so the
  message applies exactly once (window 2);
* a failing target dispatch keeps the record for a later drain instead
  of dropping the message (the seed's pop-before-publish loss path).
"""

import threading

import pytest

from repro.clock import VirtualClock
from repro.cluster import ShardedEngine, parse_shard_tag, shard_of_key
from repro.engine.instance import InstanceState
from repro.model.builder import ProcessBuilder
from repro.storage.kvstore import DurableKV


def waiter_model():
    return (
        ProcessBuilder("waiter")
        .start()
        .receive_task("rx", message_name="go", correlation_expression="key")
        .end()
        .build()
    )


def sender_model():
    # payload is a variable holding {"correlation": <key>}: the send task
    # publishes it, the cluster probes for the waiter and forwards
    return (
        ProcessBuilder("sender")
        .start()
        .send_task("tx", message_name="go", payload_expression="msg")
        .end()
        .build()
    )


@pytest.fixture
def factory(tmp_path):
    def make(index):
        return DurableKV(str(tmp_path / f"shard-{index}"))

    return make


def build_cluster(factory, clock, shards=2):
    return ShardedEngine(shards=shards, store_factory=factory, clock=clock)


def business_key_for_shard(target, shards):
    for k in range(1000):
        key = f"bk-{k}"
        if shard_of_key(key, shards) == target:
            return key
    raise AssertionError("no key found")  # pragma: no cover


def start_waiter(cluster, key, shard, shards=2):
    instance = cluster.start_instance(
        "waiter", {"key": key}, business_key=business_key_for_shard(shard, shards)
    )
    assert parse_shard_tag(instance.id) == shard
    assert instance.state is InstanceState.RUNNING
    return instance


def send_from(cluster, key, shard, shards=2):
    instance = cluster.start_instance(
        "sender",
        {"msg": {"correlation": key}},
        business_key=business_key_for_shard(shard, shards),
    )
    assert parse_shard_tag(instance.id) == shard
    return instance


class TestOutboxClaim:
    def test_forward_route_pins_leave_with_their_records(self):
        """A ``fwd:`` route pin lives as long as its outbox record, not
        forever: the cluster's routing table stays bounded by the
        in-flight forwards."""
        cluster = ShardedEngine(
            shards=2, clock=VirtualClock(0), dispatch_log_retention=8
        )
        cluster.deploy(waiter_model())
        cluster.deploy(sender_model())
        for n in range(40):
            receiver = start_waiter(cluster, f"K{n}", shard=1)
            send_from(cluster, f"K{n}", shard=0)
            assert cluster.instance(receiver.id).state is InstanceState.COMPLETED
        assert cluster._c_forwards.value >= 40
        assert not any(shard.outbox for shard in cluster.shards)
        assert [k for k in cluster._dedup_route if k.startswith("fwd:")] == []
        cluster.close()

    def test_claim_persists_in_origin_commit_and_drains_after(self, factory):
        """With the drain held off, the claimed record is already durable
        in the origin shard's store; the drain then delivers and deletes."""
        clock = VirtualClock(0)
        cluster = build_cluster(factory, clock)
        cluster.deploy(waiter_model())
        cluster.deploy(sender_model())
        receiver = start_waiter(cluster, "X", shard=1)

        with cluster._drain_lock:  # a concurrent drainer owns the backlog
            send_from(cluster, "X", shard=0)
            assert len(cluster.shards[0].outbox) == 1
            assert cluster.shards[0].store.keys("outbox/")  # same commit
            assert cluster.instance(receiver.id).state is InstanceState.RUNNING
            assert cluster.status()["pending_forwards"] == 1

        cluster._drain_forwards()
        assert cluster.instance(receiver.id).state is InstanceState.COMPLETED
        assert not cluster.shards[0].outbox
        assert cluster.status()["pending_forwards"] == 0
        # the delete is garbage collection riding the next commit, not a
        # per-record fsync — a forced flush persists it
        cluster.shards[0].flush()
        assert not cluster.shards[0].store.keys("outbox/")
        cluster.close()


class TestCrashWindows:
    def test_crash_after_claim_before_drain_redelivers(self, factory):
        """Window 1: the process dies between the origin commit and the
        drain.  The acknowledged send must reach its receiver after
        recovery — this is exactly the seed's in-memory-deque loss."""
        clock = VirtualClock(0)
        cluster = build_cluster(factory, clock)
        cluster.deploy(waiter_model())
        cluster.deploy(sender_model())
        receiver = start_waiter(cluster, "X", shard=1)
        with cluster._drain_lock:
            send_from(cluster, "X", shard=0)
            # crash: no flush, no drain (close() would do both)
            for shard in cluster.shards:
                shard.store.close()

        recovered = build_cluster(factory, clock)
        counts = recovered.recover()
        assert counts["outbox"] == 1
        assert recovered.instance(receiver.id).state is InstanceState.COMPLETED
        assert recovered.status()["pending_forwards"] == 0
        recovered.shards[0].flush()  # the GC delete rides the next commit
        assert not recovered.shards[0].store.keys("outbox/")
        recovered.close()

    def test_crash_after_target_flush_before_delete_dedups(self, factory):
        """Window 2: the delivery flushed on the target but the origin
        died before deleting the record.  Recovery redelivers under the
        same fwd:<origin>:<seq> key and the target's persisted dedup
        window absorbs it — the second waiter must NOT complete."""
        clock = VirtualClock(0)
        cluster = build_cluster(factory, clock)
        cluster.deploy(waiter_model())
        cluster.deploy(sender_model())
        first = start_waiter(cluster, "X", shard=1)
        decoy = start_waiter(cluster, "X", shard=1)

        # this window occurs naturally: the drain removes the record in
        # memory, but the deletion only rides the origin's next commit —
        # the origin "dies" (close without flush) before one happens,
        # while the claim itself was persisted by the dispatch commit
        origin = cluster.shards[0]
        send_from(cluster, "X", shard=0)
        assert cluster.instance(first.id).state is InstanceState.COMPLETED
        assert cluster.instance(decoy.id).state is InstanceState.RUNNING
        assert origin.store.keys("outbox/")
        for shard in cluster.shards:
            shard.store.close()

        recovered = build_cluster(factory, clock)
        counts = recovered.recover()
        assert counts["outbox"] == 1
        # redelivered exactly once: absorbed by dedup, not double-applied
        assert recovered.instance(first.id).state is InstanceState.COMPLETED
        assert recovered.instance(decoy.id).state is InstanceState.RUNNING
        assert recovered.status()["pending_forwards"] == 0
        recovered.close()

    def test_outbox_seq_survives_restart(self, factory):
        """Records are deleted after drain, so the sequence must persist
        in engine/meta — a restarted origin re-minting fwd:s0:1 would
        collide with a key possibly still live in a target's window."""
        clock = VirtualClock(0)
        cluster = build_cluster(factory, clock)
        cluster.deploy(waiter_model())
        cluster.deploy(sender_model())
        start_waiter(cluster, "A", shard=1)
        send_from(cluster, "A", shard=0)
        assert cluster.shards[0].outbox.seq == 1
        cluster.close()

        recovered = build_cluster(factory, clock)
        recovered.recover()
        assert recovered.shards[0].outbox.seq == 1
        start_waiter(recovered, "B", shard=1)
        send_from(recovered, "B", shard=0)
        assert recovered.shards[0].outbox.seq == 2  # not reused
        recovered.close()


class TestFailedForward:
    def test_failing_target_dispatch_keeps_record(self):
        """The seed popped the record *before* publishing; a failing
        target dispatch silently lost the message.  Now the record
        survives the failure and the next drain redelivers it."""
        cluster = ShardedEngine(shards=2, clock=VirtualClock(0))
        cluster.deploy(waiter_model())
        cluster.deploy(sender_model())
        receiver = start_waiter(cluster, "X", shard=1)

        target = cluster.shards[1]
        real_dispatch = target.dispatch
        calls = {"n": 0}

        def failing_dispatch(command):
            if command.name == "correlate_message":
                calls["n"] += 1
                if calls["n"] == 1:
                    raise RuntimeError("injected target failure")
            return real_dispatch(command)

        target.dispatch = failing_dispatch
        send_from(cluster, "X", shard=0)
        failures = cluster.obs.registry.counter("cluster.forward_failures")
        assert failures.value == 1
        assert len(cluster.shards[0].outbox) == 1  # survived the failure
        assert cluster.instance(receiver.id).state is InstanceState.RUNNING

        cluster._drain_forwards()  # next drain redelivers
        assert cluster.instance(receiver.id).state is InstanceState.COMPLETED
        assert not cluster.shards[0].outbox
        cluster.close()


@pytest.mark.threads
class TestKillRecoverStress:
    def test_no_message_lost_or_duplicated_across_kill_cycles(self, factory):
        """Four shards, concurrent senders, a kill/recover cycle per
        round.  Every key gets two waiters and one send: zero lost means
        one waiter completes, zero duplicated means the other never does
        — across every crash."""
        shards, rounds, keys_per_round = 4, 3, 6
        clock = VirtualClock(0)
        all_keys: list[tuple[str, str, str]] = []  # (key, winner-pool ids)

        for round_no in range(rounds):
            cluster = build_cluster(factory, clock, shards=shards)
            if round_no:
                cluster.recover()
                # every prior key: delivered exactly once by now
                for key, a_id, b_id in all_keys:
                    states = {
                        cluster.instance(a_id).state,
                        cluster.instance(b_id).state,
                    }
                    assert InstanceState.COMPLETED in states
                    assert InstanceState.RUNNING in states
            else:
                cluster.deploy(waiter_model())
                cluster.deploy(sender_model())

            fresh = []
            for k in range(keys_per_round):
                key = f"r{round_no}-k{k}"
                origin = k % shards
                a = start_waiter(
                    cluster, key, shard=(origin + 1) % shards, shards=shards
                )
                b = start_waiter(
                    cluster, key, shard=(origin + 2) % shards, shards=shards
                )
                fresh.append((key, origin, a.id, b.id))

            # odd rounds: hold the drain so claims persist undrained and
            # the kill exercises the recovery redelivery path
            hold = round_no % 2 == 1
            if hold:
                cluster._drain_lock.acquire()
            try:
                barrier = threading.Barrier(keys_per_round)
                errors = []

                def sender(idx):
                    try:
                        barrier.wait()
                        key, origin, _, _ = fresh[idx]
                        send_from(cluster, key, shard=origin, shards=shards)
                    except Exception as exc:  # pragma: no cover - bug path
                        errors.append(exc)

                threads = [
                    threading.Thread(target=sender, args=(i,))
                    for i in range(keys_per_round)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                assert not errors
            finally:
                if hold:
                    cluster._drain_lock.release()
            all_keys.extend((key, a, b) for key, _, a, b in fresh)
            # kill -9: no flush, no close, no final drain
            for shard in cluster.shards:
                shard.store.close()

        final = build_cluster(factory, clock, shards=shards)
        final.recover()
        assert final.status()["pending_forwards"] == 0
        completed = running = 0
        for key, a_id, b_id in all_keys:
            states = sorted(
                (final.instance(a_id).state, final.instance(b_id).state),
                key=lambda s: s.value,
            )
            assert states == [InstanceState.COMPLETED, InstanceState.RUNNING], key
            completed += 1
            running += 1
        assert completed == rounds * keys_per_round
        final.close()
