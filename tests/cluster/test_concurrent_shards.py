"""Concurrent clients against a sharded cluster.

Same discipline as tests/engine/test_concurrent_dispatch.py, one level
up: N client threads hammer the cluster facade while shards dispatch in
parallel.  Correctness bar: every command lands exactly once on exactly
one shard, ids stay unique cluster-wide, and per-shard dispatch logs
stay gap-free — the cluster adds parallelism, not new interleavings.
"""

import collections
import sys
import threading

import pytest

from repro.clock import VirtualClock
from repro.cluster import ShardedEngine, parse_shard_tag
from repro.engine.instance import InstanceState
from repro.model.builder import ProcessBuilder
from repro.worklist.allocation import ShortestQueueAllocator

pytestmark = pytest.mark.threads


def automated_model():
    return (
        ProcessBuilder("auto")
        .start()
        .script_task("work", script="doubled = n * 2")
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


def build_cluster(shards=4):
    cluster = ShardedEngine(
        shards=shards,
        clock=VirtualClock(0),
        allocator=ShortestQueueAllocator(),
        dispatch_log_retention=10_000,
    )
    cluster.organization.add("ana", roles=["clerk"])
    cluster.organization.add("bo", roles=["clerk"])
    return cluster


def run_in_threads(n_threads, target):
    """Run ``target(thread_index)`` in n threads; re-raise any exception."""
    errors = []
    barrier = threading.Barrier(n_threads)

    def runner(idx):
        try:
            barrier.wait()
            target(idx)
        except Exception as exc:  # pragma: no cover - only on bugs
            errors.append(exc)

    threads = [
        threading.Thread(target=runner, args=(i,)) for i in range(n_threads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


class TestConcurrentClusterStress:
    N_THREADS = 8
    PER_THREAD = 25

    def test_threaded_starts_land_exactly_once(self):
        cluster = build_cluster()
        cluster.deploy(automated_model())

        def start_many(idx):
            for k in range(self.PER_THREAD):
                cluster.start_instance("auto", {"n": idx * 1000 + k})

        run_in_threads(self.N_THREADS, start_many)

        total = self.N_THREADS * self.PER_THREAD
        merged = cluster.instances()
        assert len(merged) == total
        assert len({i.id for i in merged}) == total  # cluster-unique ids
        assert all(i.state is InstanceState.COMPLETED for i in merged)
        # conservation: every start is on exactly one shard
        assert sum(len(s.instances()) for s in cluster.shards) == total
        # and each shard's own dispatch log is gap-free
        for shard in cluster.shards:
            seqs = [
                r["seq"] for r in shard.dispatch_history() if r["depth"] == 1
            ]
            assert seqs == list(range(seqs[0], seqs[0] + len(seqs)))

    def test_threaded_worklist_across_shards(self):
        """Four threads each drain one quarter of the open work items;
        completions route to the owning shard by the item's tag."""
        cluster = build_cluster()
        cluster.deploy(approval_model())
        n = 40
        for _ in range(n):
            cluster.start_instance("approval")
        items = cluster.work_items()
        assert len(items) == n
        assert {parse_shard_tag(i.id) for i in items} == {0, 1, 2, 3}
        chunks = [items[i::4] for i in range(4)]

        def finish_chunk(idx):
            for item in chunks[idx]:
                cluster.start_work_item(item.id)
                cluster.complete_work_item(item.id, {"ok": True})

        run_in_threads(4, finish_chunk)
        assert all(
            i.state is InstanceState.COMPLETED for i in cluster.instances()
        )

    def test_racing_threads_on_one_key_apply_exactly_once(self):
        """A dedup key raced cluster-wide pins to one shard: one
        application, one instance, everyone sees the same result."""
        cluster = build_cluster()
        cluster.deploy(automated_model())
        n_threads = 8
        results = [None] * n_threads

        def racer(idx):
            results[idx] = cluster.start_instance(
                "auto", {"n": 7}, dedup_key="the-one"
            )

        run_in_threads(n_threads, racer)

        merged = cluster.instances()
        assert len(merged) == 1
        assert all(r is results[0] for r in results)
        assert results[0].id == merged[0].id
        counters = cluster.obs.registry.snapshot()["counters"]
        assert counters["engine.commands.deduped"] == n_threads - 1

    def test_threaded_messages_deliver_each_exactly_once(self):
        cluster = build_cluster()
        cluster.deploy(
            ProcessBuilder("waiter")
            .start()
            .receive_task("rx", message_name="go", correlation_expression="key")
            .end()
            .build()
        )
        n = 24
        ids = [
            cluster.start_instance("waiter", {"key": f"K{k}"}).id
            for k in range(n)
        ]

        def publish_chunk(idx):
            for k in range(idx, n, 4):
                cluster.correlate_message("go", correlation=f"K{k}")

        run_in_threads(4, publish_chunk)
        for instance_id in ids:
            assert (
                cluster.instance(instance_id).state is InstanceState.COMPLETED
            )
        assert sum(s.bus.retained_count for s in cluster.shards) == 0

    def test_readers_racing_hand_overs_get_one_object(self):
        """Readers look instances up while the dispatches finishing them
        let the views move them to the weak identity cache.  Every object
        a reader gets stays held, so two objects for one id would both be
        alive: each id must map to one object throughout."""
        cluster = build_cluster(shards=2)
        cluster.deploy(approval_model())
        ids = [cluster.start_instance("approval").id for _ in range(60)]
        item_ids = [item.id for item in cluster.work_items()]
        writing = threading.Event()
        writing.set()
        errors = []
        seen = [collections.defaultdict(list) for _ in range(2)]

        def writer(chunk):
            try:
                for item_id in chunk:
                    cluster.start_work_item(item_id)
                    cluster.complete_work_item(item_id, {"ok": True})
            except Exception as exc:  # pragma: no cover - only on bugs
                errors.append(exc)

        def reader(got):
            try:
                while True:
                    last = not writing.is_set()  # one full round after the writers
                    for instance_id in ids:
                        got[instance_id].append(cluster.instance(instance_id))
                    for instance in cluster.instances():  # folds: hands over
                        got[instance.id].append(instance)
                    if last:
                        return
            except Exception as exc:  # pragma: no cover - only on bugs
                errors.append(exc)

        writers = [
            threading.Thread(target=writer, args=(item_ids[k::2],)) for k in range(2)
        ]
        readers = [threading.Thread(target=reader, args=(got,)) for got in seen]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in readers + writers:
                thread.start()
            for thread in writers:
                thread.join(timeout=60)
            writing.clear()
            for thread in readers:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in readers + writers)
        if errors:
            raise errors[0]
        for instance_id in ids:
            got = seen[0][instance_id] + seen[1][instance_id]
            assert all(instance is got[0] for instance in got), instance_id
            assert got[-1].state is InstanceState.COMPLETED
        assert all(not shard._instances for shard in cluster.shards)
