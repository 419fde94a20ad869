"""Concurrent dispatch: the serialization gate under real thread contention.

The command pipeline holds a single RLock for the whole middleware chain,
so N client threads hammering ``dispatch`` must behave exactly like *some*
sequential ordering of their commands — and the dispatch log records which
one.  These tests replay that log into a fresh engine and demand identical
final state, and check that idempotency keys dedupe exactly-once even when
every thread races the same key.
"""

import threading

import pytest

from repro.clock import VirtualClock
from repro.engine import command_from_dict
from repro.engine.engine import ProcessEngine
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


def build_engine():
    engine = ProcessEngine(
        clock=VirtualClock(0),
        allocator=ShortestQueueAllocator(),
        dispatch_log_retention=10_000,
    )
    engine.organization.add("ana", roles=["clerk"])
    engine.organization.add("bo", roles=["clerk"])
    return engine


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


def replay_log(engine):
    """Sequentially replay the depth-1 command log into a fresh engine."""
    fresh = build_engine()
    for record in engine.dispatch_history():
        if record["depth"] != 1:
            continue
        fresh.dispatch(command_from_dict(record["command"]))
    return fresh


class TestConcurrentStress:
    N_THREADS = 8
    PER_THREAD = 25

    def test_threaded_run_equals_sequential_replay(self):
        engine = build_engine()
        engine.deploy(automated_model())

        def start_many(idx):
            for k in range(self.PER_THREAD):
                engine.start_instance("auto", {"n": idx * 1000 + k})

        run_in_threads(self.N_THREADS, start_many)

        total = self.N_THREADS * self.PER_THREAD
        assert len(engine.instances()) == total
        assert all(
            i.state is InstanceState.COMPLETED for i in engine.instances()
        )

        fresh = replay_log(engine)
        assert {i.id for i in fresh.instances()} == {
            i.id for i in engine.instances()
        }
        for original in engine.instances():
            twin = fresh.instance(original.id)
            assert twin.state is original.state
            assert twin.variables == original.variables
            assert [
                e.type for e in fresh.history.instance_events(original.id)
            ] == [
                e.type for e in engine.history.instance_events(original.id)
            ]

    def test_threaded_worklist_lifecycle(self):
        engine = build_engine()
        engine.deploy(approval_model())
        n = 40
        for _ in range(n):
            engine.start_instance("approval")
        items = list(engine.worklist.items())
        assert len(items) == n
        chunks = [items[i::4] for i in range(4)]

        def finish_chunk(idx):
            for item in chunks[idx]:
                engine.start_work_item(item.id)
                engine.complete_work_item(item.id, {"ok": True})

        run_in_threads(4, finish_chunk)
        assert all(
            i.state is InstanceState.COMPLETED for i in engine.instances()
        )

    def test_dispatch_seq_has_no_gaps_or_duplicates(self):
        engine = build_engine()
        engine.deploy(automated_model())
        run_in_threads(
            4, lambda idx: [engine.start_instance("auto", {"n": 1}) for _ in range(10)]
        )
        seqs = [r["seq"] for r in engine.dispatch_history() if r["depth"] == 1]
        assert seqs == sorted(seqs)
        assert len(seqs) == len(set(seqs))
        assert seqs == list(range(seqs[0], seqs[0] + len(seqs)))


class TestConcurrentDedup:
    def test_racing_threads_on_one_key_apply_exactly_once(self):
        engine = build_engine()
        engine.deploy(automated_model())
        n_threads = 8
        results = [None] * n_threads

        def racer(idx):
            results[idx] = engine.start_instance(
                "auto", {"n": 7}, dedup_key="the-one"
            )

        run_in_threads(n_threads, racer)

        assert len(engine.instances()) == 1
        only = engine.instances()[0]
        # every thread saw the same application's result
        assert all(r is results[0] for r in results)
        assert results[0].id == only.id
        counters = engine.obs.registry.snapshot()["counters"]
        assert counters["engine.commands.deduped"] == n_threads - 1

    def test_racing_completes_on_one_item_apply_exactly_once(self):
        engine = build_engine()
        engine.deploy(approval_model())
        instance = engine.start_instance("approval")
        item = engine.worklist.items()[0]
        engine.start_work_item(item.id)
        n_threads = 6

        def racer(idx):
            engine.complete_work_item(item.id, {"ok": 1}, dedup_key="fin")

        run_in_threads(n_threads, racer)
        assert instance.state is InstanceState.COMPLETED
        counters = engine.obs.registry.snapshot()["counters"]
        assert counters["engine.commands.deduped"] == n_threads - 1
