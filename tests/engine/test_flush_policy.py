"""Engine tests: incremental persistence, commit policies, group commit.

The seed engine rewrote every collection (jobs, work items, message waits,
meta) as whole-store blobs on every flush — O(total state) per API call.
These tests pin the replacement: differential writes only for what
changed, a real early return when nothing is dirty, and the batch()
scope that coalesces its caller's calls into one commit.
"""

import sys
import threading

import pytest

from repro.clock import VirtualClock
from repro.cluster.sharded import ShardedEngine
from repro.engine.engine import ProcessEngine
from repro.engine.instance import InstanceState
from repro.engine.migration import MigrationPlan
from repro.model.builder import ProcessBuilder
from repro.model.elements import ScriptTask
from repro.worklist.allocation import ShortestQueueAllocator

from tests.counting_kv import CountingKV


def approval_model():
    return (
        ProcessBuilder("approval")
        .start()
        .user_task("review", role="clerk")
        .script_task("after", script="done = true")
        .end()
        .build()
    )


def receive_model(node_id="wait"):
    return (
        ProcessBuilder("msg")
        .start()
        .receive_task(node_id, message_name="go", correlation_expression="key")
        .end()
        .build()
    )


def race_model():
    return (
        ProcessBuilder("race")
        .start()
        .event_gateway("race")
        .branch()
        .message_catch("m1", message_name="alpha")
        .exclusive_gateway("merge")
        .branch_from("race")
        .message_catch("m2", message_name="beta")
        .connect_to("merge")
        .branch_from("race")
        .timer("t1", duration=100)
        .connect_to("merge")
        .move_to("merge")
        .end()
        .build()
    )


def live_wait_keys(engine):
    return [f"wait/{wait.seq:010d}" for wait in engine.waits]


def timed_model():
    return (
        ProcessBuilder("timed")
        .start()
        .timer("wait", duration=60)
        .script_task("after", script="fired = true")
        .end()
        .build()
    )


def build_engine(store, **kwargs):
    engine = ProcessEngine(
        clock=VirtualClock(0),
        store=store,
        allocator=ShortestQueueAllocator(),
        **kwargs,
    )
    engine.organization.add("ana", roles=["clerk"])
    return engine


class TestDeadGuardFix:
    """The seed's `if not dirty: pass` guard was a no-op; now it returns."""

    def test_read_only_calls_write_nothing(self):
        store = CountingKV()
        engine = build_engine(store)
        engine.deploy(approval_model())
        instance = engine.start_instance("approval")
        store.reset_counts()

        engine.instance(instance.id)
        engine.instances()
        engine.find_instances(state=InstanceState.RUNNING)
        assert engine.run_due_jobs() == 0  # empty queue
        assert store.puts == 0
        assert store.deletes == 0
        assert store.commits == 0

    def test_explicit_flush_with_nothing_dirty_writes_nothing(self):
        store = CountingKV()
        engine = build_engine(store)
        engine.deploy(approval_model())
        engine.start_instance("approval")
        engine.flush()  # drain the write-behind view dirt the start noted
        store.reset_counts()
        engine.flush()
        assert store.puts == 0
        assert store.commits == 0


class TestIncrementalWrites:
    def test_completion_writes_only_changed_records(self):
        store = CountingKV()
        engine = build_engine(store)
        engine.deploy(approval_model())
        # two instances; completing one must not rewrite the other's item
        first = engine.start_instance("approval")
        engine.start_instance("approval")
        item = next(
            i for i in engine.worklist.items() if i.instance_id == first.id
        )
        engine.start_work_item(item.id)
        store.reset_counts()

        engine.complete_work_item(item.id)
        assert f"instance/{first.id}" in store.put_keys
        assert f"workitem/{item.id}" in store.put_keys
        # no whole-collection blobs, no untouched records
        assert "engine/jobs" not in store.put_keys
        assert "engine/workitems" not in store.put_keys
        other_items = [k for k in store.put_keys if k.startswith("workitem/")]
        assert other_items == [f"workitem/{item.id}"]

    def test_fired_job_record_is_deleted(self):
        store = CountingKV()
        engine = build_engine(store)
        engine.deploy(timed_model())
        engine.start_instance("timed")
        job_keys = [k for k in store.keys("jobs/")]
        assert len(job_keys) == 1
        engine.advance_time(61)
        assert store.keys("jobs/") == []

    def test_wait_put_once_and_deleted_when_consumed(self):
        store = CountingKV()
        engine = build_engine(store)
        engine.deploy(receive_model())
        engine.start_instance("msg", {"key": "k1"})
        engine.start_instance("msg", {"key": "k2"})
        first, second = store.keys("wait/")
        assert store.get(first)["correlation"] == "k1"
        store.reset_counts()
        # unrelated traffic must not write any wait record
        engine.deploy(approval_model())
        engine.start_instance("approval")
        assert not any(k.startswith("wait/") for k in store.put_keys)
        # a consumed wait deletes exactly its own key, and the wait
        # sequence is not an engine/meta counter
        store.reset_counts()
        engine.correlate_message("go", "k1", {})
        assert store.delete_keys == [first]
        assert store.keys("wait/") == [second]
        assert not any(k.startswith("wait/") for k in store.put_keys)
        assert "engine/meta" not in store.put_keys

    def test_cancelled_wait_deletes_its_key(self):
        store = CountingKV()
        engine = build_engine(store)
        engine.deploy(receive_model())
        keep = engine.start_instance("msg", {"key": "k1"})
        gone = engine.start_instance("msg", {"key": "k2"})
        _, second = store.keys("wait/")
        store.reset_counts()
        engine.terminate_instance(gone.id)
        assert store.delete_keys == [second]
        assert live_wait_keys(engine) == store.keys("wait/")
        assert [w.instance_id for w in engine.waits] == [keep.id]

    def test_wait_opened_and_consumed_in_one_batch_costs_no_store_op(self):
        store = CountingKV()
        engine = build_engine(store)
        engine.deploy(receive_model())
        store.reset_counts()
        with engine.batch():
            instance = engine.start_instance("msg", {"key": "k1"})
            assert len(engine.waits) == 1
            engine.correlate_message("go", "k1", {})
        assert instance.state is InstanceState.COMPLETED
        assert store.commits == 1
        assert not any(k.startswith("wait/") for k in store.put_keys)
        assert store.delete_keys == []


class TestNoWaitOutlivesItsToken:
    """``store.keys("wait/")`` is the live set after every way a parked
    token can go away."""

    def check(self, engine, store, expected):
        assert store.keys("wait/") == live_wait_keys(engine)
        assert len(engine.waits) == expected

    def test_terminate_then_compensate(self):
        store = CountingKV()
        engine = build_engine(store)
        builder = ProcessBuilder("saga")
        builder.add_node(ScriptTask("undo", script="x = 0"))
        builder.start()
        builder.script_task("t", script="x = 1", compensation_handler="undo")
        builder.receive_task("rx", message_name="go")
        builder.end()
        engine.deploy(builder.build())
        instance = engine.start_instance("saga")
        self.check(engine, store, 1)
        engine.terminate_instance(instance.id)
        self.check(engine, store, 0)
        engine.compensate_instance(instance.id)
        self.check(engine, store, 0)

    def test_interrupting_boundary_event_cancels_the_childs_wait(self):
        store = CountingKV()
        engine = build_engine(store)
        engine.deploy(receive_model())
        engine.deploy(
            ProcessBuilder("parent")
            .start()
            .call_activity("call", process_key="msg", input_mappings={"key": "key"})
            .end("done")
            .boundary_timer("too_slow", attached_to="call", duration=10)
            .end("gave_up")
            .build()
        )
        parent = engine.start_instance("parent", {"key": "k1"})
        self.check(engine, store, 1)
        engine.advance_time(11)
        assert parent.state is InstanceState.COMPLETED
        self.check(engine, store, 0)

    def test_settled_event_race_drops_the_losing_subscriptions(self):
        store = CountingKV()
        engine = build_engine(store)
        engine.deploy(race_model())
        by_message = engine.start_instance("race")
        by_timer = engine.start_instance("race")
        self.check(engine, store, 4)
        engine.correlate_message("alpha")
        assert by_message.state is InstanceState.COMPLETED
        self.check(engine, store, 2)
        engine.advance_time(101)
        assert by_timer.state is InstanceState.COMPLETED
        self.check(engine, store, 0)

    def test_migration_rewrites_the_record_in_place(self):
        store = CountingKV()
        engine = build_engine(store)
        engine.deploy(receive_model())
        instance = engine.start_instance("msg", {"key": "k1"})
        engine.deploy(receive_model(node_id="wait_v2"))
        (key,) = store.keys("wait/")
        engine.migrate_instance(instance.id, 2, MigrationPlan({"wait": "wait_v2"}))
        self.check(engine, store, 1)
        assert store.keys("wait/") == [key]
        assert store.get(key)["node_id"] == "wait_v2"
        # migrated and consumed inside one commit: the stored record
        # still has to go
        other = engine.start_instance("msg", {"key": "k2"}, version=1)
        with engine.batch():
            engine.migrate_instance(other.id, 2, MigrationPlan({"wait": "wait_v2"}))
            engine.correlate_message("go", "k2", {})
        assert other.state is InstanceState.COMPLETED
        self.check(engine, store, 1)


class TestCommitPolicies:
    def test_batch_coalesces_into_one_commit(self):
        store = CountingKV()
        engine = build_engine(store)
        engine.deploy(approval_model())
        for _ in range(5):
            engine.start_instance("approval")
        items = [i.id for i in engine.worklist.items()]
        store.reset_counts()

        with engine.batch():
            for item_id in items:
                engine.start_work_item(item_id)
                engine.complete_work_item(item_id)
            assert store.commits == 0  # all deferred
        assert store.commits == 1
        # every instance/item record was still written, exactly once
        instance_puts = [k for k in store.put_keys if k.startswith("instance/")]
        assert len(instance_puts) == len(set(instance_puts)) == 5

    def test_batch_is_reentrant(self):
        store = CountingKV()
        engine = build_engine(store)
        engine.deploy(approval_model())
        store.reset_counts()
        with engine.batch():
            with engine.batch():
                engine.start_instance("approval")
            assert store.commits == 0  # inner exit does not commit
        assert store.commits == 1

    def test_batch_flushes_on_exception(self):
        store = CountingKV()
        engine = build_engine(store)
        engine.deploy(approval_model())
        store.reset_counts()
        try:
            with engine.batch():
                engine.start_instance("approval")
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        # memory mutated, so the store must not lag behind it
        assert store.commits == 1
        assert store.keys("instance/")

    def test_log_entries_pruned_inside_a_batch_never_touch_the_store(self):
        store = CountingKV()
        engine = build_engine(store, dispatch_log_retention=4)
        engine.deploy(approval_model())  # entry 1, persisted
        store.reset_counts()
        with engine.batch():
            for _ in range(10):  # entries 2..11; 8..11 are retained
                engine.start_instance("approval")
        dispatch_puts = [k for k in store.put_keys if k.startswith("dispatch/")]
        assert dispatch_puts == [f"dispatch/{seq:010d}" for seq in range(8, 12)]
        # entry 1 reached the store and is deleted; entries 2..7 were
        # appended and pruned inside the batch: no put, no delete
        assert store.deletes == 1
        assert store.keys("dispatch/") == dispatch_puts

    def test_state_survives_batched_run(self, tmp_path):
        from repro.storage.kvstore import DurableKV

        store = DurableKV(str(tmp_path / "kv"))
        engine = build_engine(store)
        engine.deploy(approval_model())
        with engine.batch():
            ids = [engine.start_instance("approval").id for _ in range(3)]
            for item in engine.worklist.items():
                engine.start_work_item(item.id)
                engine.complete_work_item(item.id)
        store.close()

        store2 = DurableKV(str(tmp_path / "kv"))
        engine2 = build_engine(store2)
        engine2.recover()
        for instance_id in ids:
            assert engine2.instance(instance_id).state is InstanceState.COMPLETED
            assert engine2.instance(instance_id).variables["done"] is True
        store2.close()


class TestOrphanedJobs:
    def test_orphaned_jobs_skipped_and_counted(self):
        store = CountingKV()
        engine = build_engine(store)
        engine.deploy(timed_model())
        engine.start_instance("timed")
        # fabricate a job for an instance the engine does not know
        engine.scheduler.schedule(10, "timer", "ghost-1", {"token_id": 1})
        processed = engine.advance_time(61)
        assert processed == 1  # the real timer only
        assert engine.obs.registry.counter("engine.jobs.orphaned").value == 1
        # the orphan was dropped, not re-queued
        assert len(engine.scheduler) == 0

    def test_no_orphans_counter_stays_zero(self):
        engine = build_engine(CountingKV())
        engine.deploy(timed_model())
        engine.start_instance("timed")
        engine.advance_time(61)
        assert engine.obs.registry.counter("engine.jobs.orphaned").value == 0


class TestCorrelateWriteSet:
    """A publish that matches no waiting receiver only parks the message
    in the bus's in-memory retained buffer — the store must see zero
    writes (the sharded runtime probes + publishes on every broadcast,
    so a dirtying no-op here would multiply into N commits per message)."""

    def receive_model(self):
        return (
            ProcessBuilder("msg")
            .start()
            .receive_task("wait", message_name="go", correlation_expression="key")
            .end()
            .build()
        )

    def test_unmatched_publish_writes_nothing(self):
        store = CountingKV()
        engine = build_engine(store)
        engine.deploy(self.receive_model())
        store.reset_counts()

        message = engine.correlate_message("go", "nobody-waiting", {})
        assert message.name == "go"
        assert store.puts == 0
        assert store.deletes == 0
        assert store.commits == 0
        # the message is retained, not lost
        assert engine.bus.retained_count == 1

    def test_delivered_publish_still_writes(self):
        store = CountingKV()
        engine = build_engine(store)
        engine.deploy(self.receive_model())
        instance = engine.start_instance("msg", {"key": "k1"})
        store.reset_counts()

        engine.correlate_message("go", "k1", {})
        assert engine.instance(instance.id).state is InstanceState.COMPLETED
        assert f"instance/{instance.id}" in store.put_keys
        assert store.commits >= 1

    def test_dedup_keyed_unmatched_publish_logs_the_dispatch(self):
        """An idempotency-keyed publish must keep its dispatch record even
        when nothing matched, so the dedup window survives recovery."""
        store = CountingKV()
        engine = build_engine(store)
        engine.deploy(self.receive_model())
        store.reset_counts()

        engine.correlate_message("go", "nobody", {}, dedup_key="pub-1")
        dispatch_puts = [k for k in store.put_keys if k.startswith("dispatch/")]
        assert len(dispatch_puts) == 1
        # and only the dispatch record: no instance/job/workitem churn
        assert [
            k for k in store.put_keys if not k.startswith("dispatch/")
        ] == []


class TestFlushInstrumentation:
    def test_flush_metrics_and_span(self):
        from repro.obs import InMemorySpanExporter, Observability

        exporter = InMemorySpanExporter()
        obs = Observability(enabled=True, exporters=[exporter])
        store = CountingKV()
        engine = build_engine(store, obs=obs)
        engine.deploy(approval_model())
        engine.start_instance("approval")
        registry = engine.obs.registry
        assert registry.counter("engine.flush.commits").value >= 1
        assert registry.counter("engine.flush.records_written").value >= 2
        histogram = registry.histogram(
            "engine.flush.batch_records",
            (1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 1000.0),
        )
        assert histogram.count >= 1
        names = [s.name for s in exporter.spans]
        assert "engine.flush" in names


class FailingCommitKV(CountingKV):
    def commit(self):
        raise OSError("disk full")


class TestBatchDefersOnlyItsCaller:
    """A batch holds the dispatch lock: it defers its own thread's
    commands, never another thread's acknowledged one."""

    @pytest.mark.threads
    def test_other_thread_waits_and_is_durable_when_it_returns(self):
        store = CountingKV()
        engine = build_engine(store)
        engine.deploy(approval_model())
        started = []
        other = threading.Thread(
            target=lambda: started.append(engine.start_instance("approval").id)
        )
        with engine.batch():
            other.start()
            other.join(timeout=0.5)
            # B's command waits at the gate instead of joining A's batch
            assert other.is_alive()
            assert started == []
        other.join(timeout=10)
        assert not other.is_alive()
        (instance_id,) = started
        assert store.get(f"instance/{instance_id}") is not None

    @pytest.mark.threads
    def test_flush_from_another_thread_waits_at_the_gate(self):
        """flush() takes the dispatch lock: it cannot commit a write-set
        another thread is still building."""
        store = CountingKV()
        engine = build_engine(store)
        engine.deploy(approval_model())
        flusher = threading.Thread(target=engine.flush)
        with engine.batch():
            engine.start_instance("approval")
            flusher.start()
            flusher.join(timeout=0.5)
            assert flusher.is_alive()
            assert store.keys("instance/") == []
        flusher.join(timeout=10)
        assert not flusher.is_alive()
        assert len(store.keys("instance/")) == 1

    def test_lock_released_when_the_batch_commit_raises(self):
        store = FailingCommitKV()
        engine = build_engine(store)
        with pytest.raises(OSError):
            with engine.batch():
                engine.deploy(approval_model())
        # the gate is free again: another thread can take it
        acquired = []
        probe = threading.Thread(
            target=lambda: acquired.append(engine._dispatch_lock.acquire(False))
        )
        probe.start()
        probe.join(timeout=10)
        assert not probe.is_alive()
        assert acquired == [True]

    @pytest.mark.threads
    def test_overlapping_batches_beside_plain_callers(self):
        """Threads in nested batches race plain callers: every plain call
        is stored when it returns, and no batch depth update is lost."""
        store = CountingKV()
        engine = build_engine(store)
        engine.deploy(approval_model())
        late, errors = [], []

        def batcher():
            try:
                for _ in range(20):
                    with engine.batch():
                        with engine.batch():
                            engine.start_instance("approval")
                        engine.start_instance("approval")
            except Exception as exc:  # pragma: no cover - only on bugs
                errors.append(exc)

        def caller():
            try:
                for _ in range(20):
                    instance_id = engine.start_instance("approval").id
                    if store.get(f"instance/{instance_id}") is None:
                        late.append(instance_id)
            except Exception as exc:  # pragma: no cover - only on bugs
                errors.append(exc)

        threads = [threading.Thread(target=batcher) for _ in range(4)]
        threads += [threading.Thread(target=caller) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert late == []
        assert engine._batch_depth == 0
        assert len(store.keys("instance/")) == 4 * 20 * 2 + 4 * 20

    def test_cluster_accepts_no_commit_interval_but_one(self):
        with pytest.raises(ValueError, match="batch"):
            ShardedEngine(2, commit_interval=2)
