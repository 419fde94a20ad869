"""Crash-recovery matrix for pooled service invocations.

The cycle has three commit points — enqueue-commit, execution,
completion-commit — and a crash in any window must lose zero
acknowledged invocations and apply zero duplicate completions.  Each
test kills the store in one window (``store.close()`` + rebuild, the
repo's crash idiom) and asserts the recovered engine converges to the
same final state the uncrashed run would have reached.
"""

import pytest

from repro.clock import VirtualClock
from repro.engine.engine import ProcessEngine
from repro.engine.instance import InstanceState
from repro.model.builder import ProcessBuilder
from repro.model.elements import RetryPolicy
from repro.storage.kvstore import DurableKV
from repro.workers import WorkerPool


def service_model():
    return (
        ProcessBuilder("p")
        .start()
        .service_task(
            "call",
            service="svc",
            inputs={"n": "n"},
            output_variable="out",
            retry=RetryPolicy(max_attempts=1, initial_backoff=0.0),
        )
        .end("done")
        .build()
    )


@pytest.fixture
def store_path(tmp_path):
    return str(tmp_path / "engine-store")


def build(store, calls, fail=False):
    """Fresh engine + manual pool over an existing store."""
    engine = ProcessEngine(clock=VirtualClock(1000.0), store=store)

    def svc(n):
        calls.append(n)
        if fail:
            raise RuntimeError("boom")
        return n * 2

    engine.services.register("svc", svc)
    return engine


class TestCrashWindows:
    def test_crash_between_enqueue_commit_and_execution(self, store_path):
        """Window 1: the enqueue committed, the pool never ran."""
        calls = []
        store = DurableKV(store_path)
        engine = build(store, calls)
        pool = WorkerPool(workers=0)
        engine.attach_workers(pool)
        engine.deploy(service_model())
        instance = engine.start_instance("p", {"n": 7})
        instance_id = instance.id
        store.close()  # crash: record durable, service never called
        assert calls == []

        store2 = DurableKV(store_path)
        engine2 = build(store2, calls)
        counts = engine2.recover()
        assert counts["invocations"] == 1
        pool2 = WorkerPool(workers=0)
        engine2.attach_workers(pool2)  # pending submits on attach
        command = pool2.run_next()
        assert command is not None and command.outcome == "success"
        recovered = engine2.instance(instance_id)
        assert recovered.state is InstanceState.COMPLETED
        assert recovered.variables["out"] == 14
        assert calls == [7]
        store2.close()

    def test_crash_between_execution_and_completion_dispatch(self, store_path):
        """Window 2: the service ran, the completion was never dispatched.

        At-least-once: recovery re-executes (the side effect repeats),
        but the instance completes exactly once.
        """
        calls = []
        store = DurableKV(store_path)
        engine = build(store, calls)
        pool = WorkerPool(workers=0)
        engine.attach_workers(pool)
        engine.deploy(service_model())
        instance = engine.start_instance("p", {"n": 3})
        instance_id = instance.id
        command = pool.run_next(complete=False)  # executed, not completed
        assert command.outcome == "success" and calls == [3]
        store.close()  # crash before the completion dispatch

        store2 = DurableKV(store_path)
        engine2 = build(store2, calls)
        assert engine2.recover()["invocations"] == 1
        pool2 = WorkerPool(workers=0)
        engine2.attach_workers(pool2)
        redo = pool2.run_next()
        assert redo.outcome == "success"
        assert calls == [3, 3]  # re-executed: at-least-once
        recovered = engine2.instance(instance_id)
        assert recovered.state is InstanceState.COMPLETED
        assert recovered.variables["out"] == 6
        # exactly-once completion: one terminal state, no double-advance
        assert engine2.workers_status()["svc"]["completed"] == 1
        store2.close()

    def test_crash_mid_completion_commit(self, store_path):
        """Window 3: the completion dispatched inside a batch scope whose
        group commit never flushed — the store still holds the pending
        record, so recovery re-runs the invocation."""
        calls = []
        store = DurableKV(store_path)
        engine = build(store, calls)
        pool = WorkerPool(workers=0)
        engine.attach_workers(pool)
        engine.deploy(service_model())
        instance = engine.start_instance("p", {"n": 5})
        instance_id = instance.id

        scope = engine.batch()
        scope.__enter__()
        command = pool.run_next()
        assert command.outcome == "success"
        # in memory the instance completed; the commit is still deferred
        assert engine.instance(instance_id).state is InstanceState.COMPLETED
        store.close()  # crash with the completion un-flushed

        store2 = DurableKV(store_path)
        engine2 = build(store2, calls)
        counts = engine2.recover()
        # the completion-commit never landed: the record is still pending
        assert counts["invocations"] == 1
        recovered = engine2.instance(instance_id)
        assert recovered.state is InstanceState.RUNNING
        pool2 = WorkerPool(workers=0)
        engine2.attach_workers(pool2)
        redo = pool2.run_next()
        assert redo.outcome == "success"
        assert calls == [5, 5]
        final = engine2.instance(instance_id)
        assert final.state is InstanceState.COMPLETED
        assert final.variables["out"] == 10
        store2.close()

    def test_completion_replay_across_recovery_is_duplicate(self, store_path):
        """A client retrying a completion after the crash replays the
        recorded result instead of re-applying it."""
        calls = []
        store = DurableKV(store_path)
        engine = build(store, calls)
        pool = WorkerPool(workers=0)
        engine.attach_workers(pool)
        engine.deploy(service_model())
        instance = engine.start_instance("p", {"n": 2})
        instance_id = instance.id
        command = pool.run_next()  # completed and committed
        store.close()

        store2 = DurableKV(store_path)
        engine2 = build(store2, calls)
        counts = engine2.recover()
        assert counts["invocations"] == 0  # resolved before the crash
        replay = engine2.dispatch(command)
        # the dedup window recovered from the dispatch log: replayed
        assert replay["status"] == "completed"
        assert calls == [2]  # never re-executed
        assert engine2.instance(instance_id).variables["out"] == 4
        store2.close()

    def test_dead_letter_survives_crash(self, store_path):
        """DLQ contents are durable; a post-crash requeue completes."""
        calls = []
        store = DurableKV(store_path)
        engine = build(store, calls, fail=True)
        pool = WorkerPool(workers=0)
        engine.attach_workers(pool)
        engine.deploy(service_model())
        instance = engine.start_instance("p", {"n": 9})
        instance_id = instance.id
        command = pool.run_next()
        assert command.outcome == "failure"
        assert len(engine.dead_letters()) == 1
        store.close()

        store2 = DurableKV(store_path)
        engine2 = build(store2, calls)  # service healthy after restart
        counts = engine2.recover()
        assert counts["dead_letters"] == 1
        assert counts["invocations"] == 0
        letters = engine2.dead_letters()
        assert letters[0]["id"] == command.invocation_id
        pool2 = WorkerPool(workers=0)
        engine2.attach_workers(pool2)
        engine2.requeue_dead_letter(command.invocation_id)
        redo = pool2.run_next()
        assert redo.outcome == "success"
        final = engine2.instance(instance_id)
        assert final.state is InstanceState.COMPLETED
        assert final.variables["out"] == 18
        assert engine2.dead_letters() == []
        store2.close()
