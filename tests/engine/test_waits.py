"""One way into and out of a wait.

A token parks through ``execution.park``, which also schedules the node's
timed continuations (timer boundaries, a user task's deadline); it leaves
through ``finish``/``fail`` or, interrupted, through ``release_waits``,
which cancel them.  These tests pin what that buys: every activity gets
its boundary timers, every interrupt withdraws the job a wait names, a
deadline is one job of its wait, and a case whose wait or version
changes reaches the store, running or not.
"""

import pytest

from repro.clock import VirtualClock
from repro.engine.engine import ProcessEngine
from repro.engine.instance import InstanceState
from repro.model.builder import ProcessBuilder
from repro.storage.kvstore import DurableKV
from repro.worklist.allocation import ShortestQueueAllocator
from repro.worklist.items import WorkItemState


@pytest.fixture
def durable(tmp_path):
    """Builds engines over one ``DurableKV`` directory; closes them all."""
    stores = []

    def build():
        stores.append(DurableKV(str(tmp_path / "store")))
        engine = ProcessEngine(
            clock=VirtualClock(start=1000.0),
            store=stores[-1],
            allocator=ShortestQueueAllocator(),
        )
        engine.organization.add("ana", roles=["clerk"])
        engine.services.register("noop", lambda: None)
        return engine

    yield build
    for store in stores:
        store.close()


def reopened(engine, durable):
    engine.store.close()
    fresh = durable()
    fresh.recover()
    return fresh


def do_item(engine, item_id):
    engine.start_work_item(item_id)
    engine.complete_work_item(item_id)


def stored_jobs(engine):
    engine.flush()
    return [key for key, _ in engine.store.scan("jobs/")]


def receive_model():
    return (
        ProcessBuilder("rx")
        .start()
        .receive_task("rx", message_name="go", correlation_expression="key")
        .script_task("answered", script="path = 'message'")
        .end("done")
        .boundary_timer("too_late", attached_to="rx", duration=10)
        .script_task("timed_out", script="path = 'timeout'")
        .end("late")
        .build()
    )


class TestReceiveTaskBoundary:
    def test_timer_boundary_interrupts_a_receive_task(self, durable):
        engine = durable()
        engine.deploy(receive_model())
        instance = engine.start_instance("rx", {"key": "k1"})
        assert [job.kind for job in engine.scheduler.pending()] == ["boundary_timer"]
        engine.advance_time(20)
        assert instance.state is InstanceState.COMPLETED
        assert instance.variables["path"] == "timeout"
        assert len(engine.waits) == 0
        assert engine.scheduler.pending() == []
        assert stored_jobs(engine) == []

    def test_message_first_cancels_the_boundary_job(self, durable):
        engine = durable()
        engine.deploy(receive_model())
        instance = engine.start_instance("rx", {"key": "k1"})
        assert [job.kind for job in engine.scheduler.pending()] == ["boundary_timer"]
        engine.correlate_message("go", "k1")
        assert instance.state is InstanceState.COMPLETED
        assert instance.variables["path"] == "message"
        assert engine.scheduler.pending() == []
        assert stored_jobs(engine) == []


def async_model():
    return (
        ProcessBuilder("job")
        .start()
        .service_task("call", service="noop", async_execution=True)
        .end()
        .build()
    )


class TestAsyncServiceRelease:
    def test_terminate_cancels_the_async_service_job(self, durable):
        engine = durable()
        engine.deploy(async_model())
        instance = engine.start_instance("job")
        assert instance.tokens[0].waiting_on["reason"] == "async_service"
        engine.terminate_instance(instance.id)
        assert engine.scheduler.pending() == []
        assert stored_jobs(engine) == []

    def test_a_parent_boundary_cancels_a_suspended_childs_async_job(self, durable):
        # the child's async job comes due while the child is suspended, so
        # the pump defers it; the parent's boundary then terminates the
        # child in the same pump, which must leave nothing deferred
        engine = durable()
        engine.deploy(async_model())
        engine.deploy(
            ProcessBuilder("parent")
            .start()
            .call_activity("sub", process_key="job")
            .end("done")
            .boundary_timer("too_slow", attached_to="sub", duration=10)
            .end("late")
            .build()
        )
        parent = engine.start_instance("parent")
        child_id = parent.tokens[0].waiting_on["child_id"]
        engine.suspend_instance(child_id)
        engine.advance_time(20)
        assert parent.state is InstanceState.COMPLETED
        assert engine.instance(child_id).state is InstanceState.TERMINATED
        assert engine.scheduler.pending() == []
        assert stored_jobs(engine) == []


def due_model(due_seconds=60):
    return (
        ProcessBuilder("due")
        .start()
        .user_task("urgent", role="clerk", due_seconds=due_seconds)
        .end()
        .build()
    )


class TestDeadlineJobs:
    def test_the_deadline_is_a_job_of_the_wait(self, durable):
        engine = durable()
        engine.deploy(due_model())
        engine.start_instance("due")
        item = engine.worklist.items()[0]
        (job,) = engine.scheduler.pending()
        assert (job.kind, job.due) == ("deadline", item.due_at)
        do_item(engine, item.id)
        assert engine.scheduler.pending() == []
        assert stored_jobs(engine) == []

    def test_the_deadline_fires_at_its_due_time(self, engine, clock):
        # a job fires at due <= now; the old open-item scan needed now > due
        engine.deploy(due_model())
        engine.start_instance("due")
        item = engine.worklist.items()[0]
        engine.advance_time(60)
        assert item.escalations == 1
        assert item.state is WorkItemState.OFFERED
        assert engine.scheduler.pending() == []

    def test_one_escalation_per_deadline(self, engine, clock):
        engine.deploy(due_model())
        engine.start_instance("due")
        item = engine.worklist.items()[0]
        engine.advance_time(61)
        engine.advance_time(1000)
        assert item.escalations == 1
        assert item.priority == 1

    def test_a_suspended_case_escalates_after_resume(self, engine, clock):
        engine.deploy(due_model())
        instance = engine.start_instance("due")
        item = engine.worklist.items()[0]
        engine.suspend_instance(instance.id)
        engine.advance_time(120)
        assert item.escalations == 0
        engine.resume_instance(instance.id)
        engine.run_due_jobs()
        assert item.escalations == 1

    def test_terminate_cancels_the_deadline_job(self, engine):
        engine.deploy(due_model())
        instance = engine.start_instance("due")
        engine.terminate_instance(instance.id)
        assert engine.worklist.items()[0].state is WorkItemState.CANCELLED
        assert engine.scheduler.pending() == []

    def test_a_recovered_deadline_still_fires(self, durable):
        engine = durable()
        engine.deploy(due_model())
        engine.start_instance("due")
        item_id = engine.worklist.items()[0].id
        engine = reopened(engine, durable)
        engine.advance_time(60)
        assert engine.worklist.item(item_id).escalations == 1


def child_model():
    return ProcessBuilder("child").start().user_task("t", role="clerk").end().build()


class TestChangedCasesReachTheStore:
    def test_a_partly_finished_multi_instance_wait_is_stored(self, durable):
        engine = durable()
        engine.deploy(child_model())
        engine.deploy(
            ProcessBuilder("fan")
            .start()
            .multi_instance("mi", process_key="child", cardinality="2")
            .end()
            .build()
        )
        parent_id = engine.start_instance("fan").id
        first, second = (item.id for item in engine.worklist.items())
        do_item(engine, first)
        engine = reopened(engine, durable)
        assert engine.instance(parent_id).tokens[0].waiting_on["remaining"] == 1
        do_item(engine, second)
        assert engine.instance(parent_id).state is InstanceState.COMPLETED

    def test_a_call_activity_returning_to_a_suspended_parent_is_stored(self, durable):
        engine = durable()
        engine.deploy(child_model())
        engine.deploy(
            ProcessBuilder("caller")
            .start()
            .call_activity("sub", process_key="child")
            .user_task("after", role="clerk")
            .end()
            .build()
        )
        parent_id = engine.start_instance("caller").id
        engine.suspend_instance(parent_id)
        do_item(engine, engine.worklist.items()[0].id)
        engine = reopened(engine, durable)
        (token,) = engine.instance(parent_id).tokens
        assert token.node_id == "after"
        engine.resume_instance(parent_id)
        assert [i.node_id for i in engine.worklist.items()] == ["t", "after"]

    def test_migrating_a_suspended_case_is_stored(self, durable):
        engine = durable()
        engine.deploy(child_model())
        instance_id = engine.start_instance("child").id
        engine.deploy(child_model())
        engine.suspend_instance(instance_id)
        engine.migrate_instance(instance_id, 2)
        engine = reopened(engine, durable)
        assert engine.instance(instance_id).definition_id == "child:2"
