"""Unit tests for the enqueue/execute/complete cycle (manual pool).

``WorkerPool(workers=0)`` runs entries on the calling thread via
``run_next``, so each test pins the exact interleaving it cares about:
no timing, no races — those live in test_pool_stress.py.
"""

import pytest

from repro.clock import VirtualClock
from repro.engine.engine import ProcessEngine
from repro.engine.errors import BpmnError, EngineError
from repro.engine.instance import InstanceState
from repro.history.events import EventTypes
from repro.model.builder import ProcessBuilder
from repro.model.elements import RetryPolicy
from repro.workers import WorkerPool


def service_model(key="p", retry=None, boundary_error_code=None):
    builder = (
        ProcessBuilder(key)
        .start()
        .service_task(
            "call",
            service="svc",
            inputs={"n": "n"},
            output_variable="out",
            retry=retry or RetryPolicy(max_attempts=1, initial_backoff=0.0),
        )
        .end("done")
    )
    if boundary_error_code is not None:
        builder = (
            builder.boundary_error(
                "caught", attached_to="call", error_code=boundary_error_code
            )
            .script_task("fallback", script="out = 'handled'")
            .end("error_end")
        )
    return builder.build()


def pooled_engine(workers=0, **pool_kwargs):
    engine = ProcessEngine(clock=VirtualClock(1000.0), commit_interval=1)
    pool = WorkerPool(workers=workers, **pool_kwargs)
    engine.attach_workers(pool)
    return engine, pool


class TestEnqueue:
    def test_enqueue_parks_token_and_records_invocation(self):
        engine, pool = pooled_engine()
        engine.services.register("svc", lambda n: n * 2)
        engine.deploy(service_model())
        instance = engine.start_instance("p", {"n": 3})
        assert instance.state is InstanceState.RUNNING
        token = instance.tokens[0]
        assert token.waiting_on["reason"] == "service"
        invocation_id = token.waiting_on["invocation_id"]
        assert engine.workers_status()["svc"] == {
            "enqueued": 1,
            "completed": 0,
            "pending": 1,
            "dead_lettered": 0,
        }
        events = [e.type for e in engine.history.instance_events(instance.id)]
        assert EventTypes.SERVICE_ENQUEUED in events
        # the record snapshots arguments evaluated at enqueue time
        record = engine.ledger.get(invocation_id)
        assert record.arguments == {"n": 3}
        assert record.service == "svc"

    def test_run_next_completes_instance(self):
        engine, pool = pooled_engine()
        engine.services.register("svc", lambda n: n * 2)
        engine.deploy(service_model())
        instance = engine.start_instance("p", {"n": 21})
        command = pool.run_next()
        assert command.outcome == "success"
        instance = engine.instance(instance.id)
        assert instance.state is InstanceState.COMPLETED
        assert instance.variables["out"] == 42
        assert engine.workers_status()["svc"]["pending"] == 0

    def test_input_expression_error_routes_technical_failure(self):
        engine, pool = pooled_engine()
        engine.services.register("svc", lambda n: n)
        model = (
            ProcessBuilder("p")
            .start()
            .service_task("call", service="svc", inputs={"n": "missing_var"})
            .end("done")
            .build()
        )
        engine.deploy(model)
        instance = engine.start_instance("p", {})
        # bad inputs never reach the pool: the inline error path fires
        assert instance.state is InstanceState.FAILED
        assert pool.run_next() is None

    def test_no_pool_means_inline_execution(self, engine):
        engine.services.register("svc", lambda n: n * 2)
        engine.deploy(service_model())
        instance = engine.start_instance("p", {"n": 5})
        assert instance.state is InstanceState.COMPLETED
        assert instance.variables["out"] == 10


class TestCompletionIdempotency:
    def test_duplicate_completion_is_noop(self):
        engine, pool = pooled_engine()
        engine.services.register("svc", lambda n: n * 2)
        engine.deploy(service_model())
        instance = engine.start_instance("p", {"n": 1})
        command = pool.run_next()
        # a client duplicate without the dedup key: the pending-table
        # check absorbs it
        bare = command.__class__(
            invocation_id=command.invocation_id,
            outcome="success",
            value=999,
        )
        result = engine.dispatch(bare)
        assert result["status"] == "duplicate"
        instance = engine.instance(instance.id)
        assert instance.variables["out"] == 2  # first completion won
        assert engine.obs.registry.counter("workers.duplicate_completions").value == 1

    def test_dedup_keyed_duplicate_replays_recorded_result(self):
        engine, pool = pooled_engine()
        engine.services.register("svc", lambda n: n * 2)
        engine.deploy(service_model())
        engine.start_instance("p", {"n": 1})
        command = pool.run_next()
        replay = engine.dispatch(command)
        assert replay["status"] == "completed"  # recorded result, not re-run


class TestDeadLetterQueue:
    def build_failing(self, max_attempts=2):
        engine, pool = pooled_engine()
        calls = []

        def svc(n):
            calls.append(n)
            raise RuntimeError("boom")

        engine.services.register("svc", svc)
        engine.deploy(
            service_model(
                retry=RetryPolicy(max_attempts=max_attempts, initial_backoff=0.0)
            )
        )
        return engine, pool, calls

    def test_exhausted_retries_dead_letter_with_token_parked(self):
        engine, pool, calls = self.build_failing()
        instance = engine.start_instance("p", {"n": 1})
        command = pool.run_next()
        assert command.outcome == "failure"
        assert len(calls) == 2  # retried per policy before giving up
        letters = engine.dead_letters()
        assert len(letters) == 1
        assert letters[0]["error"] == "RuntimeError: boom"
        assert letters[0]["attempts"] == 2
        instance = engine.instance(instance.id)
        assert instance.state is InstanceState.RUNNING
        # token stays parked: an operator requeue can still rescue it
        assert instance.tokens[0].waiting_on["reason"] == "service"
        assert engine.workers_status()["svc"]["dead_lettered"] == 1
        events = [e.type for e in engine.history.instance_events(instance.id)]
        assert EventTypes.SERVICE_DEAD_LETTERED in events

    def test_requeue_then_success_completes(self):
        engine, pool, calls = self.build_failing()
        instance = engine.start_instance("p", {"n": 1})
        command = pool.run_next()
        result = engine.requeue_dead_letter(command.invocation_id)
        assert result == {
            "invocation_id": command.invocation_id,
            "status": "requeued",
            "requeues": 1,
        }
        # service recovers; re-register under the hood
        engine.services._services["svc"] = lambda n: n + 100
        redo = pool.run_next()
        assert redo.outcome == "success"
        # the requeued execution's dedup key differs from the original's,
        # so its completion is NOT a replay of the dead-lettering failure
        assert redo.dedup_key != command.dedup_key
        instance = engine.instance(instance.id)
        assert instance.state is InstanceState.COMPLETED
        assert instance.variables["out"] == 101
        assert engine.dead_letters() == []
        status = engine.workers_status()["svc"]
        assert status == {
            "enqueued": 1,
            "completed": 1,
            "pending": 0,
            "dead_lettered": 0,
        }

    def test_requeue_unknown_id_raises(self):
        engine, pool, _ = self.build_failing()
        with pytest.raises(EngineError):
            engine.requeue_dead_letter("inv-404")


class TestBpmnErrorRouting:
    def test_pool_bpmn_error_routes_to_boundary(self):
        engine, pool = pooled_engine()

        def svc(n):
            raise BpmnError("NO_FUNDS", "declined")

        engine.services.register("svc", svc)
        engine.deploy(service_model(boundary_error_code="NO_FUNDS"))
        instance = engine.start_instance("p", {"n": 1})
        command = pool.run_next()
        assert command.outcome == "bpmn_error"
        assert command.error_code == "NO_FUNDS"
        instance = engine.instance(instance.id)
        assert instance.state is InstanceState.COMPLETED
        assert instance.variables["out"] == "handled"
        # business errors are completions, not dead letters
        assert engine.dead_letters() == []
        assert engine.workers_status()["svc"]["completed"] == 1


class TestAdmissionControl:
    def test_full_queue_falls_back_to_inline(self):
        engine, pool = pooled_engine(queue_capacity=1)
        engine.services.register("svc", lambda n: n * 2)
        engine.deploy(service_model())
        first = engine.start_instance("p", {"n": 1})
        assert first.state is InstanceState.RUNNING  # queued
        # queue is at capacity: the second start runs inline to completion
        second = engine.start_instance("p", {"n": 2})
        assert second.state is InstanceState.COMPLETED
        assert second.variables["out"] == 4
        assert engine.obs.registry.counter("workers.throttled").value == 1
        pool.drain()
        assert engine.instance(first.id).state is InstanceState.COMPLETED


class TestCancellation:
    def test_boundary_timer_cancels_pending_invocation(self):
        engine, pool = pooled_engine()
        engine.services.register("svc", lambda n: n * 2)
        model = (
            ProcessBuilder("p")
            .start()
            .service_task("call", service="svc", inputs={"n": "n"})
            .end("done")
            .boundary_timer("deadline", attached_to="call", duration=5.0)
            .script_task("escalate", script="out = 'timed_out'")
            .end("late_end")
            .build()
        )
        engine.deploy(model)
        instance = engine.start_instance("p", {"n": 1})
        command = pool.run_next(complete=False)  # executed, not completed
        engine.advance_time(10.0)  # boundary fires, token routes away
        instance = engine.instance(instance.id)
        assert instance.variables["out"] == "timed_out"
        # the late completion is a counted duplicate, not a corruption
        result = engine.dispatch(command)
        assert result["status"] in ("duplicate", "completed")
        assert engine.instance(instance.id).variables["out"] == "timed_out"
        status = engine.workers_status()["svc"]
        assert status["pending"] == 0
        assert status["enqueued"] == status["completed"]

    def test_terminate_drops_pending_invocation(self):
        engine, pool = pooled_engine()
        engine.services.register("svc", lambda n: n * 2)
        engine.deploy(service_model())
        instance = engine.start_instance("p", {"n": 1})
        engine.terminate_instance(instance.id)
        assert engine.workers_status()["svc"]["pending"] == 0
        assert engine.obs.registry.counter("workers.cancelled").value == 1
        # the entry is still queued; its execution completes as duplicate
        command = pool.run_next(complete=False)
        result = engine.dispatch(command)
        assert result["status"] == "duplicate"


class TestAttachment:
    def test_second_pool_attachment_rejected(self):
        engine, pool = pooled_engine()
        with pytest.raises(EngineError):
            engine.attach_workers(WorkerPool(workers=0))

    def test_reattaching_same_pool_is_noop(self):
        engine, pool = pooled_engine()
        engine.attach_workers(pool)
