"""Tests for engine counters and asynchronous service execution."""

import pytest

from repro.engine.instance import InstanceState, TokenState
from repro.model.builder import ProcessBuilder
from repro.model.elements import RetryPolicy


def counter(engine, name):
    return engine.obs.registry.counter(f"engine.{name}").value


class TestMetrics:
    def test_lifecycle_counters(self, engine):
        ok = ProcessBuilder("ok").start().script_task("t", script="x = 1").end().build()
        bad = ProcessBuilder("bad").start().script_task("t", script="x = 1/0").end().build()
        engine.deploy(ok)
        engine.deploy(bad)
        engine.start_instance("ok")
        engine.start_instance("ok")
        engine.start_instance("bad")
        assert counter(engine, "instances_started") == 3
        assert counter(engine, "instances_completed") == 2
        assert counter(engine, "instances_failed") == 1
        assert counter(engine, "instances_terminated") == 0

    def test_node_counters_by_type(self, engine):
        model = (
            ProcessBuilder("mix")
            .start()
            .script_task("a", script="x = 1")
            .user_task("b", role="clerk")
            .end()
            .build()
        )
        engine.deploy(model)
        engine.start_instance("mix")
        executed = engine.obs.registry.counters_with_prefix(
            "engine.nodes_executed."
        )
        # end not reached yet
        assert executed == {"StartEvent": 1, "ScriptTask": 1, "UserTask": 1}

    def test_timer_and_message_counters(self, engine, clock):
        model = (
            ProcessBuilder("tm")
            .start()
            .timer("wait", duration=5)
            .receive_task("msg", message_name="go")
            .end()
            .build()
        )
        engine.deploy(model)
        engine.start_instance("tm")
        engine.advance_time(6)
        assert counter(engine, "timers_fired") == 1
        engine.correlate_message("go")
        assert counter(engine, "messages_delivered") == 1

    def test_migration_counter(self, engine):
        model = ProcessBuilder("m").start().user_task("u", role="clerk").end().build()
        engine.deploy(model)
        instance = engine.start_instance("m")
        engine.deploy(model)
        engine.migrate_instance(instance.id, target_version=2)
        assert counter(engine, "migrations") == 1

    def test_snapshot_is_json_safe(self, engine):
        import json

        model = ProcessBuilder("s").start().script_task("t", script="x = 1").end().build()
        engine.deploy(model)
        engine.start_instance("s")
        snapshot = engine.obs.registry.snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot
        assert snapshot["counters"]["engine.instances_started"] == 1


class TestAsyncServiceTask:
    def make_model(self, **kwargs):
        return (
            ProcessBuilder("async_call")
            .start()
            .service_task(
                "call",
                service="svc",
                output_variable="result",
                async_execution=True,
                **kwargs,
            )
            .script_task("after", script="done = true")
            .end()
            .build()
        )

    def test_token_parks_until_job_pump(self, engine):
        calls = []
        engine.services.register("svc", lambda: calls.append(1) or "ok")
        engine.deploy(self.make_model())
        instance = engine.start_instance("async_call")
        # invocation decoupled: nothing called yet, token waiting
        assert calls == []
        assert instance.state is InstanceState.RUNNING
        token = instance.tokens[0]
        assert token.state is TokenState.WAITING
        assert token.waiting_on["reason"] == "async_service"
        engine.run_due_jobs()
        assert calls == [1]
        assert instance.state is InstanceState.COMPLETED
        assert instance.variables["result"] == "ok"
        assert instance.variables["done"] is True

    def test_async_failure_routes_to_boundary(self, engine):
        def boom():
            raise ConnectionError("down")

        engine.services.register("svc", boom)
        model = (
            ProcessBuilder("async_guarded")
            .start()
            .service_task(
                "call",
                service="svc",
                async_execution=True,
                retry=RetryPolicy(max_attempts=1),
            )
            .end("done")
            .boundary_error("fallback", attached_to="call")
            .script_task("degrade", script="mode = 'degraded'")
            .end("deg")
            .build()
        )
        engine.deploy(model)
        instance = engine.start_instance("async_guarded")
        assert instance.state is InstanceState.RUNNING
        engine.run_due_jobs()
        assert instance.state is InstanceState.COMPLETED
        assert instance.variables["mode"] == "degraded"

    def test_async_job_survives_crash(self, tmp_path):
        from repro.clock import VirtualClock
        from repro.engine.engine import ProcessEngine
        from repro.storage.kvstore import DurableKV

        def build(store):
            engine = ProcessEngine(clock=VirtualClock(0), store=store)
            engine.services.register("svc", lambda: 42)
            return engine

        store = DurableKV(str(tmp_path / "kv"))
        engine = build(store)
        engine.deploy(self.make_model())
        instance_id = engine.start_instance("async_call").id
        store.close()  # crash before the job pump ran

        store2 = DurableKV(str(tmp_path / "kv"))
        engine2 = build(store2)
        counts = engine2.recover()
        assert counts["jobs"] == 1
        engine2.run_due_jobs()
        recovered = engine2.instance(instance_id)
        assert recovered.state is InstanceState.COMPLETED
        assert recovered.variables["result"] == 42
        store2.close()

    def test_roundtrips_preserve_async_flag(self):
        from repro.bpmn import parse_bpmn, to_bpmn_xml
        from repro.model.serialization import definition_from_dict, definition_to_dict

        model = self.make_model()
        assert definition_from_dict(definition_to_dict(model)).node("call").async_execution
        assert parse_bpmn(to_bpmn_xml(model)).node("call").async_execution
