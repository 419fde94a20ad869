"""Engine ↔ observability integration: spans, instruments, and the
engine's counters in the shared registry."""

import pytest

from repro.clock import VirtualClock
from repro.engine.engine import ProcessEngine
from repro.engine.errors import BpmnError
from repro.engine.instance import InstanceState
from repro.history.events import EventTypes
from repro.model.builder import ProcessBuilder
from repro.model.elements import RetryPolicy
from repro.obs import InMemorySpanExporter, Observability
from repro.storage.kvstore import MemoryKV
from repro.worklist.allocation import ShortestQueueAllocator


@pytest.fixture
def exporter():
    return InMemorySpanExporter()


@pytest.fixture
def obs(exporter):
    return Observability(enabled=True, exporters=[exporter])


@pytest.fixture
def engine(obs):
    engine = ProcessEngine(
        clock=VirtualClock(1000.0), obs=obs, allocator=ShortestQueueAllocator()
    )
    engine.organization.add("ana", roles=["clerk"])
    return engine


def order_model():
    """The order-fulfillment shape: services, retry, boundary error,
    parallel preparation."""
    return (
        ProcessBuilder("order")
        .start()
        .service_task(
            "reserve",
            service="reserve_stock",
            inputs={"sku": "sku", "quantity": "quantity"},
            output_variable="reservation",
        )
        .service_task(
            "charge",
            service="charge_card",
            inputs={"amount": "quantity * unit_price"},
            output_variable="payment",
            retry=RetryPolicy(max_attempts=5, initial_backoff=0.01),
        )
        .parallel_gateway("prep")
        .branch()
        .service_task(
            "label", service="print_label", inputs={"sku": "sku"},
            output_variable="label",
        )
        .parallel_gateway("ready")
        .branch_from("prep")
        .script_task("notify", script="notified = true")
        .connect_to("ready")
        .move_to("ready")
        .script_task("close", script="status = 'shipped'")
        .end("done")
        .boundary_error("no_stock", attached_to="reserve", error_code="OUT_OF_STOCK")
        .script_task("backorder", script="status = 'backordered'")
        .end("backordered")
        .build()
    )


def wire_order_services(engine, stock=5):
    inventory = {"widget": stock}

    def reserve_stock(sku, quantity):
        if inventory.get(sku, 0) < quantity:
            raise BpmnError("OUT_OF_STOCK", sku)
        inventory[sku] -= quantity
        return {"sku": sku, "reserved": quantity}

    engine.services.register("reserve_stock", reserve_stock)
    engine.services.register("charge_card", lambda amount: {"charged": amount})
    engine.services.register("print_label", lambda sku: f"LABEL::{sku}")


class TestSpanTree:
    def test_one_span_per_executed_node(self, engine, exporter):
        """Acceptance: entered node spans match NODE_ENTERED events 1:1."""
        wire_order_services(engine)
        engine.deploy(order_model())
        instance = engine.start_instance(
            "order", {"sku": "widget", "quantity": 2, "unit_price": 19.5}
        )
        assert instance.state is InstanceState.COMPLETED

        executed = sorted(
            e.data["node_id"]
            for e in engine.history.instance_events(instance.id)
            if e.type == EventTypes.NODE_ENTERED
        )
        spanned = sorted(
            s.attributes["node_id"]
            for s in exporter.by_name("node")
            if s.attributes.get("entered")
        )
        assert spanned == executed
        # the parallel join is visited (wait, then merge) more often than
        # it is entered — total node spans may exceed entered ones
        assert len(exporter.by_name("node")) >= len(spanned)

    def test_boundary_error_path_is_traced(self, engine, exporter):
        wire_order_services(engine, stock=0)
        engine.deploy(order_model())
        instance = engine.start_instance(
            "order", {"sku": "widget", "quantity": 2, "unit_price": 19.5}
        )
        assert instance.variables["status"] == "backordered"
        entered = [
            s.attributes["node_id"]
            for s in exporter.by_name("node")
            if s.attributes.get("entered")
        ]
        assert "backorder" in entered
        assert "charge" not in entered

    def test_span_hierarchy(self, engine, exporter):
        wire_order_services(engine)
        engine.deploy(order_model())
        engine.start_instance(
            "order", {"sku": "widget", "quantity": 1, "unit_price": 5.0}
        )
        (instance_span,) = exporter.by_name("instance")
        assert instance_span.status == "ok"
        assert instance_span.attributes["state"] == "completed"
        # instance hangs off the engine root span (still open, not exported)
        assert instance_span.parent_id is not None
        for node_span in exporter.by_name("node"):
            assert node_span.parent_id == instance_span.span_id
        for call_span in exporter.by_name("service.call"):
            parent = next(
                s for s in exporter.spans if s.span_id == call_span.parent_id
            )
            assert parent.name == "node"

    def test_failed_instance_span_status(self, engine, exporter):
        engine.services.register("explode", lambda: 1 / 0)
        model = (
            ProcessBuilder("boom").start()
            .service_task("call", service="explode",
                          retry=RetryPolicy(max_attempts=1))
            .end().build()
        )
        engine.deploy(model)
        instance = engine.start_instance("boom")
        assert instance.state is InstanceState.FAILED
        (instance_span,) = exporter.by_name("instance")
        assert instance_span.status == "error"
        assert instance_span.attributes["state"] == "failed"

    def test_instance_spans_carry_virtual_time(self, engine, exporter):
        model = (
            ProcessBuilder("timed").start()
            .timer("pause", duration=60)
            .end().build()
        )
        engine.deploy(model)
        engine.start_instance("timed")
        engine.advance_time(61)
        (instance_span,) = exporter.by_name("instance")
        assert instance_span.duration == pytest.approx(61)

    def test_disabled_obs_produces_no_spans(self):
        probe = InMemorySpanExporter()
        engine = ProcessEngine(
            clock=VirtualClock(0),
            obs=Observability(enabled=False, exporters=[probe]),
        )
        engine.deploy(
            ProcessBuilder("p").start().script_task("t", script="x = 1")
            .end().build()
        )
        engine.start_instance("p")
        assert len(probe) == 0
        assert list(engine.obs.tracer.open_spans()) == []


class TestServiceInstrumentation:
    def test_invoke_latency_histogram_counts_attempts(self, engine):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise ConnectionError("transient")
            return "ok"

        engine.services.register("flaky", flaky)
        result = engine.invoker.invoke(
            "flaky", retry=RetryPolicy(max_attempts=5, initial_backoff=0.001)
        )
        assert result.succeeded
        histogram = engine.obs.registry.histogram("services.invoke_seconds")
        assert histogram.count == 3  # one observation per attempt

    def test_service_call_span_attributes(self, engine, exporter):
        engine.services.register("always_down", lambda: 1 / 0)
        result = engine.invoker.invoke(
            "always_down", retry=RetryPolicy(max_attempts=2, initial_backoff=0.001)
        )
        assert not result.succeeded
        (span,) = exporter.by_name("service.call")
        assert span.status == "error"
        assert span.attributes["service"] == "always_down"
        assert span.attributes["attempts"] == 2
        assert span.attributes["succeeded"] is False

    def test_breaker_transitions_emit_events_and_counters(self, engine, exporter):
        healthy = False

        def down():
            if not healthy:
                raise ConnectionError("down")
            return "up again"

        engine.services.register("down", down)
        engine.invoker.breaker_failure_threshold = 2
        for _ in range(2):
            engine.invoker.invoke("down", retry=RetryPolicy(max_attempts=1))
        registry = engine.obs.registry
        assert registry.counter("services.breaker.transitions").value == 1
        assert registry.counter("services.breaker.to_open").value == 1
        (event,) = exporter.by_name("breaker.transition")
        assert event.attributes == {
            "service": "down", "from_state": "closed", "to_state": "open",
        }
        # recovery: timeout → half-open → success → closed
        engine.clock.advance(31)
        healthy = True
        assert engine.invoker.invoke("down").succeeded
        assert registry.counter("services.breaker.transitions").value == 3
        assert registry.counter("services.breaker.to_closed").value == 1
        states = [
            s.attributes["to_state"] for s in exporter.by_name("breaker.transition")
        ]
        assert states == ["open", "half_open", "closed"]


class TestWorklistInstrumentation:
    def make_user_task_model(self):
        return (
            ProcessBuilder("approval").start()
            .user_task("review", role="clerk")
            .end().build()
        )

    def test_open_items_gauge_tracks_lifecycle(self, engine):
        engine.deploy(self.make_user_task_model())
        gauge = engine.obs.registry.gauge("worklist.open_items")
        assert gauge.value == 0
        engine.start_instance("approval")
        assert gauge.value == 1
        engine.start_instance("approval")
        assert gauge.value == 2
        item = engine.worklist.items()[0]
        engine.worklist.start(item.id)
        engine.complete_work_item(item.id, {})
        assert gauge.value == 1
        engine.worklist.cancel_for_instance(
            engine.worklist.items()[1].instance_id
        )
        assert gauge.value == 0

    def test_open_items_gauge_is_restored_by_recovery(self):
        store = MemoryKV()

        def build():
            fresh = ProcessEngine(
                clock=VirtualClock(1000.0),
                store=store,
                obs=Observability(),
                allocator=ShortestQueueAllocator(),
            )
            fresh.organization.add("ana", roles=["clerk"])
            return fresh

        def finish_one(target):
            item = next(
                i for i in target.worklist.items() if not i.state.is_terminal
            )
            target.worklist.start(item.id)
            target.complete_work_item(item.id, {})

        first = build()
        first.deploy(self.make_user_task_model())
        for _ in range(3):
            first.start_instance("approval")
        finish_one(first)
        assert first.obs.registry.gauge("worklist.open_items").value == 2

        recovered = build()  # a restart: new process, new registry, same store
        recovered.recover()
        gauge = recovered.obs.registry.gauge("worklist.open_items")
        assert gauge.value == recovered.worklist.open_count == 2
        finish_one(recovered)
        assert gauge.value == 1

    def test_route_latency_histogram(self, engine):
        engine.deploy(self.make_user_task_model())
        engine.start_instance("approval")
        assert engine.obs.registry.histogram("worklist.route_seconds").count == 1


class TestEngineGauges:
    def test_queue_depth_gauge_and_token_moves(self, engine):
        model = (
            ProcessBuilder("timed").start()
            .timer("pause", duration=30)
            .end().build()
        )
        engine.deploy(model)
        engine.start_instance("timed")
        engine.advance_time(31)
        registry = engine.obs.registry
        assert registry.gauge("engine.scheduler.queue_depth").value == 0
        assert registry.counter("engine.token_moves").value > 0
        assert registry.counter("engine.timers_fired").value == 1


class TestLegacyCounterNames:
    def test_snapshot_keeps_legacy_keys(self, engine):
        counters = engine.obs.registry.snapshot()["counters"]
        # created with the engine, before anything ran
        assert {
            "engine.instances_started", "engine.instances_completed",
            "engine.instances_failed", "engine.instances_terminated",
            "engine.timers_fired", "engine.messages_delivered",
            "engine.migrations",
        } <= set(counters)
        engine.deploy(
            ProcessBuilder("p").start().script_task("t", script="x = 1")
            .end().build()
        )
        engine.start_instance("p")
        counters = engine.obs.registry.snapshot()["counters"]
        assert counters["engine.instances_started"] == 1
        assert counters["engine.instances_completed"] == 1
        assert counters["engine.nodes_executed.ScriptTask"] == 1


class TestMessageDeliveryCounters:
    """Regressions for the `messages_delivered` drift found in the audit:
    retained messages consumed on arrival at a receive task, and retained
    messages winning an event-based gateway race, were not counted."""

    def receive_model(self):
        return (
            ProcessBuilder("rx").start()
            .receive_task("wait", message_name="confirmation",
                          correlation_expression="'ord-9'")
            .end().build()
        )

    def race_model(self):
        return (
            ProcessBuilder("race").start()
            .event_gateway("wait_for")
            .branch()
            .message_catch("on_reply", message_name="reply")
            .script_task("handle_reply", script="outcome = 'reply'")
            .exclusive_gateway("join")
            .branch_from("wait_for")
            .timer("on_timeout", duration=120)
            .script_task("handle_timeout", script="outcome = 'timeout'")
            .connect_to("join")
            .move_to("join")
            .end().build()
        )

    def test_live_correlation_counts(self, engine):
        engine.deploy(self.receive_model())
        instance = engine.start_instance("rx")
        engine.correlate_message("confirmation", "ord-9", {"ok": True})
        assert instance.state is InstanceState.COMPLETED
        assert engine.obs.registry.counter("engine.messages_delivered").value == 1

    def test_retained_message_consumed_on_arrival_counts(self, engine):
        engine.deploy(self.receive_model())
        engine.correlate_message("confirmation", "ord-9", {"ok": True})
        assert engine.bus.retained_count == 1
        instance = engine.start_instance("rx")
        assert instance.state is InstanceState.COMPLETED
        assert engine.obs.registry.counter("engine.messages_delivered").value == 1

    def test_retained_message_wins_race_counts(self, engine):
        engine.deploy(self.race_model())
        engine.correlate_message("reply", payload={"n": 1})
        instance = engine.start_instance("race")
        assert instance.state is InstanceState.COMPLETED
        assert instance.variables["outcome"] == "reply"
        assert engine.obs.registry.counter("engine.messages_delivered").value == 1
