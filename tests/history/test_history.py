"""Tests for the history service and event-log conversion."""

from repro.clock import VirtualClock
from repro.history.audit import HistoryService
from repro.history.events import EventTypes
from repro.history.log import EventLog, LogEvent, Trace, to_event_log


def make_history():
    clock = VirtualClock(100)
    return HistoryService(clock=clock), clock


class TestHistoryService:
    def test_record_stamps_clock_time(self):
        history, clock = make_history()
        history.record("inst-1", EventTypes.INSTANCE_STARTED)
        clock.advance(5)
        sequence = history.record("inst-1", "x")
        stamps = [e.timestamp for e in history.instance_events("inst-1")]
        assert stamps == [100, 105]
        assert history.store.since(sequence)[0].timestamp == 105

    def test_instance_events_and_listing(self):
        history, _ = make_history()
        history.record("a", EventTypes.INSTANCE_STARTED)
        history.record("b", EventTypes.INSTANCE_STARTED)
        history.record(HistoryService.ENGINE_STREAM, EventTypes.DEFINITION_DEPLOYED)
        assert history.instances() == ["a", "b"]
        assert len(history.instance_events("a")) == 1

    def test_instance_duration(self):
        history, clock = make_history()
        history.record("a", EventTypes.INSTANCE_STARTED)
        clock.advance(42)
        history.record("a", EventTypes.INSTANCE_COMPLETED)
        assert history.instance_duration("a") == 42
        assert history.instance_duration("unknown") is None

    def test_duration_counts_failures_too(self):
        history, clock = make_history()
        history.record("a", EventTypes.INSTANCE_STARTED)
        clock.advance(7)
        history.record("a", EventTypes.INSTANCE_FAILED)
        assert history.instance_duration("a") == 7

    def test_node_durations_fifo_pairing(self):
        history, clock = make_history()
        history.record("a", EventTypes.NODE_ENTERED, node_id="work")
        clock.advance(10)
        history.record("a", EventTypes.NODE_COMPLETED, node_id="work")
        clock.advance(1)
        history.record("a", EventTypes.NODE_ENTERED, node_id="work")
        clock.advance(20)
        history.record("a", EventTypes.NODE_COMPLETED, node_id="work")
        assert history.node_durations("a")["work"] == [10, 20]

    def test_completed_instances(self):
        history, _ = make_history()
        history.record("a", EventTypes.INSTANCE_COMPLETED)
        history.record("b", EventTypes.INSTANCE_FAILED)
        assert history.completed_instances() == ["a"]


class TestEventLog:
    def test_from_sequences(self):
        log = EventLog.from_sequences([["a", "b"], ["a", "c"]])
        assert len(log) == 2
        assert log.activities == {"a", "b", "c"}
        assert log.start_activities() == {"a"}
        assert log.end_activities() == {"b", "c"}

    def test_variants_counting(self):
        log = EventLog.from_sequences([["a", "b"], ["a", "b"], ["a", "c"]])
        variants = log.variants()
        assert variants[("a", "b")] == 2
        assert variants[("a", "c")] == 1

    def test_trace_duration(self):
        trace = Trace(
            "c1",
            [LogEvent("a", timestamp=10.0), LogEvent("b", timestamp=25.0)],
        )
        assert trace.duration == 15.0
        assert Trace("c2", [LogEvent("a")]).duration == 0.0

    def test_json_roundtrip(self):
        log = EventLog.from_sequences([["a", "b"]], name="demo")
        log.traces[0].events[0] = LogEvent(
            "a", timestamp=1.0, resource="ana", attributes={"k": 1}
        )
        restored = EventLog.from_json(log.to_json())
        assert restored.name == "demo"
        assert restored.traces[0].events[0].resource == "ana"
        assert restored.traces[0].events[0].attributes == {"k": 1}
        assert restored.traces[0].activities == ("a", "b")

    def test_to_event_log_filters_routing_nodes(self):
        history, clock = make_history()
        history.record("inst-1", EventTypes.INSTANCE_STARTED)
        history.record(
            "inst-1", EventTypes.NODE_COMPLETED, node_id="start", is_activity=False
        )
        history.record(
            "inst-1", EventTypes.NODE_COMPLETED, node_id="approve",
            is_activity=True, resource="ana",
        )
        clock.advance(1)
        history.record(
            "inst-1", EventTypes.NODE_COMPLETED, node_id="ship", is_activity=True
        )
        log = to_event_log(history)
        assert len(log) == 1
        assert log.traces[0].activities == ("approve", "ship")
        assert log.traces[0].events[0].resource == "ana"

    def test_to_event_log_from_engine_run(self):
        from repro.engine.engine import ProcessEngine
        from repro.model.builder import ProcessBuilder

        engine = ProcessEngine(clock=VirtualClock(0))
        model = (
            ProcessBuilder("p")
            .start()
            .script_task("one", script="x = 1")
            .script_task("two", script="y = 2")
            .end()
            .build()
        )
        engine.deploy(model)
        engine.start_instance("p")
        engine.start_instance("p")
        log = to_event_log(engine.history)
        assert len(log) == 2
        assert all(t.activities == ("one", "two") for t in log.traces)
