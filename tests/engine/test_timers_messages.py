"""Engine tests: timer events, message correlation, event-based gateways."""

import pytest

from repro.engine.errors import EngineError
from repro.engine.instance import InstanceState, TokenState
from repro.model.builder import ProcessBuilder


class TestTimers:
    def make_model(self, duration=60):
        return (
            ProcessBuilder("timed")
            .start()
            .script_task("before", script="a = 1")
            .timer("cool_down", duration=duration)
            .script_task("after", script="b = 2")
            .end()
            .build()
        )

    def test_token_waits_on_timer(self, engine):
        engine.deploy(self.make_model())
        instance = engine.start_instance("timed")
        assert instance.state is InstanceState.RUNNING
        assert instance.variables == {"a": 1}
        token = instance.tokens[0]
        assert token.waiting_on["reason"] == "timer"
        assert len(engine.scheduler) == 1

    def test_timer_fires_after_duration(self, engine, clock):
        engine.deploy(self.make_model(duration=60))
        instance = engine.start_instance("timed")
        clock.advance(59)
        assert engine.run_due_jobs() == 0
        assert instance.state is InstanceState.RUNNING
        clock.advance(1)
        assert engine.run_due_jobs() == 1
        assert instance.state is InstanceState.COMPLETED
        assert instance.variables == {"a": 1, "b": 2}

    def test_advance_time_shorthand(self, engine):
        engine.deploy(self.make_model(duration=60))
        instance = engine.start_instance("timed")
        engine.advance_time(61)
        assert instance.state is InstanceState.COMPLETED

    def test_advance_time_requires_virtual_clock(self):
        from repro.engine.engine import ProcessEngine

        engine = ProcessEngine()  # wall clock
        with pytest.raises(EngineError, match="VirtualClock"):
            engine.advance_time(10)

    def test_multiple_timers_fire_in_due_order(self, engine, clock):
        engine.deploy(self.make_model(duration=100))
        first = engine.start_instance("timed")
        clock.advance(50)
        second = engine.start_instance("timed")
        engine.advance_time(50)  # first due now
        assert first.state is InstanceState.COMPLETED
        assert second.state is InstanceState.RUNNING
        engine.advance_time(50)
        assert second.state is InstanceState.COMPLETED

    def test_zero_duration_timer_fires_on_next_pump(self, engine):
        engine.deploy(self.make_model(duration=0))
        instance = engine.start_instance("timed")
        engine.run_due_jobs()
        assert instance.state is InstanceState.COMPLETED


class TestMessages:
    def make_model(self):
        return (
            ProcessBuilder("conversation")
            .start()
            .script_task("prepare", script="order_id = 'ord-9'")
            .receive_task(
                "await_confirm",
                message_name="confirmation",
                correlation_expression="order_id",
            )
            .script_task("after", script="done = true")
            .end()
            .build()
        )

    def test_token_waits_for_message(self, engine):
        engine.deploy(self.make_model())
        instance = engine.start_instance("conversation")
        token = instance.tokens[0]
        assert token.waiting_on["reason"] == "message"
        assert token.waiting_on["correlation"] == "ord-9"

    def test_correlated_message_resumes(self, engine):
        engine.deploy(self.make_model())
        instance = engine.start_instance("conversation")
        engine.correlate_message("confirmation", "ord-9", {"confirmed": True})
        assert instance.state is InstanceState.COMPLETED
        assert instance.variables["confirmed"] is True
        assert instance.variables["done"] is True

    def test_wrong_correlation_is_retained_not_delivered(self, engine):
        engine.deploy(self.make_model())
        instance = engine.start_instance("conversation")
        engine.correlate_message("confirmation", "ord-OTHER", {})
        assert instance.state is InstanceState.RUNNING
        assert engine.bus.retained_count == 1

    def test_wrong_name_not_delivered(self, engine):
        engine.deploy(self.make_model())
        instance = engine.start_instance("conversation")
        engine.correlate_message("unrelated", "ord-9", {})
        assert instance.state is InstanceState.RUNNING

    def test_retained_message_consumed_on_arrival(self, engine):
        engine.deploy(self.make_model())
        # message arrives before any instance is listening
        engine.correlate_message("confirmation", "ord-9", {"confirmed": True})
        instance = engine.start_instance("conversation")
        assert instance.state is InstanceState.COMPLETED

    def test_two_instances_correlate_independently(self, engine):
        model = (
            ProcessBuilder("multi")
            .start()
            .receive_task(
                "wait", message_name="go", correlation_expression="case_key"
            )
            .end()
            .build()
        )
        engine.deploy(model)
        one = engine.start_instance("multi", {"case_key": "A"})
        two = engine.start_instance("multi", {"case_key": "B"})
        engine.correlate_message("go", "B")
        assert one.state is InstanceState.RUNNING
        assert two.state is InstanceState.COMPLETED

    def test_message_event_without_correlation_matches_any(self, engine):
        model = (
            ProcessBuilder("anymsg")
            .start()
            .message_catch("wait", message_name="ping")
            .end()
            .build()
        )
        engine.deploy(model)
        instance = engine.start_instance("anymsg")
        engine.correlate_message("ping", correlation="whatever")
        assert instance.state is InstanceState.COMPLETED

    def test_correlation_has_one_public_path(self, engine):
        # delivering outside a command would change a case in memory with
        # no log entry and no commit; recover() would undo it
        assert not hasattr(engine, "publish_message")
        assert callable(engine.correlate_message)


class TestSendReceiveBetweenProcesses:
    def test_send_task_feeds_waiting_receive(self, engine):
        requester = (
            ProcessBuilder("requester")
            .start()
            .receive_task(
                "await_reply", message_name="reply", correlation_expression="req_id"
            )
            .end()
            .build()
        )
        responder = (
            ProcessBuilder("responder")
            .start()
            .script_task("prep", script="payload = {'correlation': req_id, 'answer': 42}")
            .send_task("respond", message_name="reply", payload_expression="payload")
            .end()
            .build()
        )
        engine.deploy(requester)
        engine.deploy(responder)
        waiting = engine.start_instance("requester", {"req_id": "r1"})
        assert waiting.state is InstanceState.RUNNING
        engine.start_instance("responder", {"req_id": "r1"})
        assert waiting.state is InstanceState.COMPLETED
        assert waiting.variables["answer"] == 42


class TestEventBasedGateway:
    def make_model(self):
        return (
            ProcessBuilder("race")
            .start()
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
            .end()
            .build()
        )

    def test_message_wins_race(self, engine, clock):
        engine.deploy(self.make_model())
        instance = engine.start_instance("race")
        assert instance.tokens[0].waiting_on["reason"] == "event_race"
        engine.correlate_message("reply")
        assert instance.state is InstanceState.COMPLETED
        assert instance.variables["outcome"] == "reply"
        # losing timer was cancelled
        assert len(engine.scheduler) == 0

    def test_timeout_wins_race(self, engine, clock):
        engine.deploy(self.make_model())
        instance = engine.start_instance("race")
        engine.advance_time(121)
        assert instance.state is InstanceState.COMPLETED
        assert instance.variables["outcome"] == "timeout"
        # losing message wait was deregistered: later message is retained
        engine.correlate_message("reply")
        assert engine.bus.retained_count == 1

    def test_message_after_timeout_does_not_resurrect(self, engine, clock):
        engine.deploy(self.make_model())
        instance = engine.start_instance("race")
        engine.advance_time(121)
        engine.correlate_message("reply")
        assert instance.variables["outcome"] == "timeout"

    def test_retained_message_wins_race_immediately(self, engine):
        engine.deploy(self.make_model())
        engine.correlate_message("reply")
        instance = engine.start_instance("race")
        assert instance.state is InstanceState.COMPLETED
        assert instance.variables["outcome"] == "reply"
