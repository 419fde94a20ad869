"""Suspension edge cases: timers and messages must survive a suspend.

These were real bugs: due jobs of suspended instances were consumed and
lost, and message subscriptions were dropped on first non-delivery.
"""

from repro.engine.instance import InstanceState
from repro.history.events import EventTypes
from repro.model.builder import ProcessBuilder


class TestTimersUnderSuspension:
    def make_model(self):
        return (
            ProcessBuilder("timed")
            .start()
            .timer("cooldown", duration=60)
            .script_task("after", script="fired = true")
            .end()
            .build()
        )

    def test_due_timer_deferred_while_suspended(self, engine, clock):
        engine.deploy(self.make_model())
        instance = engine.start_instance("timed")
        engine.suspend_instance(instance.id)
        clock.advance(120)
        assert engine.run_due_jobs() == 0  # deferred, not consumed
        assert instance.state is InstanceState.SUSPENDED
        assert len(engine.scheduler) == 1  # the job still exists

        engine.resume_instance(instance.id)
        assert engine.run_due_jobs() == 1
        assert instance.state is InstanceState.COMPLETED
        assert instance.variables["fired"] is True

    def test_repeated_pumps_while_suspended_do_not_lose_job(self, engine, clock):
        engine.deploy(self.make_model())
        instance = engine.start_instance("timed")
        engine.suspend_instance(instance.id)
        clock.advance(120)
        for _ in range(3):
            engine.run_due_jobs()
        assert len(engine.scheduler) == 1
        engine.resume_instance(instance.id)
        engine.run_due_jobs()
        assert instance.state is InstanceState.COMPLETED

    def test_other_instances_unaffected_by_deferral(self, engine, clock):
        engine.deploy(self.make_model())
        suspended = engine.start_instance("timed")
        active = engine.start_instance("timed")
        engine.suspend_instance(suspended.id)
        clock.advance(120)
        engine.run_due_jobs()
        assert active.state is InstanceState.COMPLETED
        assert suspended.state is InstanceState.SUSPENDED


class TestSuspendResumeTimerRaces:
    """Suspend racing ``advance_time``: defer while suspended, then fire
    exactly once on resume — never zero times, never twice."""

    def make_model(self):
        return (
            ProcessBuilder("timed")
            .start()
            .timer("cooldown", duration=60)
            .script_task("after", script="fired = true")
            .end()
            .build()
        )

    def test_advance_time_defers_suspended_instances_timers(self, engine, clock):
        engine.deploy(self.make_model())
        instance = engine.start_instance("timed")
        engine.suspend_instance(instance.id)
        # the AdvanceTime command pumps due jobs via a nested RunDueJobs,
        # which must defer — not consume — the suspended instance's timer
        assert engine.advance_time(120) == 0
        assert instance.state is InstanceState.SUSPENDED
        assert len(engine.scheduler) == 1
        assert engine.obs.registry.counter("engine.timers_fired").value == 0

    def test_resume_after_advance_time_fires_exactly_once(self, engine, clock):
        engine.deploy(self.make_model())
        instance = engine.start_instance("timed")
        engine.suspend_instance(instance.id)
        engine.advance_time(120)
        engine.resume_instance(instance.id)
        assert engine.run_due_jobs() == 1
        assert instance.state is InstanceState.COMPLETED
        assert instance.variables["fired"] is True
        assert engine.obs.registry.counter("engine.timers_fired").value == 1
        fired = [
            e
            for e in engine.history.instance_events(instance.id)
            if e.type == EventTypes.TIMER_FIRED
        ]
        assert len(fired) == 1
        # nothing left to fire: the job was consumed exactly once
        assert engine.run_due_jobs() == 0
        assert len(engine.scheduler) == 0

    def test_repeated_advance_time_while_suspended_fires_once_on_resume(
        self, engine, clock
    ):
        engine.deploy(self.make_model())
        instance = engine.start_instance("timed")
        engine.suspend_instance(instance.id)
        for _ in range(3):
            engine.advance_time(60)
        assert len(engine.scheduler) == 1
        engine.resume_instance(instance.id)
        assert engine.advance_time(0) == 1
        assert instance.state is InstanceState.COMPLETED
        assert engine.obs.registry.counter("engine.timers_fired").value == 1

    def test_suspend_between_due_and_pump_defers(self, engine, clock):
        engine.deploy(self.make_model())
        instance = engine.start_instance("timed")
        clock.advance(120)  # timer already due...
        engine.suspend_instance(instance.id)  # ...but suspended before a pump
        assert engine.run_due_jobs() == 0
        assert instance.state is InstanceState.SUSPENDED
        engine.resume_instance(instance.id)
        assert engine.run_due_jobs() == 1
        assert instance.state is InstanceState.COMPLETED
        assert engine.obs.registry.counter("engine.timers_fired").value == 1


class TestMessagesUnderSuspension:
    def make_model(self):
        return (
            ProcessBuilder("msg")
            .start()
            .receive_task("wait", message_name="go", correlation_expression="key")
            .script_task("after", script="delivered = true")
            .end()
            .build()
        )

    def test_message_during_suspension_delivered_on_resume(self, engine):
        engine.deploy(self.make_model())
        instance = engine.start_instance("msg", {"key": "k1"})
        engine.suspend_instance(instance.id)
        engine.correlate_message("go", "k1", {"payload": 1})
        # suspended: retained, subscription kept
        assert instance.state is InstanceState.SUSPENDED
        assert engine.bus.retained_count == 1
        engine.resume_instance(instance.id)
        assert instance.state is InstanceState.COMPLETED
        assert instance.variables["payload"] == 1
        assert instance.variables["delivered"] is True
        assert engine.bus.retained_count == 0

    def test_message_after_resume_still_delivers(self, engine):
        engine.deploy(self.make_model())
        instance = engine.start_instance("msg", {"key": "k1"})
        engine.suspend_instance(instance.id)
        engine.resume_instance(instance.id)
        engine.correlate_message("go", "k1")
        assert instance.state is InstanceState.COMPLETED

    def test_unrelated_retained_messages_stay_retained(self, engine):
        engine.deploy(self.make_model())
        instance = engine.start_instance("msg", {"key": "k1"})
        engine.suspend_instance(instance.id)
        engine.correlate_message("go", "OTHER")
        engine.resume_instance(instance.id)
        # wrong correlation: still waiting, message still retained
        assert instance.state is InstanceState.RUNNING
        assert engine.bus.retained_count == 1
