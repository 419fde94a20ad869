"""Engine tests: hot redeploy and instance migration (T5 mechanics)."""

import pytest

from repro.clock import VirtualClock
from repro.engine.engine import ProcessEngine
from repro.engine.errors import MigrationError
from repro.engine.instance import InstanceState
from repro.engine.migration import MigrationPlan
from repro.model.builder import ProcessBuilder
from repro.storage.kvstore import MemoryKV


def v1():
    return (
        ProcessBuilder("claim")
        .start()
        .user_task("assess", role="clerk")
        .script_task("settle", script="settled = true")
        .end()
        .build()
    )


def v2_extra_step():
    """v2 adds a fraud-check script after assessment."""
    return (
        ProcessBuilder("claim")
        .start()
        .user_task("assess", role="clerk")
        .script_task("fraud_check", script="fraud_checked = true")
        .script_task("settle", script="settled = true")
        .end()
        .build()
    )


def v2_renamed():
    """v2 renames the user task."""
    return (
        ProcessBuilder("claim")
        .start()
        .user_task("triage", role="clerk")
        .script_task("settle", script="settled = true")
        .end()
        .build()
    )


def v2_incompatible():
    """v2 replaces the user task with a script (type change)."""
    return (
        ProcessBuilder("claim")
        .start()
        .script_task("assess", script="auto = true")
        .script_task("settle", script="settled = true")
        .end()
        .build()
    )


class TestMigration:
    def test_waiting_instance_migrates_and_takes_new_path(self, engine):
        engine.deploy(v1())
        instance = engine.start_instance("claim")
        engine.deploy(v2_extra_step())
        engine.migrate_instance(instance.id, target_version=2)
        assert instance.definition_id == "claim:2"
        # complete the pending user task: the NEW path runs
        item = engine.worklist.items()[0]
        engine.worklist.start(item.id)
        engine.complete_work_item(item.id)
        assert instance.state is InstanceState.COMPLETED
        assert instance.variables.get("fraud_checked") is True
        assert instance.variables.get("settled") is True

    def test_migration_with_node_mapping(self, engine):
        engine.deploy(v1())
        instance = engine.start_instance("claim")
        engine.deploy(v2_renamed())
        engine.migrate_instance(
            instance.id,
            target_version=2,
            plan=MigrationPlan(node_mapping={"assess": "triage"}),
        )
        assert instance.tokens[0].node_id == "triage"
        item = engine.worklist.items()[0]
        engine.worklist.start(item.id)
        engine.complete_work_item(item.id)
        assert instance.state is InstanceState.COMPLETED

    def test_incompatible_type_change_rejected(self, engine):
        engine.deploy(v1())
        instance = engine.start_instance("claim")
        engine.deploy(v2_incompatible())
        with pytest.raises(MigrationError, match="type changed"):
            engine.migrate_instance(instance.id, target_version=2)
        # instance untouched
        assert instance.definition_id == "claim:1"

    def test_missing_node_rejected(self, engine):
        engine.deploy(v1())
        instance = engine.start_instance("claim")
        v2 = (
            ProcessBuilder("claim")
            .start()
            .script_task("totally_new", script="x = 1")
            .end()
            .build()
        )
        engine.deploy(v2)
        with pytest.raises(MigrationError, match="no node"):
            engine.migrate_instance(instance.id, target_version=2)

    def test_finished_instance_cannot_migrate(self, engine):
        engine.deploy(v1())
        instance = engine.start_instance("claim")
        item = engine.worklist.items()[0]
        engine.worklist.start(item.id)
        engine.complete_work_item(item.id)
        engine.deploy(v2_extra_step())
        with pytest.raises(MigrationError, match="finished"):
            engine.migrate_instance(instance.id, target_version=2)

    def test_old_instances_keep_running_on_old_version(self, engine):
        engine.deploy(v1())
        old_instance = engine.start_instance("claim")
        engine.deploy(v2_extra_step())
        new_instance = engine.start_instance("claim")
        assert old_instance.definition_id == "claim:1"
        assert new_instance.definition_id == "claim:2"
        # completing the old one follows the v1 path (no fraud check)
        old_item = [
            i for i in engine.worklist.items() if i.instance_id == old_instance.id
        ][0]
        engine.worklist.start(old_item.id)
        engine.complete_work_item(old_item.id)
        assert old_instance.state is InstanceState.COMPLETED
        assert "fraud_checked" not in old_instance.variables

    def test_bulk_migration_of_waiting_instances(self, engine):
        engine.deploy(v1())
        instances = [engine.start_instance("claim") for _ in range(10)]
        engine.deploy(v2_extra_step())
        for instance in instances:
            engine.migrate_instance(instance.id, target_version=2)
        assert all(i.definition_id == "claim:2" for i in instances)
        for item in list(engine.worklist.items()):
            engine.worklist.start(item.id)
            engine.complete_work_item(item.id)
        assert all(i.state is InstanceState.COMPLETED for i in instances)
        assert all(i.variables.get("fraud_checked") for i in instances)


def timer_race(suffix="", result=1):
    """An event-based gateway racing a message against a timer."""
    return (
        ProcessBuilder("race")
        .start()
        .event_gateway("race" + suffix)
        .branch()
        .message_catch("m1" + suffix, message_name="alpha")
        .exclusive_gateway("merge")
        .branch_from("race" + suffix)
        .timer("t1" + suffix, duration=60)
        .connect_to("merge")
        .move_to("merge")
        .script_task("after", script=f"v = {result}")
        .end()
        .build()
    )


def guarded_task(suffix="", result=1):
    """A user task under an interrupting boundary timer."""
    return (
        ProcessBuilder("sla")
        .start()
        .user_task("approve" + suffix, role="clerk")
        .end("done")
        .boundary_timer("too_slow" + suffix, attached_to="approve" + suffix, duration=60)
        .script_task("escalate", script=f"v = {result}")
        .end("esc_end")
        .build()
    )


def held(timer_id):
    """A timer between start and end."""
    return ProcessBuilder("hold").start().timer(timer_id, duration=60).end().build()


class TestMigrationOfScheduledJobs:
    """A scheduler job names the node its firing resumes; the job (live
    and in the store) follows a renamed node like the message waits do."""

    def build(self, store):
        clock = VirtualClock(0)
        engine = ProcessEngine(clock=clock, store=store)
        engine.organization.add("ana", roles=["clerk"])
        return engine, clock

    def fire(self, store, engine, clock, restart):
        if restart:
            engine, clock = self.build(store)
            engine.recover()
        clock.advance(61)
        engine.run_due_jobs()
        return engine

    @pytest.mark.parametrize("restart", [False, True], ids=["live", "recovered"])
    def test_event_race_timer_fires_after_migration(self, restart):
        store = MemoryKV()
        engine, clock = self.build(store)
        engine.deploy(timer_race())
        instance = engine.start_instance("race")
        engine.deploy(timer_race(suffix="_v2", result=2))
        plan = MigrationPlan({"race": "race_v2", "m1": "m1_v2", "t1": "t1_v2"})
        engine.migrate_instance(instance.id, 2, plan)
        (job,) = engine.scheduler.pending()
        assert (job.data["gateway_id"], job.data["event_id"]) == ("race_v2", "t1_v2")
        engine = self.fire(store, engine, clock, restart)
        instance = engine.instance(instance.id)
        assert instance.state is InstanceState.COMPLETED
        assert instance.variables["v"] == 2
        assert len(engine.scheduler) == 0 and store.keys("jobs/") == []
        assert len(engine.waits) == 0

    @pytest.mark.parametrize("restart", [False, True], ids=["live", "recovered"])
    def test_interrupting_boundary_timer_fires_after_migration(self, restart):
        store = MemoryKV()
        engine, clock = self.build(store)
        engine.deploy(guarded_task())
        instance = engine.start_instance("sla")
        engine.deploy(guarded_task(suffix="_v2", result=2))
        plan = MigrationPlan({"approve": "approve_v2", "too_slow": "too_slow_v2"})
        engine.migrate_instance(instance.id, 2, plan)
        (job,) = engine.scheduler.pending()
        assert job.data["boundary_id"] == "too_slow_v2"
        engine = self.fire(store, engine, clock, restart)
        instance = engine.instance(instance.id)
        assert instance.state is InstanceState.COMPLETED
        assert instance.variables["v"] == 2
        assert len(engine.scheduler) == 0 and store.keys("jobs/") == []

    @pytest.mark.parametrize("restart", [False, True], ids=["live", "recovered"])
    def test_stored_job_changes_only_with_the_migration_commit(self, restart):
        """The store holds a copy of a job: remapping the live job inside a
        batch leaves the committed record as it was until the batch
        commits, in step with the instance record."""
        store = MemoryKV()
        engine, clock = self.build(store)
        engine.deploy(held("wait"))
        engine.deploy(held("pause"))
        instance = engine.start_instance("hold", version=1)
        if restart:
            engine, clock = self.build(store)
            engine.recover()
        (job_key,) = store.keys("jobs/")
        instance_key = f"instance/{instance.id}"
        with engine.batch():
            engine.migrate_instance(instance.id, 2, MigrationPlan({"wait": "pause"}))
            assert store.get(job_key)["data"]["node_id"] == "wait"
            assert store.get(instance_key)["definition_id"] == "hold:1"
        assert store.get(job_key)["data"]["node_id"] == "pause"
        assert store.get(instance_key)["definition_id"] == "hold:2"
