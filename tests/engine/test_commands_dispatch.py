"""The command path: typed commands, dispatch order, idempotency, log."""

import pytest

from repro.clock import VirtualClock
from repro.engine import (
    COMMAND_TYPES,
    AdvanceTime,
    Command,
    CompleteWorkItem,
    RunDueJobs,
    StartInstance,
    command_from_dict,
)
from repro.engine.engine import ProcessEngine
from repro.engine.instance import InstanceState
from repro.model.builder import ProcessBuilder
from repro.storage.kvstore import DurableKV
from repro.worklist.errors import WorklistError
from tests.counting_kv import CountingKV


def automated_model(key="auto"):
    return (
        ProcessBuilder(key)
        .start()
        .script_task("work", script="doubled = n * 2")
        .end()
        .build()
    )


def approval_model(key="approval"):
    return (
        ProcessBuilder(key)
        .start()
        .user_task("review", role="clerk")
        .end()
        .build()
    )


class TestCommandTypes:
    def test_registry_covers_every_public_mutation(self):
        assert set(COMMAND_TYPES) == {
            "deploy_definition",
            "start_instance",
            "terminate_instance",
            "compensate_instance",
            "suspend_instance",
            "resume_instance",
            "migrate_instance",
            "claim_work_item",
            "start_work_item",
            "complete_service_invocation",
            "requeue_dead_letter",
            "complete_work_item",
            "correlate_message",
            "run_due_jobs",
            "advance_time",
        }

    def test_serialization_round_trip(self):
        cmd = StartInstance(
            key="auto", variables={"n": 2}, business_key="bk", dedup_key="d1"
        )
        raw = cmd.to_dict()
        assert raw["command"] == "start_instance"
        rebuilt = command_from_dict(raw)
        assert rebuilt == cmd

    def test_deploy_command_round_trips_the_definition(self):
        from repro.engine import DeployDefinition

        cmd = DeployDefinition(definition=automated_model())
        rebuilt = command_from_dict(cmd.to_dict())
        assert rebuilt.definition.key == "auto"
        assert set(rebuilt.definition.nodes) == set(cmd.definition.nodes)

    def test_unknown_command_type_rejected(self):
        with pytest.raises(ValueError, match="unknown command"):
            command_from_dict({"command": "frobnicate"})

    def test_external_commands_carry_dedup_key(self):
        for name, cls in COMMAND_TYPES.items():
            if cls.external:
                assert "dedup_key" in cls.__dataclass_fields__, name
            else:
                assert "dedup_key" not in cls.__dataclass_fields__, name


class TestDispatch:
    def test_dispatch_rejects_non_commands(self, engine):
        with pytest.raises(TypeError, match="expects a Command"):
            engine.dispatch("start_instance")

    def test_unregistered_command_class_raises(self):
        # a command without a route never becomes a class, so it can
        # never reach a dispatcher that has no handler for it
        with pytest.raises(ValueError, match="unknown route"):

            class Rogue(Command):
                name = "rogue"

    def test_public_methods_route_through_dispatch_log(self, engine, clock):
        engine.deploy(automated_model())
        engine.start_instance("auto", {"n": 1})
        names = [r["name"] for r in engine.dispatch_history()]
        assert names == ["deploy_definition", "start_instance"]

    def test_dispatch_log_records_are_serializable_commands(self, engine):
        engine.deploy(automated_model())
        engine.start_instance("auto", {"n": 3})
        for record in engine.dispatch_history():
            rebuilt = command_from_dict(record["command"])
            assert rebuilt.name == record["name"]

    def test_command_metrics_per_type(self, engine):
        engine.deploy(automated_model())
        engine.start_instance("auto", {"n": 1})
        engine.start_instance("auto", {"n": 2})
        counters = engine.obs.registry.snapshot()["counters"]
        assert counters["engine.commands.dispatched"] == 3
        assert counters["engine.commands.start_instance"] == 2
        assert counters["engine.commands.deploy_definition"] == 1

    def test_idle_pump_is_not_logged(self, engine):
        engine.deploy(automated_model())
        engine.start_instance("auto", {"n": 1})
        before = len(engine.dispatch_history())
        assert engine.run_due_jobs() == 0
        assert len(engine.dispatch_history()) == before

    def test_advance_time_always_logged_and_nests_run_due_jobs(self, engine):
        model = (
            ProcessBuilder("timed")
            .start()
            .timer("wait", duration=30)
            .end()
            .build()
        )
        engine.deploy(model)
        engine.start_instance("timed")
        engine.advance_time(60)
        log = engine.dispatch_history()
        names_depths = [(r["name"], r["depth"]) for r in log]
        assert ("advance_time", 1) in names_depths
        assert ("run_due_jobs", 2) in names_depths

    def test_failed_command_logged_with_error_status(self, engine):
        engine.deploy(approval_model())
        engine.start_instance("approval")
        item = engine.worklist.items()[0]
        with pytest.raises(WorklistError):
            engine.claim_work_item(item.id, "nobody")
        record = engine.dispatch_history()[-1]
        assert record["name"] == "claim_work_item"
        assert record["status"] == "error"
        assert "error" in record


class TestIdempotency:
    def test_same_dedup_key_applies_once(self, engine):
        engine.deploy(automated_model())
        first = engine.start_instance("auto", {"n": 1}, dedup_key="req-1")
        second = engine.start_instance("auto", {"n": 1}, dedup_key="req-1")
        assert first is second
        assert len(engine.instances()) == 1
        counters = engine.obs.registry.snapshot()["counters"]
        assert counters["engine.commands.deduped"] == 1

    def test_different_keys_apply_separately(self, engine):
        engine.deploy(automated_model())
        engine.start_instance("auto", {"n": 1}, dedup_key="req-1")
        engine.start_instance("auto", {"n": 1}, dedup_key="req-2")
        assert len(engine.instances()) == 2

    def test_failed_command_is_retryable_under_same_key(self, engine):
        engine.deploy(approval_model())
        engine.start_instance("approval")
        item = engine.worklist.items()[0]  # auto-allocated by the allocator
        # completing an item that was never started fails; the key stays free
        with pytest.raises(WorklistError):
            engine.complete_work_item(item.id, {}, dedup_key="done-1")
        engine.start_work_item(item.id)
        done = engine.complete_work_item(item.id, {}, dedup_key="done-1")
        assert done.id == item.id

    def test_duplicate_complete_does_not_double_apply(self, engine):
        engine.deploy(approval_model())
        instance = engine.start_instance("approval")
        item = engine.worklist.items()[0]  # auto-allocated by the allocator
        engine.start_work_item(item.id)
        engine.complete_work_item(item.id, {"ok": 1}, dedup_key="done-1")
        # the retry replays the result instead of raising IllegalState
        again = engine.complete_work_item(item.id, {"ok": 1}, dedup_key="done-1")
        assert again.id == item.id
        assert instance.state is InstanceState.COMPLETED

    def test_dedup_window_survives_recovery(self, tmp_path):
        directory = str(tmp_path / "kv")
        store = DurableKV(directory)
        engine = ProcessEngine(clock=VirtualClock(0), store=store)
        engine.deploy(automated_model())
        started = engine.start_instance("auto", {"n": 5}, dedup_key="req-9")
        store.close()

        store2 = DurableKV(directory)
        revived = ProcessEngine(clock=VirtualClock(0), store=store2)
        counts = revived.recover()
        assert counts["commands"] == 2  # deploy + start
        # the retry replays the persisted result summary, not a new start
        replay = revived.dispatch(
            StartInstance(key="auto", variables={"n": 5}, dedup_key="req-9")
        )
        assert replay == {"instance_id": started.id, "state": "completed"}
        assert len(revived.instances()) == 1
        store2.close()


class TestDispatchLogRetention:
    def test_log_is_bounded_and_store_pruned(self, tmp_path):
        store = DurableKV(str(tmp_path / "kv"))
        engine = ProcessEngine(
            clock=VirtualClock(0), store=store, dispatch_log_retention=4
        )
        engine.deploy(automated_model())
        for n in range(10):
            engine.start_instance("auto", {"n": n}, dedup_key=f"req-{n}")
        log = engine.dispatch_history()
        assert len(log) == 4
        assert [r["seq"] for r in log] == [8, 9, 10, 11]
        stored = sorted(key for key, _ in store.scan("dispatch/"))
        assert stored == [f"dispatch/{seq:010d}" for seq in (8, 9, 10, 11)]
        # dedup keys of pruned entries are evicted: the same key re-applies
        engine.start_instance("auto", {"n": 0}, dedup_key="req-0")
        assert len(engine.instances()) == 11
        store.close()

    def test_lowered_retention_prunes_the_store_after_reopen(self, tmp_path):
        path = str(tmp_path / "kv")
        engine = ProcessEngine(
            clock=VirtualClock(0), store=DurableKV(path), dispatch_log_retention=16
        )
        engine.deploy(automated_model())
        for n in range(20):
            engine.start_instance("auto", {"n": n})
        assert len(engine.store.keys("dispatch/")) == 16
        engine.store.close()

        store = DurableKV(path)
        reopened = ProcessEngine(
            clock=VirtualClock(0), store=store, dispatch_log_retention=4
        )
        reopened.recover()
        reopened.start_instance("auto", {"n": 99})
        # the entries older than the new window go with the first commit
        assert store.keys("dispatch/") == [
            f"dispatch/{seq:010d}" for seq in (19, 20, 21, 22)
        ]
        store.close()

    def test_dispatch_history_limit(self, engine):
        engine.deploy(automated_model())
        for n in range(5):
            engine.start_instance("auto", {"n": n})
        assert [r["name"] for r in engine.dispatch_history(limit=2)] == [
            "start_instance",
            "start_instance",
        ]
        assert len(engine.dispatch_history(limit=0)) == 0


class TestDispatchOrder:
    """The order of the dispatch steps, pinned through what reaches the
    store: a dedup hit returns before the counters, the log and the
    flush; the flush runs after the log step, even when the handler
    raised; only a successful dispatch records its dedup key."""

    def counting_engine(self):
        store = CountingKV()
        engine = ProcessEngine(clock=VirtualClock(0), store=store)
        engine.organization.add("ana", roles=["clerk"])
        engine.deploy(approval_model())
        return engine, store

    def counters(self, engine):
        counters = engine.obs.registry.snapshot()["counters"]
        return (
            counters["engine.commands.dispatched"],
            counters["engine.commands.start_instance"],
            counters["engine.commands.deduped"],
        )

    def test_dedup_hit_skips_counters_log_and_commit(self):
        engine, store = self.counting_engine()
        store.reset_counts()
        first = engine.start_instance("approval", dedup_key="k")
        assert store.commits == 1
        seq = engine.dispatch_log.seq
        # the flush ran after the log step: the entry is in that commit
        stored = store.get(f"dispatch/{seq:010d}")
        assert stored["dedup_key"] == "k" and stored["status"] == "applied"
        before = self.counters(engine)
        store.reset_counts()
        again = engine.start_instance("approval", dedup_key="k")
        assert again is first
        dispatched, per_type, deduped = self.counters(engine)
        assert (dispatched, per_type) == before[:2]
        assert deduped == before[2] + 1
        assert engine.dispatch_log.seq == seq
        assert store.commits == 0 and store.puts == 0

    def test_raising_handler_commits_error_entry_and_frees_its_key(self):
        engine, store = self.counting_engine()
        handlers = engine._dispatcher.handlers
        apply_start = handlers[StartInstance]

        def explode_after_mutating(cmd):
            apply_start(cmd)
            raise RuntimeError("boom")

        handlers[StartInstance] = explode_after_mutating
        store.reset_counts()
        with pytest.raises(RuntimeError, match="boom"):
            engine.start_instance("approval", dedup_key="k")
        (instance,) = engine.instances()
        (item,) = engine.worklist.items()
        # one commit within that dispatch holds the mutation and the
        # finalized error entry, stamped with what it touched
        assert store.commits == 1
        assert store.get(f"instance/{instance.id}") is not None
        seq = engine.dispatch_log.seq
        stored = store.get(f"dispatch/{seq:010d}")
        assert stored["status"] == "error"
        assert stored["error"] == "RuntimeError: boom"
        assert stored["touched"] == {
            "instances": [instance.id],
            "items": [item.id],
        }
        assert "k" not in engine.dispatch_log.dedup
        # the key is free: a retry applies, and only then dedups
        handlers[StartInstance] = apply_start
        retried = engine.start_instance("approval", dedup_key="k")
        assert retried.id != instance.id
        before = self.counters(engine)
        assert engine.start_instance("approval", dedup_key="k") is retried
        assert self.counters(engine)[:2] == before[:2]
