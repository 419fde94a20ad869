"""Engine tests: durable persistence and crash recovery.

'Crash' here means: drop the engine object, keep the store directory, build
a fresh engine over the same store, re-register code, call recover().
"""

import pytest

from repro.clock import VirtualClock
from repro.engine.engine import ProcessEngine
from repro.engine.instance import InstanceState
from repro.model.builder import ProcessBuilder
from repro.storage.kvstore import DurableKV, MemoryKV
from repro.worklist.allocation import ShortestQueueAllocator


def approval_model():
    return (
        ProcessBuilder("approval")
        .start()
        .user_task("review", role="clerk")
        .script_task("after", script="done = true")
        .end()
        .build()
    )


def timed_model():
    return (
        ProcessBuilder("timed")
        .start()
        .timer("wait", duration=600)
        .script_task("after", script="fired = true")
        .end()
        .build()
    )


def build_engine(store, clock):
    engine = ProcessEngine(
        clock=clock, store=store, allocator=ShortestQueueAllocator()
    )
    engine.organization.add("ana", roles=["clerk"])
    return engine


@pytest.fixture
def store_path(tmp_path):
    return str(tmp_path / "engine-store")


class TestRecovery:
    def test_in_flight_instance_recovers_and_completes(self, store_path):
        clock = VirtualClock(1000)
        store = DurableKV(store_path)
        engine = build_engine(store, clock)
        engine.deploy(approval_model())
        original = engine.start_instance("approval", {"amount": 9})
        original_id = original.id
        item_id = engine.worklist.items()[0].id
        store.close()  # crash

        store2 = DurableKV(store_path)
        engine2 = build_engine(store2, clock)
        counts = engine2.recover()
        assert counts["definitions"] == 1
        assert counts["instances"] == 1
        assert counts["workitems"] == 1

        recovered = engine2.instance(original_id)
        assert recovered.state is InstanceState.RUNNING
        assert recovered.variables == {"amount": 9}
        engine2.worklist.start(item_id)
        engine2.complete_work_item(item_id, {"approved": True})
        assert recovered.state is InstanceState.COMPLETED
        assert recovered.variables["done"] is True
        store2.close()

    def test_pending_timer_survives_crash(self, store_path):
        clock = VirtualClock(1000)
        store = DurableKV(store_path)
        engine = build_engine(store, clock)
        engine.deploy(timed_model())
        instance_id = engine.start_instance("timed").id
        store.close()

        store2 = DurableKV(store_path)
        clock2 = VirtualClock(1000)
        engine2 = build_engine(store2, clock2)
        counts = engine2.recover()
        assert counts["jobs"] == 1
        clock2.advance(601)
        engine2.run_due_jobs()
        assert engine2.instance(instance_id).state is InstanceState.COMPLETED
        assert engine2.instance(instance_id).variables["fired"] is True
        store2.close()

    def test_completed_instances_recover_as_completed(self, store_path):
        clock = VirtualClock(0)
        store = DurableKV(store_path)
        engine = build_engine(store, clock)
        model = (
            ProcessBuilder("quick").start().script_task("t", script="x = 1").end().build()
        )
        engine.deploy(model)
        done_id = engine.start_instance("quick").id
        store.close()

        store2 = DurableKV(store_path)
        engine2 = build_engine(store2, VirtualClock(0))
        engine2.recover()
        assert engine2.instance(done_id).state is InstanceState.COMPLETED
        store2.close()

    def test_new_instances_after_recovery_get_fresh_ids(self, store_path):
        clock = VirtualClock(0)
        store = DurableKV(store_path)
        engine = build_engine(store, clock)
        engine.deploy(approval_model())
        first_id = engine.start_instance("approval").id
        store.close()

        store2 = DurableKV(store_path)
        engine2 = build_engine(store2, clock)
        engine2.recover()
        second_id = engine2.start_instance("approval").id
        assert second_id != first_id
        store2.close()

    def test_message_wait_survives_crash(self, store_path):
        clock = VirtualClock(0)
        store = DurableKV(store_path)
        engine = build_engine(store, clock)
        model = (
            ProcessBuilder("msg")
            .start()
            .receive_task("wait", message_name="go", correlation_expression="key")
            .end()
            .build()
        )
        engine.deploy(model)
        instance_id = engine.start_instance("msg", {"key": "k1"}).id
        store.close()

        store2 = DurableKV(store_path)
        engine2 = build_engine(store2, clock)
        engine2.recover()
        engine2.correlate_message("go", "k1", {"ok": True})
        assert engine2.instance(instance_id).state is InstanceState.COMPLETED
        store2.close()

    def test_deployments_after_recovery_continue_version_numbering(self, store_path):
        clock = VirtualClock(0)
        store = DurableKV(store_path)
        engine = build_engine(store, clock)
        assert engine.deploy(approval_model()) == "approval:1"
        store.close()

        store2 = DurableKV(store_path)
        engine2 = build_engine(store2, clock)
        engine2.recover()
        assert engine2.deploy(approval_model()) == "approval:2"
        store2.close()

    def test_recovery_with_memory_store_is_empty(self):
        engine = ProcessEngine(clock=VirtualClock(0))
        counts = engine.recover()
        assert counts == {
            "definitions": 0,
            "instances": 0,
            "jobs": 0,
            "workitems": 0,
            "commands": 0,
            "invocations": 0,
            "dead_letters": 0,
            "outbox": 0,
            "waits": 0,
        }


class TestBatchedCommitCrashConsistency:
    """A crash between a completion and the batched commit must recover to
    a consistent *pre-completion* state — no half-applied updates."""

    def test_crash_mid_batch_recovers_pre_completion_state(self, store_path):
        clock = VirtualClock(0)
        store = DurableKV(store_path)
        engine = build_engine(store, clock)
        engine.deploy(approval_model())
        instance_id = engine.start_instance("approval", {"amount": 5}).id
        item_id = engine.worklist.items()[0].id
        engine.worklist.start(item_id)
        engine.flush()

        scope = engine.batch()
        scope.__enter__()
        engine.complete_work_item(item_id, {"approved": True})
        # in memory the completion fully applied...
        assert engine.instance(instance_id).variables["done"] is True
        # ...then the process dies before the batch commits
        store.close()

        store2 = DurableKV(store_path)
        engine2 = build_engine(store2, clock)
        engine2.recover()
        recovered = engine2.instance(instance_id)
        # consistent pre-completion state: no variable from the completion,
        # the work item still live, the token still parked at the task
        assert recovered.state is InstanceState.RUNNING
        assert recovered.variables == {"amount": 5}
        assert "approved" not in recovered.variables
        assert "done" not in recovered.variables
        item = engine2.worklist.item(item_id)
        assert not item.state.is_terminal
        assert recovered.tokens[0].node_id == "review"
        # and the run can redo the completion to the same end state
        engine2.complete_work_item(item_id, {"approved": True})
        assert recovered.state is InstanceState.COMPLETED
        assert recovered.variables["done"] is True
        store2.close()


class FailingCommitKV(DurableKV):
    """DurableKV whose n-th ``commit()`` (1-based) raises, once."""

    def __init__(self, directory, fail_on):
        super().__init__(directory)
        self.commits = 0
        self.fail_on = fail_on

    def commit(self):
        self.commits += 1
        if self.commits == self.fail_on:
            self.rollback()
            raise OSError("disk full")
        super().commit()


class TestDeployCrashAtomicity:
    """The definition record and the version table commit together, with
    the deploy's dispatch-log entry: a crash leaves both or neither."""

    def test_failed_deploy_commit_leaves_no_half_deployment(self, store_path):
        clock = VirtualClock(0)
        store = FailingCommitKV(store_path, fail_on=2)
        engine = build_engine(store, clock)
        assert engine.deploy(approval_model()) == "approval:1"
        with pytest.raises(OSError):
            engine.deploy(approval_model())  # v2: its one commit fails
        store.close()  # crash: drop the engine with v2 uncommitted

        store2 = DurableKV(store_path)
        engine2 = build_engine(store2, clock)
        assert engine2.recover()["definitions"] == 1
        assert store2.keys("definition/") == ["definition/approval:1"]
        assert store2.get("engine/latest_versions") == {"approval": 1}
        assert engine2.definition("approval").version == 1
        # the redeploy mints the version the lost deploy never persisted
        assert engine2.deploy(approval_model()) == "approval:2"
        assert engine2.definition("approval").version == 2
        store2.close()

    def test_deploy_is_one_store_commit(self, store_path):
        store = FailingCommitKV(store_path, fail_on=0)
        engine = build_engine(store, VirtualClock(0))
        engine.deploy(approval_model())
        assert store.commits == 1
        store.close()

    def test_recover_derives_versions_from_a_torn_legacy_deploy(self, store_path):
        """A store torn by the old two-put deploy — definition written,
        version table not — still recovers a findable definition and
        never re-mints its version."""
        clock = VirtualClock(0)
        store = DurableKV(store_path)
        engine = build_engine(store, clock)
        engine.deploy(approval_model())
        engine.deploy(approval_model())
        store.put("engine/latest_versions", {"approval": 1})  # the tear
        store.close()

        store2 = DurableKV(store_path)
        engine2 = build_engine(store2, clock)
        engine2.recover()
        assert engine2.definition("approval").version == 2
        assert engine2.deploy(approval_model()) == "approval:3"
        store2.close()


class TestFailedCommitRetries:
    """A commit that raises leaves the whole write-set pending: the next
    flush persists the full state, and only then do invocation records
    reach the pool."""

    def test_failed_commit_keeps_everything_and_retry_persists_it(self, store_path):
        from repro.workers import WorkerPool

        model = (
            ProcessBuilder("svc")
            .start()
            .service_task("call", service="echo", inputs={"n": "n"})
            .end()
            .build()
        )
        clock = VirtualClock(0)
        store = FailingCommitKV(store_path, fail_on=2)
        engine = build_engine(store, clock)
        engine.services.register("echo", lambda n: n)
        pool = WorkerPool(workers=0)
        engine.attach_workers(pool)
        engine.deploy(model)  # commit 1

        with pytest.raises(OSError):
            engine.start_instance("svc", {"n": 1})  # commit 2 fails
        # nothing reached the store, nothing reached the pool, and the
        # write-set still holds every record of the failed dispatch
        assert store.keys("instance/") == []
        assert store.keys("invocation/") == []
        assert pool.status()["queued"] == {}
        assert engine.has_pending_writes()
        pending = len(engine._writes)
        assert pending >= 4  # instance, invocation, dispatch entry, meta

        engine.flush()  # the retry commits the full state
        assert len(engine._writes) == 0
        assert not engine.has_pending_writes()
        assert len(store.keys("instance/")) == 1
        assert len(store.keys("invocation/")) == 1
        assert len(store.keys("dispatch/")) == 2
        assert store.get("engine/meta")["instance_seq"] == 1
        # ...and only now was the committed invocation submitted
        assert pool.status()["queued"] == {"echo": 1}
        command = pool.run_next()
        assert command.outcome == "success"
        assert engine.instances()[0].state is InstanceState.COMPLETED
        pool.close()
        store.close()

        store2 = DurableKV(store_path)
        engine2 = build_engine(store2, clock)
        counts = engine2.recover()
        assert counts["instances"] == 1 and counts["invocations"] == 0
        assert engine2.instances()[0].state is InstanceState.COMPLETED
        store2.close()

    def test_views_confirm_only_after_a_successful_commit(self, store_path):
        clock = VirtualClock(0)
        store = FailingCommitKV(store_path, fail_on=3)
        engine = build_engine(store, clock)
        engine.deploy(approval_model())  # commit 1
        engine.start_instance("approval")  # commit 2
        persisted = engine.views.persisted_seq
        with pytest.raises(OSError):
            engine.flush()  # commit 3: the forced view drain fails
        assert engine.views.persisted_seq == persisted
        assert store.get("view/__cursor") is None
        engine.flush()
        assert engine.views.persisted_seq == engine.dispatch_log.seq
        assert store.get("view/__cursor") == {"seq": engine.dispatch_log.seq}
        store.close()


class TestWorklistOrderSurvivesRestart:
    def test_recovered_items_iterate_in_creation_order(self, store_path):
        """Store keys sort lexically (wi-10 before wi-2); the worklist
        must still come back in creation order."""
        clock = VirtualClock(0)
        store = DurableKV(store_path)
        engine = build_engine(store, clock)
        engine.deploy(approval_model())
        for _ in range(12):
            engine.start_instance("approval")
        before = [item.id for item in engine.worklist.items()]
        assert before == [f"wi-{n}" for n in range(1, 13)]
        store.close()

        store2 = DurableKV(store_path)
        engine2 = build_engine(store2, clock)
        engine2.recover()
        assert [item.id for item in engine2.worklist.items()] == before
        # and new ids continue after the highest recovered one
        engine2.start_instance("approval")
        assert engine2.worklist.items()[-1].id == "wi-13"
        store2.close()


class TestStoreHoldsWhatWasCommitted:
    """A deferred in-place write must not reach the store before its
    commit — also on a store that keeps value objects (MemoryKV)."""

    @pytest.mark.parametrize("kind", ["memory", "durable"])
    def test_uncommitted_completion_is_not_recovered(self, kind, store_path):
        clock = VirtualClock(0)
        store = MemoryKV() if kind == "memory" else DurableKV(store_path)
        engine = ProcessEngine(
            clock=clock,
            store=store,
            allocator=ShortestQueueAllocator(),
            commit_interval=1000,
        )
        engine.organization.add("ana", roles=["clerk"])
        engine.deploy(approval_model())
        started = engine.start_instance("approval", {"a": 1})
        engine.flush()
        item_id = engine.worklist.items()[0].id
        engine.start_work_item(item_id)
        engine.complete_work_item(item_id, {"x": 99})  # deferred, never committed
        assert started.state is InstanceState.COMPLETED
        if kind == "durable":
            store.close()  # crash
            store = DurableKV(store_path)

        recovered = build_engine(store, clock)
        recovered.recover()
        instance = recovered.instance(started.id)
        assert instance.variables == {"a": 1}
        assert instance.variables is not started.variables
        assert instance.state is InstanceState.RUNNING
        assert [token.node_id for token in instance.tokens] == ["review"]
        assert recovered.worklist.item(item_id).result == {}
        store.close()

    @pytest.mark.parametrize("kind", ["memory", "durable"])
    def test_uncommitted_compensation_is_not_recovered(self, kind, store_path):
        """A finished case's stored record may share its variables (they
        are only ever rebound once finished): compensating it without a
        commit must still leave the store as committed."""
        from repro.model.elements import ServiceTask

        builder = ProcessBuilder("paid")
        builder.add_node(
            ServiceTask("refund", service="refund", output_variable="refunded")
        )
        builder.start()
        builder.script_task("charge", script="paid = 40", compensation_handler="refund")
        builder.end()
        clock = VirtualClock(0)
        store = MemoryKV() if kind == "memory" else DurableKV(store_path)
        engine = ProcessEngine(clock=clock, store=store, commit_interval=1000)
        engine.services.register("refund", lambda: "yes")
        engine.deploy(builder.build())
        done = engine.start_instance("paid")
        engine.flush()
        engine.compensate_instance(done.id)  # deferred, never committed
        assert done.variables == {"paid": 40, "refunded": "yes"}
        if kind == "durable":
            store.close()  # crash
            store = DurableKV(store_path)

        recovered = ProcessEngine(clock=clock, store=store)
        recovered.recover()
        instance = recovered.instance(done.id)
        assert instance.variables == {"paid": 40}
        assert instance.compensations == [
            {"node_id": "charge", "handler_id": "refund"}
        ]
        store.close()


class TestPersistenceDetail:
    def test_instance_state_persisted_per_operation(self, store_path):
        clock = VirtualClock(0)
        store = DurableKV(store_path)
        engine = build_engine(store, clock)
        engine.deploy(approval_model())
        instance = engine.start_instance("approval")
        raw = store.get(f"instance/{instance.id}")
        assert raw is not None
        assert raw["state"] == "running"
        assert raw["tokens"][0]["node_id"] == "review"
        store.close()

    def test_work_items_persisted(self, store_path):
        clock = VirtualClock(0)
        store = DurableKV(store_path)
        engine = build_engine(store, clock)
        engine.deploy(approval_model())
        engine.start_instance("approval")
        items = [raw for _, raw in store.scan("workitem/")]
        assert len(items) == 1
        assert items[0]["node_id"] == "review"
        store.close()

    def test_definition_persisted_roundtrip(self, store_path):
        from repro.model.serialization import definition_from_dict

        clock = VirtualClock(0)
        store = DurableKV(store_path)
        engine = build_engine(store, clock)
        engine.deploy(approval_model())
        raw = store.get("definition/approval:1")
        definition = definition_from_dict(raw)
        assert definition.identifier == "approval:1"
        assert set(definition.nodes) == {"start", "review", "after", "end"}
        store.close()
