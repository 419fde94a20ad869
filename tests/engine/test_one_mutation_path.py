"""One mutation path: a case changes only inside a command.

A command logs and commits what it changed; anything else that changed a
case would change memory alone, and a restart would undo it.  This module
holds the census of who may change case state:

* every public name of ``ProcessEngine``, ``ShardedEngine`` and an
  engine-bound ``WorklistService`` and ``JobScheduler`` is classified
  below, by introspection, so a new public name fails here until it is
  placed;
* on a ``DurableKV`` engine, a worklist or scheduler change called
  outside a command (or a restore outside ``recover()``) is refused
  before anything changes, and each ``CommandClient`` method
  leaves memory equal to what reopening the store and ``recover()``
  rebuild.
"""

import json

import pytest

from repro.clock import VirtualClock
from repro.cluster.sharded import ShardedEngine
from repro.engine.commands import CommandClient, StartInstance
from repro.engine.engine import ProcessEngine
from repro.engine.errors import EngineError
from repro.engine.jobs import JOBS_PREFIX
from repro.model.builder import ProcessBuilder
from repro.model.elements import RetryPolicy
from repro.storage.kvstore import DurableKV, MemoryKV
from repro.workers import WorkerPool
from repro.worklist.errors import WorklistError

from tests.views.conftest import trip_model

#: the mutation surface: every command constructor, and ``dispatch``
COMMANDS = {name for name in vars(CommandClient) if not name.startswith("_")}

ENGINE_SURFACE = {
    "read": {
        "definition",
        "definitions",
        "instance",
        "instances",
        "find_instances",
        "dispatch_history",
        "dead_letters",
        "workers_status",
        "outbox_records",
        "has_pending_writes",
        "message_delivery_probe",
    },
    "configuration": {
        "organization",
        "services",
        "decisions",
        "attach_workers",
        "clock",
        "obs",
        "shard_tag",
        "strict_references",
    },
    "commit control": {"batch", "flush", "recover"},
    # internal collaborators: only handlers (and recovery) change them
    "collaborator": {
        "scheduler",
        "waits",
        "ledger",
        "outbox",
        "dispatch_log",
        "views",
        "bus",
        "history",
        "store",
        "workers",
        "worklist",
        "invoker",
    },
}

CLUSTER_SURFACE = {
    "read": {
        "definition",
        "definitions",
        "instance",
        "instances",
        "find_instances",
        "work_items",
        "dead_letters",
        "workers_status",
        "status",
        "views",
    },
    "configuration": {"organization", "services", "clock", "obs", "shard_count"},
    "commit control": {"flush", "recover", "close"},
    # each shard is a ProcessEngine, classified above
    "collaborator": {"shards", "workers"},
}

WORKLIST_SURFACE = {
    # refused on a bound worklist unless a command runs
    "change": {"create_item", "claim", "start", "complete", "cancel", "escalate"},
    "read": {
        "item",
        "items",
        "queue_of",
        "offered_for_role",
        "offered_for_resource",
        "queue_lengths",
        "open_count",
        "export_items",
    },
    "configuration": {"organization", "allocator", "clock"},
    "wiring": {"bind_lock", "bind_writes", "bind_index"},
    # refused on a bound worklist unless ProcessEngine.recover() runs
    "recovery": {"load", "import_items"},
    "collaborator": {"history"},
}


SCHEDULER_SURFACE = {
    # refused on a bound scheduler unless a command runs
    "change": {"schedule", "cancel", "cancel_where", "remap_nodes", "due_jobs"},
    "read": {"next_due", "pending", "export"},
    "wiring": {"bind_lock"},
    # refused on a bound scheduler unless ProcessEngine.recover() runs
    "recovery": {"load", "import_jobs"},
}


def public_names(obj):
    return {name for name in dir(obj) if not name.startswith("_")}


def classified(surface, extra=frozenset()):
    groups = list(surface.values()) + [set(extra)]
    names = set().union(*groups)
    assert sum(map(len, groups)) == len(names), "a name is in two classes"
    return names


class TestEveryPublicNameIsClassified:
    def test_process_engine(self):
        engine = ProcessEngine()
        assert public_names(engine) == classified(ENGINE_SURFACE, COMMANDS)

    def test_sharded_engine(self):
        cluster = ShardedEngine(shards=2)
        try:
            assert public_names(cluster) == classified(CLUSTER_SURFACE, COMMANDS)
        finally:
            cluster.close()

    def test_bound_worklist(self):
        worklist = ProcessEngine().worklist
        assert public_names(worklist) == classified(WORKLIST_SURFACE)

    def test_bound_scheduler(self):
        scheduler = ProcessEngine().scheduler
        assert public_names(scheduler) == classified(SCHEDULER_SURFACE)


# -- memory equals what recovery rebuilds -----------------------------------------


def sla_model(version_tag=""):
    """A user task with a deadline under an interrupting boundary timer."""
    return (
        ProcessBuilder("sla")
        .start()
        .user_task("approve", role="clerk", due_seconds=5)
        .script_task("normal", script=f"path = 'normal{version_tag}'")
        .end("done")
        .boundary_timer("too_slow", attached_to="approve", duration=60)
        .script_task("escalate", script="path = 'escalated'")
        .end("esc_end")
        .build()
    )


def receive_model():
    return (
        ProcessBuilder("inbox")
        .start()
        .receive_task("wait", message_name="go", correlation_expression="key")
        .end()
        .build()
    )


def service_model():
    return (
        ProcessBuilder("call")
        .start()
        .service_task(
            "call",
            service="broken",
            retry=RetryPolicy(max_attempts=1, initial_backoff=0.0),
        )
        .end()
        .build()
    )


def broken():
    raise RuntimeError("down")


def build(path):
    engine = ProcessEngine(clock=VirtualClock(0), store=DurableKV(path))
    engine.organization.add("ana", roles=["clerk"])
    engine.services.register("broken", broken)
    return engine


def digest(engine):
    """Definitions, instances (state, variables, tokens), items (state,
    owner, priority, escalations), jobs, outbox records and waits."""
    state = {
        "definitions": sorted(d.identifier for d in engine.definitions()),
        "instances": {
            i.id: [i.state.value, i.variables, [t.to_dict() for t in i.tokens]]
            for i in engine.instances()
        },
        "items": {
            i.id: [i.state.value, i.allocated_to, i.priority, i.escalations]
            for i in engine.worklist.items()
        },
        "jobs": sorted(engine.scheduler.export(), key=lambda job: job["id"]),
        "outbox": [record.to_dict() for record in engine.outbox_records()],
        "waits": [wait.to_dict() for wait in engine.waits],
    }
    return json.loads(json.dumps(state, sort_keys=True))


def recovered_digest(engine, path):
    engine.store.close()
    fresh = build(path)
    fresh.recover()
    try:
        return digest(fresh)
    finally:
        fresh.store.close()


@pytest.fixture
def path(tmp_path):
    return str(tmp_path / "store")


# each would change a case if it ran: ``started`` is started,
# ``allocated`` claimed, ``offered`` unclaimed, and all three are overdue
CHANGE_CALLS = {
    "create_item": lambda wl, ids: wl.create_item(ids["instance"], "approve", "clerk"),
    "claim": lambda wl, ids: wl.claim(ids["offered"], "ana"),
    "start": lambda wl, ids: wl.start(ids["allocated"]),
    "complete": lambda wl, ids: wl.complete(ids["started"]),
    "cancel": lambda wl, ids: wl.cancel(ids["offered"]),
    "escalate": lambda wl, ids: wl.escalate(ids["allocated"]),
    # refused unless ProcessEngine.recover() runs them
    "import_items": lambda wl, ids: wl.import_items(
        [{**wl.item(ids["started"]).to_dict(), "id": "wi-9"}]
    ),
    "load": lambda wl, ids: wl.load(ids["store"], [ids["started"]], 0),
}


def test_every_change_method_has_a_row():
    assert set(CHANGE_CALLS) == WORKLIST_SURFACE["change"] | WORKLIST_SURFACE["recovery"]


@pytest.mark.parametrize("name", sorted(CHANGE_CALLS))
def test_a_worklist_change_outside_a_command_is_refused(name, path):
    engine = build(path)
    engine.deploy(sla_model())
    for _ in range(3):
        engine.start_instance("sla")
    started, allocated, offered = engine.worklist.items()
    engine.claim_work_item(started.id, "ana")
    engine.start_work_item(started.id)
    engine.claim_work_item(allocated.id, "ana")
    engine.clock.advance(10)
    ids = {
        "started": started.id,
        "allocated": allocated.id,
        "offered": offered.id,
        "instance": offered.instance_id,
        "store": engine.store,
    }
    before = digest(engine)
    with pytest.raises(WorklistError, match="commits nothing"):
        CHANGE_CALLS[name](engine.worklist, ids)
    assert digest(engine) == before
    assert recovered_digest(engine, path) == before


# each would change a job if it ran: the one started case holds the
# item's deadline job ``due`` (overdue) and its boundary timer ``timer``
SCHEDULER_CALLS = {
    "schedule": lambda s, ids: s.schedule(5, "timer", ids["instance"], {"token_id": 1}),
    "cancel": lambda s, ids: s.cancel(ids["timer"]),
    "cancel_where": lambda s, ids: s.cancel_where(lambda job: True),
    "remap_nodes": lambda s, ids: s.remap_nodes(ids["instance"], lambda node: node + "2"),
    "due_jobs": lambda s, ids: s.due_jobs(10),
    # refused unless ProcessEngine.recover() runs them
    "import_jobs": lambda s, ids: s.import_jobs([{**ids["job"], "id": "job-9"}]),
    "load": lambda s, ids: s.load(ids["store"]),
}


def test_every_scheduler_change_has_a_row():
    changes = SCHEDULER_SURFACE["change"] | SCHEDULER_SURFACE["recovery"]
    assert set(SCHEDULER_CALLS) == changes


@pytest.mark.parametrize("name", sorted(SCHEDULER_CALLS))
def test_a_scheduler_change_outside_a_command_is_refused(name, path):
    engine = build(path)
    engine.deploy(sla_model())
    instance = engine.start_instance("sla")
    engine.clock.advance(10)
    due, timer = engine.scheduler.export()
    assert (due["kind"], timer["kind"]) == ("deadline", "boundary_timer")
    other = MemoryKV()
    other.put(f"{JOBS_PREFIX}job-9", {**timer, "id": "job-9"})
    ids = {"instance": instance.id, "timer": timer["id"], "job": timer, "store": other}
    before = digest(engine)
    with pytest.raises(EngineError, match="commits nothing"):
        SCHEDULER_CALLS[name](engine.scheduler, ids)
    assert digest(engine) == before
    assert recovered_digest(engine, path) == before


def first_item(engine):
    return engine.worklist.items()[0].id


def started_sla(engine):
    engine.deploy(sla_model())
    return engine.start_instance("sla").id


def run_compensation(engine):
    engine.deploy(trip_model())
    engine.compensate_instance(engine.start_instance("trip", {"order": ""}).id)


def run_migration(engine):
    instance_id = started_sla(engine)
    engine.deploy(sla_model(version_tag="-v2"))
    engine.migrate_instance(instance_id, 2)


def run_correlation(engine):
    engine.deploy(receive_model())
    engine.start_instance("inbox", {"key": "k1"})
    engine.start_instance("inbox", {"key": "k2"})
    engine.correlate_message("go", "k1", {"answer": 42})


def run_requeue(engine):
    pool = WorkerPool(workers=0)
    engine.attach_workers(pool)
    engine.deploy(service_model())
    engine.start_instance("call")
    assert pool.run_next().outcome == "failure"
    engine.requeue_dead_letter(engine.dead_letters()[0]["id"])


def run_claim(engine):
    started_sla(engine)
    engine.claim_work_item(first_item(engine), "ana")


def run_start(engine):
    run_claim(engine)
    engine.start_work_item(first_item(engine))


def run_complete(engine):
    run_start(engine)
    engine.complete_work_item(first_item(engine), {"ok": True})


def run_suspend(engine):
    engine.suspend_instance(started_sla(engine))


def run_resume(engine):
    instance_id = started_sla(engine)
    engine.suspend_instance(instance_id)
    engine.resume_instance(instance_id)


def run_dispatch(engine):
    engine.deploy(sla_model())
    engine.dispatch(StartInstance(key="sla"))


def run_due_jobs(engine):
    started_sla(engine)
    engine.clock.advance(61)
    engine.run_due_jobs()


# one valid use of each command constructor, with the commands it needs first
SCENARIOS = {
    "dispatch": run_dispatch,
    "deploy": lambda engine: engine.deploy(sla_model()),
    "start_instance": started_sla,
    "terminate_instance": lambda engine: engine.terminate_instance(started_sla(engine)),
    "compensate_instance": run_compensation,
    "suspend_instance": run_suspend,
    "resume_instance": run_resume,
    "migrate_instance": run_migration,
    "claim_work_item": run_claim,
    "start_work_item": run_start,
    "complete_work_item": run_complete,
    "correlate_message": run_correlation,
    "requeue_dead_letter": run_requeue,
    "run_due_jobs": run_due_jobs,
    # the boundary timer fires: the item is withdrawn inside the command
    "advance_time": lambda engine: (started_sla(engine), engine.advance_time(61)),
}


def test_every_command_has_a_scenario():
    assert set(SCENARIOS) == COMMANDS


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_a_command_leaves_memory_as_recovery_rebuilds_it(name, path):
    engine = build(path)
    empty = digest(engine)
    SCENARIOS[name](engine)
    memory = digest(engine)
    assert memory != empty
    assert recovered_digest(engine, path) == memory
