"""Recovery decodes exactly the live set and reads O(live + pages).

A restart constructs objects only for the instances and work items the
read models list as live; any other stored case stays on disk and is
read through on first use.  Counted here by wrapping the two decoders
(``ProcessInstance.from_dict``, ``WorkItem.from_dict``) around
``recover()`` on a 3-shard cluster over ``DurableKV`` and over ``MemoryKV``,
in each of the views' recovery modes.  Tail replay and rebuild compact
the stored records themselves (as the offline rebuild does), so no mode
constructs a finished case.  The stores count their reads: the view
image costs one value per live entity, one per rank page of finished
ones, and a constant, and nothing lists the ``instance/`` or
``workitem/`` keys.
"""

import dataclasses
import hashlib
import math

import pytest

from repro.clock import VirtualClock
from repro.cluster import ShardedEngine
from repro.engine.errors import InstanceNotFoundError
from repro.engine.instance import InstanceState, ProcessInstance
from repro.model.builder import ProcessBuilder
from repro.model.elements import ScriptTask
from repro.storage.serializers import json_encode
from repro.views.projections import PAGE
from repro.workers import WorkerPool
from repro.worklist.allocation import ShortestQueueAllocator
from repro.worklist.errors import UnknownWorkItemError
from repro.worklist.items import WorkItem

from tests.counting_kv import CountingDurableKV, CountingKV

SHARDS = 3


def approval_model():
    return (
        ProcessBuilder("approval")
        .start()
        .user_task("review", role="clerk")
        .script_task("after", script="done = true")
        .end()
        .build()
    )


def auto_model():
    return (
        ProcessBuilder("auto")
        .start()
        .script_task("work", script="doubled = n * 2")
        .end()
        .build()
    )


def trip_model():
    """Two steps, each with an undo handler (saga compensation)."""
    builder = ProcessBuilder("trip")
    builder.add_node(ScriptTask("cancel_flight", script="order = order + 'F'"))
    builder.add_node(ScriptTask("cancel_hotel", script="order = order + 'H'"))
    builder.start()
    builder.script_task(
        "book_flight", script="flight = 1", compensation_handler="cancel_flight"
    )
    builder.script_task(
        "book_hotel", script="hotel = 1", compensation_handler="cancel_hotel"
    )
    builder.end()
    return builder.build()


def service_model():
    return (
        ProcessBuilder("svc")
        .start()
        .service_task("call", service="double", inputs={"n": "n"}, output_variable="out")
        .end()
        .build()
    )


class Stores:
    """One store per shard that outlives a cluster: DurableKV directories
    reopened, or the MemoryKV objects themselves handed over."""

    def __init__(self, kind, root):
        self.kind = kind
        self.root = root
        self.memory = [CountingKV() for _ in range(SHARDS)]

    def open(self, index):
        if self.kind == "memory":
            return self.memory[index]
        return CountingDurableKV(str(self.root / f"shard-{index}"))

    def edit(self, change):
        """Apply ``change(store)`` to every closed shard store."""
        for index in range(SHARDS):
            store = self.open(index)
            change(store)
            store.close()


def build(stores, pool=None):
    cluster = ShardedEngine(
        SHARDS,
        store_factory=stores.open,
        clock=VirtualClock(0),
        allocator=ShortestQueueAllocator(),
        workers=pool,
    )
    cluster.organization.add("ana", roles=["clerk"])
    cluster.services.register("double", lambda n: n * 2)
    return cluster


def work(cluster, item_id):
    cluster.start_work_item(item_id)
    cluster.complete_work_item(item_id, {"ok": True})


def item_of(cluster, instance):
    return cluster.instance(instance.id).tokens[0].waiting_on["work_item_id"]


def run_cases(cluster, serial, parked=0, suspended=0):
    """Deploys (once), then finishes cases of every kind; leaves
    ``parked`` approvals at their user task and ``suspended`` suspended.
    Returns the ids a later check needs."""
    if not cluster.definitions():
        for model in (approval_model(), auto_model(), trip_model()):
            cluster.deploy(model)
    ids = {}
    for n in range(6):
        done = cluster.start_instance("approval", business_key=f"bk-{serial}-{n}")
        work(cluster, item_of(cluster, done))
        ids.setdefault("completed", done.id)
        cluster.start_instance("auto", {"n": n})
    doomed = cluster.start_instance("approval", business_key=f"bk-{serial}-t")
    cluster.terminate_instance(doomed.id)
    ids["trip"] = cluster.start_instance("trip", {"order": ""}).id
    for n in range(parked):
        cluster.start_instance("approval", business_key=f"bk-{serial}-p{n}")
    for n in range(suspended):
        held = cluster.start_instance("approval", business_key=f"bk-{serial}-s{n}")
        cluster.suspend_instance(held.id)
    return ids


def digest(cluster):
    """Instances, work items, jobs and outbox of a quiet cluster."""
    found = hashlib.sha256()
    for shard in cluster.shards:
        found.update(
            json_encode(
                {
                    "instances": [i.to_dict() for i in shard.instances()],
                    "items": sorted(
                        (i.to_dict() for i in shard.worklist.items()),
                        key=lambda raw: raw["id"],
                    ),
                    "jobs": shard.scheduler.export(),
                    "outbox": [r.to_dict() for r in shard.outbox_records()],
                }
            )
        )
    return found.hexdigest()


def live_sets(cluster):
    return (
        {i.id for i in cluster.instances() if not i.state.is_finished},
        {i.id for i in cluster.work_items() if not i.state.is_terminal},
    )


@pytest.fixture
def decoded(monkeypatch):
    """Ids passed through each decoder since the last ``clear()``."""
    seen = {"instances": [], "items": []}
    for cls, bucket in ((ProcessInstance, "instances"), (WorkItem, "items")):
        original = cls.from_dict

        def counted(raw, original=original, bucket=bucket):
            seen[bucket].append(raw["id"])
            return original(raw)

        monkeypatch.setattr(cls, "from_dict", counted)
    seen["clear"] = lambda: [seen[k].clear() for k in ("instances", "items")]
    return seen


@pytest.fixture(params=["durable", "memory"])
def stores(request, tmp_path):
    return Stores(request.param, tmp_path)


def crash(cluster):
    """Drop the cluster without its closing flush."""
    for shard in cluster.shards:
        shard.store.close()


def recover_counted(cluster):
    """``recover()``, checking each shard's store reads against the
    O(live + pages) bound; returns the ``view/`` values each shard read."""
    for shard in cluster.shards:
        shard.store.reset_counts()
    cluster.recover()
    reads = []
    for shard in cluster.shards:
        store, views = shard.store, shard.views
        assert not {"instance/", "workitem/"} & set(store.keys_prefixes)
        # the cursor and one record per definition
        bound = 1 + views.def_stats.record_count()
        for table in (views.by_state, views.worklist):
            finished = table.record_count() - len(table.records)
            bound += len(table.records) + math.ceil(finished / PAGE)
        assert store.reads["view/"] <= bound
        reads.append(store.reads["view/"])
    return reads


def delete_views(store):
    with store.transaction():
        for key in store.keys("view/"):
            store.delete(key)


SCENARIOS = {
    # the port workloads' end of epoch: every case finished
    "quiesced": dict(parked=0, suspended=0),
    # ops_mixed-like: parked and suspended cases beside finished ones
    "mixed": dict(parked=4, suspended=3),
}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("mode", ["load", "tail", "rebuild"])
def test_recover_decodes_exactly_the_live_set(stores, decoded, scenario, mode):
    cluster = build(stores)
    run_cases(cluster, 0, **SCENARIOS[scenario])
    if mode == "tail":
        cluster.flush()  # cursors current ...
        for n in range(SHARDS):  # ... then one more case on every shard
            cluster.start_instance("auto", {"n": n})
    live_instances, live_items = live_sets(cluster)
    if scenario == "quiesced":
        assert live_instances == set() and live_items == set()
    else:
        assert len(live_instances) == 7 and len(live_items) == 7
    before = digest(cluster)
    if mode == "tail":
        crash(cluster)
    else:
        cluster.close()
    if mode == "rebuild":
        stores.edit(delete_views)

    decoded["clear"]()
    recovered = build(stores)
    first = recover_counted(recovered)
    modes = {shard.views.recovered_mode for shard in recovered.shards}
    assert modes == {mode}
    assert sorted(decoded["instances"]) == sorted(live_instances)
    assert sorted(decoded["items"]) == sorted(live_items)
    assert digest(recovered) == before
    recovered.close()

    # the next restart loads what this one left, within the same bound
    again = build(stores)
    second = recover_counted(again)
    assert {shard.views.recovered_mode for shard in again.shards} == {"load"}
    if mode == "load":
        assert second == first
    assert digest(again) == before
    again.close()


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_new_cases_after_recovery_decode_no_finished_record(stores, decoded, scenario):
    cluster = build(stores)
    run_cases(cluster, 0, **SCENARIOS[scenario])
    cluster.close()

    recovered = build(stores)
    recovered.recover()
    decoded["clear"]()
    run_cases(recovered, 1, parked=2, suspended=1)
    for instance in recovered.instances(InstanceState.SUSPENDED):
        recovered.resume_instance(instance.id)
    for instance in recovered.instances(InstanceState.RUNNING):
        work(recovered, item_of(recovered, instance))
    assert decoded["instances"] == [] and decoded["items"] == []
    assert recovered.instances(InstanceState.RUNNING) == []
    recovered.close()


def observe_finished_cases(cluster, pool, ids, completion):
    """What a client sees of finished cases; mutates (compensation)."""
    trip = cluster.instance(ids["trip"])
    seen = {"compensated": cluster.compensate_instance(ids["trip"])}
    seen["trip_order"] = trip.variables["order"]  # the client's own reference
    done = cluster.instance(ids["completed"])
    assert cluster.instance(done.id) is done
    assert sum(i is done for i in cluster.instances(InstanceState.COMPLETED)) == 1
    seen["by_key"] = [
        (i.id, i.state.value, i is done)
        for i in cluster.find_instances(business_key=done.business_key)
    ]
    seen["duplicate"] = cluster.dispatch(dataclasses.replace(completion, dedup_key=None))
    seen["replayed"] = cluster.dispatch(completion)
    with pytest.raises(InstanceNotFoundError):
        cluster.instance("approval-s0-999")
    with pytest.raises(UnknownWorkItemError):
        cluster.shards[0].worklist.item("wi-s0-999")
    seen["counts"] = {
        state.value: len(cluster.instances(state)) for state in InstanceState
    }
    assert pool.status()["queued"] == {}
    return seen


def finished_service_case(cluster, pool):
    cluster.deploy(service_model())
    cluster.start_instance("svc", {"n": 21})
    completion = pool.run_next()
    assert completion.outcome == "success"
    return completion


def test_finished_cases_behave_as_before_the_restart(stores, tmp_path):
    pool = WorkerPool(workers=0)
    live = build(Stores(stores.kind, tmp_path / "live"), pool)
    ids = run_cases(live, 0, parked=2, suspended=1)
    completion = finished_service_case(live, pool)
    expected = observe_finished_cases(live, pool, ids, completion)
    live.close()

    pool = WorkerPool(workers=0)
    cluster = build(stores, pool)
    assert run_cases(cluster, 0, parked=2, suspended=1) == ids
    assert finished_service_case(cluster, pool) == completion
    cluster.close()
    pool = WorkerPool(workers=0)
    recovered = build(stores, pool)
    recovered.recover()
    assert observe_finished_cases(recovered, pool, ids, completion) == expected
    assert expected["duplicate"]["status"] == "duplicate"
    assert expected["trip_order"] == "HF"
    recovered.close()
