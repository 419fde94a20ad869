"""The composed system on stores that checkpoint themselves mid-run.

A 3-shard durable cluster (manual worker pool, views on) runs port cases
with the checkpoint floor shrunk, so every shard's store snapshots and
resets its journal several times *while* cases are in flight — once
between a pooled invocation's enqueue and its completion, once between
an outbox put and its drain.  A restart must then read back exactly the
state that was closed, from a journal tail the policy bounds.
"""

import hashlib

import pytest

from repro.clock import VirtualClock
from repro.cluster import ShardedEngine, parse_shard_tag, shard_of_key
from repro.engine.instance import InstanceState
from repro.model.builder import ProcessBuilder
from repro.storage import kvstore
from repro.storage.kvstore import DurableKV
from repro.storage.serializers import json_encode
from repro.workers import WorkerPool

SHARDS = 3
FLOOR = 1024
CASES_PER_EPOCH = 24


def port_case():
    """Pooled customs call, inspection (a boundary timer keeps a scheduler
    job alive while it is open), then a message to the carrier's shard."""
    return (
        ProcessBuilder("port")
        .start()
        .service_task(
            "declare", service="customs", inputs={"key": "key"}, output_variable="cleared"
        )
        .user_task("inspect", role="inspector")
        .send_task("release", message_name="pickup", payload_expression="notice")
        .end()
        .boundary_timer("overdue", attached_to="inspect", duration=86_400)
        .end("escalated")
        .build()
    )


def carrier():
    return (
        ProcessBuilder("carrier")
        .start()
        .receive_task("await", message_name="pickup", correlation_expression="key")
        .end()
        .build()
    )


def yard_move():
    """Filler traffic: commits on one shard, no service, no message."""
    return (
        ProcessBuilder("yard")
        .start()
        .script_task("plan", script="slot = n * 7")
        .user_task("move", role="inspector")
        .end()
        .build()
    )


def key_on_shard(shard, salt):
    for n in range(10_000):
        key = f"{salt}-{n}"
        if shard_of_key(key, SHARDS) == shard:
            return key
    raise AssertionError("no key found")  # pragma: no cover


def state_digest(cluster):
    """Instances, work items, jobs and outbox of a quiet cluster."""
    digest = hashlib.sha256()
    for shard in cluster.shards:
        digest.update(
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
    return digest.hexdigest()


class Port:
    """The cluster under test and the client that drives cases through it."""

    def __init__(self, root):
        self.root = root
        self.open()

    def open(self):
        self.pool = WorkerPool(workers=0)
        self.cluster = ShardedEngine(
            shards=SHARDS,
            store_factory=lambda i: DurableKV(str(self.root / f"shard-{i}")),
            clock=VirtualClock(0),
            workers=self.pool,
            # a short command log, pruned as in a long-running system:
            # unpruned it is most of the live bytes of so few cases, and
            # a journal of mostly-live records is not worth copying
            dispatch_log_retention=8,
        )
        self.cluster.organization.add("ines", roles=["inspector"])
        self.cluster.services.register("customs", lambda key: f"cleared:{key}")
        self.stores = [shard.store for shard in self.cluster.shards]

    def checkpoints(self):
        return [store.checkpoints for store in self.stores]

    # -- one case, in the four steps a window can open between ---------------

    def start(self, key, shard):
        carrier_shard = (shard + 1) % SHARDS
        waiting = self.cluster.start_instance(
            "carrier", {"key": key}, business_key=key_on_shard(carrier_shard, key)
        )
        case = self.cluster.start_instance(
            "port",
            {"key": key, "notice": {"correlation": key}},
            business_key=key_on_shard(shard, key),
        )
        assert parse_shard_tag(case.id) == shard
        assert self.cluster.shards[shard].ledger.pending_count >= 1
        return case.id, waiting.id

    def run_service(self):
        command = self.pool.run_next()
        assert command is not None and command.outcome == "success"

    def inspect(self, instance_id):
        instance = self.cluster.instance(instance_id)
        (token,) = instance.tokens
        item_id = token.waiting_on["work_item_id"]
        self.cluster.claim_work_item(item_id, "ines")
        self.cluster.start_work_item(item_id)
        self.cluster.complete_work_item(item_id)

    def finished(self, case_id, carrier_id, key):
        case = self.cluster.instance(case_id)
        assert case.state is InstanceState.COMPLETED
        assert case.variables["cleared"] == f"cleared:{key}"
        assert self.cluster.instance(carrier_id).state is InstanceState.COMPLETED

    def case(self, key, shard):
        case_id, carrier_id = self.start(key, shard)
        self.run_service()
        self.inspect(case_id)
        self.finished(case_id, carrier_id, key)

    def churn_until_checkpoint(self, shard, salt):
        """Filler cases on one shard until its store checkpoints itself."""
        before = self.stores[shard].checkpoints
        for n in range(400):
            move = self.cluster.start_instance(
                "yard", {"n": n}, business_key=key_on_shard(shard, f"{salt}-{n}")
            )
            self.inspect(move.id)
            if self.stores[shard].checkpoints > before:
                return
        raise AssertionError("the store never checkpointed")  # pragma: no cover

    # -- an epoch ------------------------------------------------------------

    def epoch(self, name):
        for n in range(CASES_PER_EPOCH):
            self.case(f"{name}-{n}", shard=n % SHARDS)

        # a checkpoint between a pooled invocation's enqueue and its completion
        case_id, carrier_id = self.start(f"{name}-pooled", shard=0)
        self.churn_until_checkpoint(0, f"{name}-a")
        assert self.cluster.instance(case_id).state is InstanceState.RUNNING
        self.run_service()
        self.inspect(case_id)
        self.finished(case_id, carrier_id, f"{name}-pooled")

        # ... and one between an outbox put and its drain
        case_id, carrier_id = self.start(f"{name}-outbox", shard=1)
        self.run_service()
        with self.cluster._drain_lock:  # a concurrent drainer owns the backlog
            self.inspect(case_id)
            assert len(self.cluster.shards[1].outbox) == 1
            self.churn_until_checkpoint(1, f"{name}-b")
            assert self.cluster.instance(carrier_id).state is InstanceState.RUNNING
        self.cluster._drain_forwards()
        self.finished(case_id, carrier_id, f"{name}-outbox")

        # left in flight across the restart: an enqueued invocation, an
        # open work item under its timer job, carriers still waiting
        held, _ = self.start(f"{name}-held", shard=0)
        self.run_service()
        assert self.cluster.instance(held).tokens[0].waiting_on["reason"] == "user_task"
        self.start(f"{name}-queued", shard=2)

    def restart(self):
        """Close, reopen, recover; returns the reopened stores' replay counts."""
        self.cluster.flush()
        before = state_digest(self.cluster)
        dispatches = [
            self.cluster.obs.registry.counter(f"cluster.shard.dispatches.{i}").value
            for i in range(SHARDS)
        ]
        live = [store._live_bytes for store in self.stores]
        self.cluster.close()
        self.open()
        counts = self.cluster.recover()
        assert state_digest(self.cluster) == before
        assert counts["jobs"] >= 1 and counts["workitems"] >= 1
        for index, store in enumerate(self.stores):
            # the policy's bound: what a reopen replays is the journal
            # since the last checkpoint, below max(floor, 2 x live bytes)
            # plus the batch that crossed it — never the whole history
            assert store.journal_size < max(FLOOR, 2 * live[index]) + 16 * 1024
            assert 0 < store.replayed_batches < dispatches[index]
        return [store.replayed_batches for store in self.stores]


@pytest.fixture
def port(tmp_path, monkeypatch):
    monkeypatch.setattr(kvstore, "CHECKPOINT_FLOOR", FLOOR)
    port = Port(tmp_path)
    for build in (port_case, carrier, yard_move):
        port.cluster.deploy(build())
    yield port
    port.cluster.close()


def test_cluster_restarts_from_self_checkpointed_stores(port):
    port.epoch("first")
    assert all(count >= 3 for count in port.checkpoints()), port.checkpoints()
    assert all(store.checkpoint_failures == 0 for store in port.stores)
    port.restart()

    # the recovered cluster carries on: the queued invocation re-enqueued
    # by recover() runs first, then a whole second epoch on top
    assert port.cluster.shards[2].ledger.pending_count == 1
    port.run_service()
    assert port.cluster.shards[2].ledger.pending_count == 0
    port.epoch("second")
    assert all(count >= 1 for count in port.checkpoints()), port.checkpoints()
    port.restart()
    # the recovered read models agree with the shard tables
    views, shards = port.cluster.views, port.cluster.shards
    for state in (InstanceState.RUNNING, InstanceState.COMPLETED):
        assert {i.id for i in port.cluster.instances(state)} == {
            i.id for shard in shards for i in shard.instances(state)
        }
    # open: both epochs' held cases and the first epoch's queued one
    assert views.open_work_items() == sum(s.worklist.open_count for s in shards) == 3
