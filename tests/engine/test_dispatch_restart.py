"""A restart restores the dispatch log from its keys alone.

Each ``dispatch/`` key carries its entry's zero-padded seq and, for an
applied dedup-keyed command, its dedup key, so ``recover()`` rebuilds
``seq`` and the idempotency window without decoding an entry.  An entry
is read only when something needs it: a dedup hit reads its one record,
the views' tail replay reads the entries past the image cursor, and
``dispatch_history()`` reads what it lists.  A store written before keys
named their dedup key is decoded at load, as it always was, and keeps
its idempotency window.
"""

import pytest

from repro.clock import VirtualClock
from repro.cluster import ShardedEngine
from repro.engine.instance import InstanceState
from repro.storage.kvstore import DurableKV
from repro.worklist.errors import UnknownWorkItemError

from tests.cluster.test_outbox_durability import (
    sender_model,
    send_from,
    start_waiter,
    waiter_model,
)
from tests.counting_kv import CountingDurableKV, CountingKV
from tests.views.conftest import approval_model, auto_model, build_engine


def dispatch_reads(store):
    return [key for key in store.read_keys if key.startswith("dispatch/")]


def run_commands(engine):
    """Plain, dedup-keyed and failed commands; returns the keyed results."""
    engine.deploy(approval_model())
    engine.deploy(auto_model())
    keyed = {
        f"req-{n}": engine.start_instance("auto", {"n": n}, dedup_key=f"req-{n}")
        for n in range(5)
    }
    for n in range(5):
        engine.start_instance("approval", business_key=f"bk-{n}")
    with pytest.raises(UnknownWorkItemError):
        engine.start_work_item("no-such-item", dedup_key="bad")
    item = engine.worklist.items()[0]
    engine.start_work_item(item.id, dedup_key="start-1")
    engine.flush()
    return {key: instance.id for key, instance in keyed.items()}


@pytest.fixture(params=["memory", "durable"])
def reopen(request, tmp_path):
    """``(store, reopen)``: a counting store and a callable that closes it
    and hands back the store a restart opens."""
    if request.param == "memory":
        store = CountingKV()
        return store, lambda: store
    path = str(tmp_path / "store")

    def durable():
        store.close()
        return CountingDurableKV(path)

    store = CountingDurableKV(path)
    return store, durable


def restarted(restart):
    store = restart()
    store.reset_counts()
    engine = build_engine(store=store)
    engine.recover()
    return engine, store


def test_a_clean_restart_reads_no_dispatch_value(reopen):
    store, restart = reopen
    engine = build_engine(store=store)
    run_commands(engine)
    seq = engine.dispatch_log.seq
    window = set(engine.dispatch_log.dedup)

    recovered, store = restarted(restart)
    assert recovered.views.recovered_mode == "load"
    assert dispatch_reads(store) == []
    assert recovered.dispatch_log.seq == seq
    # only applied keys: the failed command's key stays free for a retry
    assert set(recovered.dispatch_log.dedup) == window
    assert "bad" not in window


def test_a_dedup_retry_after_a_restart_reads_one_entry(reopen):
    store, restart = reopen
    engine = build_engine(store=store)
    ids = run_commands(engine)
    count = len(engine.instances())

    recovered, store = restarted(restart)
    replay = recovered.start_instance("auto", {"n": 3}, dedup_key="req-3")
    assert replay == {"instance_id": ids["req-3"], "state": "completed"}
    (read,) = dispatch_reads(store)
    assert read.startswith("dispatch/") and read.endswith("@req-3")
    assert len(recovered.instances()) == count
    # the result is kept: a second retry reads nothing
    store.reset_counts()
    assert recovered.start_instance("auto", dedup_key="req-3") == replay
    assert dispatch_reads(store) == []


def test_history_after_a_restart_equals_history_before(reopen):
    store, restart = reopen
    engine = build_engine(store=store)
    run_commands(engine)
    before = engine.dispatch_history()
    limited = engine.dispatch_history(limit=3)

    recovered, store = restarted(restart)
    assert recovered.dispatch_history() == before
    assert recovered.dispatch_history(limit=3) == limited


def test_a_crash_with_a_view_tail_reads_only_the_tail(tmp_path):
    path = str(tmp_path / "store")
    store = CountingDurableKV(path)
    engine = build_engine(store=store)
    run_commands(engine)  # ends with a forced flush: the cursor is current
    for n in range(4):  # each commits its records; the views lag
        engine.start_instance("approval", business_key=f"late-{n}")
    cursor = store.get("view/__cursor")["seq"]
    assert cursor < engine.dispatch_log.seq
    tail = [
        key for key in store.keys("dispatch/") if int(key[len("dispatch/"):][:10]) > cursor
    ]
    assert len(tail) == engine.dispatch_log.seq - cursor
    store.close()  # crash: no forced flush

    store = CountingDurableKV(path)
    recovered = build_engine(store=store)
    recovered.recover()
    assert recovered.views.recovered_mode == "tail"
    assert dispatch_reads(store) == tail
    assert len(recovered.views.instance_ids("running")) == 9


def test_a_cluster_redrain_dedups_reading_one_entry(tmp_path):
    """The origin dies after the target's delivery flushed and before
    the outbox delete: the redelivery under the same ``fwd:`` key is
    absorbed by the target's restored window, which reads that entry."""

    def factory(index):
        return CountingDurableKV(str(tmp_path / f"shard-{index}"))

    clock = VirtualClock(0)
    cluster = ShardedEngine(shards=2, store_factory=factory, clock=clock)
    cluster.deploy(waiter_model())
    cluster.deploy(sender_model())
    first = start_waiter(cluster, "X", shard=1)
    decoy = start_waiter(cluster, "X", shard=1)
    send_from(cluster, "X", shard=0)
    assert cluster.shards[0].store.keys("outbox/")
    for shard in cluster.shards:
        shard.store.close()

    recovered = ShardedEngine(shards=2, store_factory=factory, clock=clock)
    assert recovered.recover()["outbox"] == 1
    assert recovered.instance(first.id).state is InstanceState.COMPLETED
    assert recovered.instance(decoy.id).state is InstanceState.RUNNING
    target = recovered.shards[1].store
    (read,) = dispatch_reads(target)
    assert "@fwd:" in read
    assert dispatch_reads(recovered.shards[0].store) == []
    recovered.close()


def test_a_store_with_bare_seq_keys_keeps_its_window(tmp_path):
    """A store written before keys named their dedup key (``dispatch/
    <seq:010d>``, rebuilt here from a current run's records) is decoded
    at load; a retry of one of its keys replays and does not re-apply."""
    path = str(tmp_path / "store")
    engine = build_engine(store=DurableKV(path))
    ids = run_commands(engine)
    before = engine.dispatch_history()
    count = len(engine.instances())
    engine.store.close()

    offline = DurableKV(path)
    with offline.transaction():
        for key, record in list(offline.scan("dispatch/")):
            offline.delete(key)
            offline.put(f"dispatch/{record['seq']:010d}", record)
    assert all(len(key) == len("dispatch/") + 10 for key in offline.keys("dispatch/"))
    offline.close()

    store = CountingDurableKV(path)
    recovered = build_engine(store=store)
    recovered.recover()
    assert len(dispatch_reads(store)) == len(before)  # decoded at load
    assert recovered.dispatch_history() == before
    replay = recovered.start_instance("auto", {"n": 1}, dedup_key="req-1")
    assert replay == {"instance_id": ids["req-1"], "state": "completed"}
    assert len(recovered.instances()) == count
    # the first commit moves every entry to its current key
    recovered.start_instance("approval", business_key="after")
    assert all("@" in key or key.endswith(".") for key in store.keys("dispatch/"))
    assert len(store.keys("dispatch/")) == len(before) + 1
    recovered.flush()  # orderly shutdown: the image cursor catches up
    store.close()

    store = CountingDurableKV(path)
    again = build_engine(store=store)
    again.recover()
    assert dispatch_reads(store) == []
    assert again.start_instance("auto", dedup_key="req-4") == {
        "instance_id": ids["req-4"],
        "state": "completed",
    }
    assert len(again.instances()) == count + 1
    store.close()
