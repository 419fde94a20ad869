"""A restart's cost follows live state, not history.

After a clean close, ``recover()`` reads the image cursor and the live
view records, decodes the live instances and work items, and reads no
finished-tier page (the newest page of a table excepted: the worklist's
id floor) and no finished ``instance/`` or ``workitem/`` record.  Every
read-model query then answers what it answered before the close; the
pages those answers need are read on first use.
"""

import threading
import time

import pytest

from repro.views.manager import ProjectionManager
from repro.views.projections import (
    INSTANCE_STATES,
    ITEM_STATES,
    PAGE,
)

from tests.counting_kv import CountingDurableKV, CountingKV
from tests.views.conftest import approval_model, auto_model, build_engine

FINISHED = 300
KEYS = [f"bk-{k}" for k in range(4)]


def run_history(engine):
    """Hundreds of finished cases beside a few live ones."""
    engine.deploy(approval_model())
    engine.deploy(auto_model())
    with engine.batch():
        for n in range(FINISHED):
            engine.start_instance("auto", {"n": n}, business_key=KEYS[n % 4])
        for n in range(40):
            engine.start_instance("approval", business_key=KEYS[n % 4])
        items = engine.worklist.items()
        for item in items[:30]:
            engine.start_work_item(item.id)
            engine.complete_work_item(item.id)
        engine.terminate_instance(items[30].instance_id)
    for n in range(200):  # later cases fill the newer pages
        if n % 50 == 0:
            engine.start_instance("approval", business_key=KEYS[n % 4])
        else:
            engine.start_instance("auto", {"n": n})
    engine.flush()


def answers(engine):
    views = engine.views
    return {
        "all": views.instance_ids(),
        "by_state": {state: views.instance_ids(state) for state in INSTANCE_STATES},
        "by_key": {key: views.instance_ids(business_key=key) for key in KEYS},
        "items": views.work_item_ids(),
        "items_by_state": {state: views.work_item_ids(state) for state in ITEM_STATES},
        "counts": views.instance_counts(),
        "open": views.open_work_items(),
        "stats": views.definition_stats(),
        "tables": views.status()["projections"],
    }


def live_keys(store):
    """The stored ``instance/`` and ``workitem/`` keys of live entities."""
    return {
        key
        for prefix in ("instance/", "workitem/")
        for key in store.keys(prefix)
        if store.get(key)["state"] not in ("completed", "failed", "terminated", "cancelled")
    }


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


def test_recover_reads_no_finished_page_or_record(reopen):
    store, restart = reopen
    engine = build_engine(store=store)
    run_history(engine)
    before = answers(engine)
    assert before["counts"]["completed"] > FINISHED
    pages = {
        name: sorted(
            int(key.rsplit("__p", 1)[1]) for key in store.keys(f"view/{name}/__p")
        )
        for name in ("by_state", "worklist")
    }
    assert len(pages["by_state"]) > 4
    live = live_keys(store)
    assert any(key.startswith("workitem/") for key in live)

    store = restart()
    store.reset_counts()
    recovered = build_engine(store=store)
    recovered.recover()
    assert recovered.views.recovered_mode == "load"
    read = store.read_keys
    newest = {f"view/{name}/__p{numbers[-1]}" for name, numbers in pages.items()}
    assert {key for key in read if "/__p" in key} <= newest
    assert {key for key in read if key.startswith(("instance/", "workitem/"))} <= live
    # the counts come off the cursor's census, not the pages
    assert recovered.views.instance_counts() == before["counts"]
    assert {key for key in store.read_keys if "/__p" in key} <= newest

    assert answers(recovered) == before
    store.close()


def test_first_business_key_query_reads_every_page_once(reopen):
    store, restart = reopen
    engine = build_engine(store=store)
    run_history(engine)
    expected = engine.views.ids_for_business_key("bk-1")
    pages = set(store.keys("view/by_state/__p"))

    store = restart()
    recovered = build_engine(store=store)
    recovered.recover()
    store.reset_counts()
    assert recovered.views.ids_for_business_key("bk-1") == expected
    assert sorted(store.read_keys) == sorted(pages)
    store.reset_counts()
    assert recovered.views.ids_for_business_key("bk-2")
    assert store.read_keys == []
    store.close()


class PageGate:
    """A store whose page reads from the thread named ``reader`` wait
    until ``writing`` is set, then a little longer."""

    def __init__(self, store, writing):
        self.store, self.writing = store, writing

    def keys(self, prefix=""):
        return self.store.keys(prefix)

    def get(self, key, default=None):
        if "/__p" in key and threading.current_thread().name == "reader":
            self.writing.wait(5)
            time.sleep(0.05)
        return self.store.get(key, default)


def test_a_seal_racing_a_first_page_read_is_kept():
    """A reader outside the dispatch lock reads a page for the first time
    while the writer seals into it: the sealed entity must stay."""
    store = CountingKV()
    engine = build_engine(store=store)
    run_history(engine)
    writing = threading.Event()
    manager = ProjectionManager()
    manager.load(PageGate(store, writing))
    table = manager.by_state
    key = store.keys("view/by_state/__p")[0]
    number = int(key.rsplit("__p", 1)[1])
    old = store.get(key)["id"][0]
    rank = number * PAGE + PAGE - 1
    new = {
        "id": f"late-{rank}", "rank": rank, "state": "completed", "definition": "auto",
        "business_key": None, "created_at": 0.0, "ended_at": 1.0,
    }
    assert table.pages[number] is None

    def seal():
        writing.set()
        table.apply_instances([(None, new)])

    reader = threading.Thread(target=table.record, args=(old,), name="reader")
    writer = threading.Thread(target=seal)
    reader.start()
    writer.start()
    reader.join(10)
    writer.join(10)
    assert table.record(new["id"]) == new
    assert table.record(old)["id"] == old
