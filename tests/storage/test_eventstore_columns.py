"""The columnar event log against a list-of-dicts model, its allocation
budget, and its lock-free readers.

``EventStore`` keeps events as parallel columns and builds ``EventRecord``
objects only on read.  The differential test drives random appends and
reads against the obvious model — a list of record dicts — in memory and
across a close/reopen of a journal-backed store.  The budget test pins
what one recorded event retains.  The ``threads`` test races two readers
against an appending writer: a reader sees an event whole or not at all.
"""

import gc
import json
import os
import sys
import tempfile
import threading
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock import VirtualClock
from repro.history.audit import HistoryService
from repro.storage.eventstore import EventRecord, EventStore

# ------------------------------------------------------------- differential

STREAMS = ["inst-1", "inst-2", "engine", "fall-ñ", "箱-7"]
TYPES = ["node.entered", "node.completed", "workitem.created", "x"]
KEYS = ["node_id", "token_id", "is_activity", "résultat", "n"]

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**12), 10**12)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
# a small key pool repeats shapes (and orders) often; free text adds new ones
data_dicts = st.none() | st.dictionaries(
    st.sampled_from(KEYS) | st.text(max_size=3), json_values, max_size=4
)
appends = st.tuples(
    st.just("append"),
    st.sampled_from(STREAMS) | st.text(min_size=1, max_size=4),
    st.sampled_from(TYPES),
    st.integers(-(10**9), 10**9) | st.floats(allow_nan=False, allow_infinity=False),
    data_dicts,
)
reads = st.one_of(
    st.tuples(st.just("all")),
    st.tuples(st.just("len")),
    st.tuples(st.just("streams")),
    st.tuples(st.just("since"), st.integers(-4, 12)),
    st.tuples(st.just("stream"), st.sampled_from(STREAMS + ["missing"])),
    st.tuples(st.just("of_type"), st.sampled_from(TYPES + ["missing"])),
    st.tuples(st.just("mutate"), st.integers(0, 40)),
    st.tuples(st.just("reopen")),
)
operations = st.lists(appends | reads, max_size=40)


def same(records, expected):
    """Equal records, the keys of ``data`` in the same order."""
    records = list(records)
    assert [r.to_dict() for r in records] == expected
    assert [list(r.data) for r in records] == [list(e["data"]) for e in expected]
    assert records == [EventRecord.from_dict(e) for e in expected]


def run_against_model(ops, path):
    store = EventStore(path)
    model = []
    try:
        for op in ops:
            kind = op[0]
            if kind == "append":
                _, stream, event_type, timestamp, data = op
                assert store.append(stream, event_type, timestamp, data) == len(model)
                model.append(
                    {
                        "sequence": len(model),
                        "stream": stream,
                        "type": event_type,
                        "timestamp": float(timestamp),
                        "data": dict(data or {}),
                    }
                )
            elif kind == "all":
                same(store.all(), model)
            elif kind == "len":
                assert len(store) == len(model)
            elif kind == "streams":
                assert store.streams() == sorted({e["stream"] for e in model})
            elif kind == "since":
                same(store.since(op[1]), model[op[1]:])
            elif kind == "stream":
                same(store.stream(op[1]), [e for e in model if e["stream"] == op[1]])
            elif kind == "of_type":
                same(store.of_type(op[1]), [e for e in model if e["type"] == op[1]])
            elif kind == "mutate" and model:
                # a materialised record is the reader's own copy
                record = store.since(op[1] % len(model))[0]
                record.data["__scribble__"] = 1
                record.data.pop(next(iter(record.data)))
            elif kind == "reopen" and path is not None:
                store.close()
                store = EventStore(path)
                # the journal holds canonical JSON: keys come back sorted
                model = json.loads(json.dumps(model, sort_keys=True))
        same(store.all(), model)
    finally:
        store.close()


class TestAgainstListOfDicts:
    @settings(max_examples=150, deadline=None)
    @given(operations)
    def test_in_memory(self, ops):
        run_against_model(ops, None)

    @settings(max_examples=60, deadline=None)
    @given(operations)
    def test_journal_backed_across_reopen(self, ops):
        with tempfile.TemporaryDirectory() as directory:
            run_against_model(ops, os.path.join(directory, "events.log"))

    def test_non_numeric_timestamp_leaves_no_partial_row(self):
        store = EventStore()
        store.append("a", "x", 1.0, {"k": 1})
        with pytest.raises(TypeError):
            store.append("a", "x", "noon", {"k": 2})
        with pytest.raises(TypeError):
            store.append("never-seen", "x", None)
        assert store.streams() == ["a"]
        assert store.append("a", "x", 2.0, {"k": 3}) == 1
        assert [e.data["k"] for e in store.stream("a")] == [1, 3]


# --------------------------------------------------------- allocation budget

BUDGET_EVENTS = 20_000
BUDGET_BYTES_PER_EVENT = 170  # a record object + data dict per event: 342


def test_recording_an_event_retains_at_most_170_bytes():
    """What ``record`` keeps per event, the strings it is handed excluded:
    in the engine those belong to the instance, the definition and the
    token, and the log only points at them."""
    history = HistoryService(clock=VirtualClock(0))
    per_case = 73  # events of one port case
    streams = [f"container-{n}" for n in range(BUDGET_EVENTS // per_case + 1)]
    node_ids = [f"node_{n}" for n in range(12)]
    token_ids = [f"t-{n}" for n in range(BUDGET_EVENTS // 4 + 1)]
    record = history.record
    record(streams[0], "node.entered", node_id="warm", is_activity=False, token_id="up")
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for n in range(BUDGET_EVENTS):
            record(
                streams[n // per_case],
                "node.entered",
                node_id=node_ids[n % 12],
                is_activity=n % 3 == 0,
                token_id=token_ids[n // 4],
            )
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(history.store) == BUDGET_EVENTS + 1
    assert (after - before) / BUDGET_EVENTS <= BUDGET_BYTES_PER_EVENT


# ------------------------------------------------------------ racing readers


@pytest.mark.threads
def test_lock_free_readers_never_see_a_partial_row():
    """One writer, two readers, no lock: every record a reader builds is a
    whole event (``data["n"]`` was written as the event's own sequence)."""
    store = EventStore()
    total = 50_000
    failures = []
    done = threading.Event()

    def writer():
        try:
            for n in range(total):
                store.append(f"s{n // 50}", f"t{n % 3}", float(n), {"n": n})
        except Exception as exc:  # pragma: no cover - only on bugs
            failures.append(exc)
        finally:
            done.set()

    def check(record):
        n = record.sequence
        assert record.data["n"] == n
        assert (record.stream, record.type, record.timestamp) == (
            f"s{n // 50}", f"t{n % 3}", float(n),
        )

    def reader(read):
        try:
            while not done.is_set():
                for record in read():
                    check(record)
        except Exception as exc:  # pragma: no cover - only on bugs
            failures.append(exc)

    # both read the rows being written: the last ten, and the stream the
    # writer is in (fifty events each, as short as an instance's)
    readers = [
        lambda: store.since(len(store) - 10),
        lambda: store.stream(f"s{len(store) // 50}"),
    ]
    threads = [threading.Thread(target=writer)] + [
        threading.Thread(target=reader, args=(read,)) for read in readers
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures[0]
    assert len(store) == total
    for record in store.since(total - 100):
        check(record)
