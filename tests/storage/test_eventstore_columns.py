"""The columnar event log against a list-of-dicts model, its allocation
budget, its row layout, and its lock-free readers.

``EventStore`` keeps events as coded columns over one flat value list and
builds ``EventRecord`` objects only on read; a stream is a chain of
back-links through the rows.  The differential test drives random appends
over many streams and reads against the obvious model — a list of record
dicts — in memory and across a close/reopen of a journal-backed store.
The budget test pins what one recorded event retains, and the layout test
the fixed bytes of a row and of a stream.  The ``threads`` tests race
readers against an appending writer: a reader sees an event whole or not
at all, and a stream or a tail as an in-order prefix.
"""

import bisect
import gc
import json
import os
import sys
import tempfile
import threading
import time
import tracemalloc
from array import array

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
# forty numbered streams interleave many back-link chains
MANY_STREAMS = [f"c-{n}" for n in range(40)]
appends = st.tuples(
    st.just("append"),
    st.sampled_from(STREAMS)
    | st.sampled_from(MANY_STREAMS)
    | st.text(min_size=1, max_size=4),
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
    st.tuples(st.just("every_stream")),
    st.tuples(st.just("of_type"), st.sampled_from(TYPES + ["missing"])),
    st.tuples(st.just("mutate"), st.integers(0, 40)),
    st.tuples(st.just("reopen")),
)
operations = st.lists(appends | reads, max_size=60)


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
            elif kind == "every_stream":
                for name in {e["stream"] for e in model}:
                    same(store.stream(name), [e for e in model if e["stream"] == name])
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

    # each case ends with a reopen, so a journal-backed run checks it on
    # the replayed store too (whose keys come back sorted)
    SCHEMA_CASES = {
        "same keys, another order": [
            ("append", "s", "x", 1, {"a": 1, "b": 2}),
            ("append", "s", "x", 2, {"b": 3, "a": 4}),
            ("append", "s", "x", 3, {"a": 5, "b": 6}),
        ],
        "same keys, two types": [
            ("append", "s", "x", 1, {"a": 1, "b": 2}),
            ("append", "t", "y", 2, {"a": 3, "b": 4}),
            ("append", "s", "x", 3, {"a": 5, "b": 6}),
        ],
        "empty rows between full ones": [
            ("append", "s", "x", 1, {"a": 1}),
            ("append", "s", "x", 2, {}),
            ("append", "t", "y", 3, None),
            ("append", "s", "x", 4, {"a": 2, "b": [3]}),
            ("append", "t", "x", 5, {}),
            ("append", "s", "y", 6, {"b": 4}),
        ],
    }
    SCHEMA_READS = [
        ("all",),
        ("of_type", "x"),
        ("of_type", "y"),
        ("stream", "s"),
        ("since", 1),
    ]

    @pytest.mark.parametrize("case", sorted(SCHEMA_CASES))
    @pytest.mark.parametrize("journal", [False, True], ids=["memory", "journal"])
    def test_schema_cases(self, case, journal, tmp_path):
        reads = self.SCHEMA_READS
        ops = self.SCHEMA_CASES[case] + reads + [("reopen",)] + reads
        run_against_model(ops, str(tmp_path / "events.log") if journal else None)

    def test_key_order_and_type_are_part_of_the_schema(self):
        store = EventStore()
        for _, stream, event_type, timestamp, data in (
            self.SCHEMA_CASES["same keys, another order"]
            + self.SCHEMA_CASES["same keys, two types"]
        ):
            store.append(stream, event_type, timestamp, data)
        assert store._schemas == [("x", "a", "b"), ("x", "b", "a"), ("y", "a", "b")]
        assert [list(e.data) for e in store.stream("s")][:3] == [
            ["a", "b"], ["b", "a"], ["a", "b"],
        ]

    @pytest.mark.parametrize("journal", [False, True], ids=["memory", "journal"])
    def test_nested_values_are_shared_not_copied(self, journal, tmp_path):
        path = str(tmp_path / "events.log") if journal else None
        store = EventStore(path)
        items = [1, [2]]
        store.append("s", "x", 1.0, {"n": 0, "items": items})
        store.append("s", "x", 2.0, {"n": 1})
        if journal:
            store.close()
            store = EventStore(path)
        first, again = store.since(0)[0], store.since(0)[0]
        assert first.data is not again.data  # every read builds its own dict
        assert first.data["items"] is again.data["items"] == items
        assert (first.data["items"] is items) is not journal
        store.close()

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
# a record object + data dict per event: 342; a values tuple per event: 117
BUDGET_BYTES_PER_EVENT = 64


def test_recording_an_event_retains_at_most_64_bytes():
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


# ---------------------------------------------------------------- row layout

FIXED_BYTES_PER_ROW = 24  # time 8, stream code, schema code, link, row end 4


def column_bytes(store):
    """The arrays the store holds, also inside its lists, as ``(per_row,
    per_stream, count, total)``: the item bytes of the per-row columns and
    of the per-stream arrays, how many arrays there are, and their bytes."""
    arrays = [v for v in vars(store).values() if isinstance(v, array)]
    arrays += [
        a
        for v in vars(store).values()
        if isinstance(v, list)
        for a in v
        if isinstance(a, array)
    ]
    rows = [a for a in arrays if len(a) == len(store)]
    streams = [a for a in arrays if len(a) == len(store.streams())]
    return (
        sum(a.itemsize for a in rows),
        sum(a.itemsize for a in streams),
        len(arrays),
        sum(a.itemsize * len(a) for a in arrays),
    )


def test_a_row_holds_at_most_24_fixed_column_bytes():
    """A row costs its fixed columns and its values, nothing per stream but
    one 32-bit last-row entry: no array per stream, no 64-bit index."""
    store = EventStore()
    store.append("warm", "x", 0.0)
    _, _, arrays, _ = column_bytes(store)
    rows, streams = 3_000, 300
    for n in range(rows):
        store.append(f"s{n % streams}", "node.entered", float(n), {"n": n})
    per_row, per_stream, after, total = column_bytes(store)
    assert after == arrays  # opening a stream allocates no array
    assert per_row <= FIXED_BYTES_PER_ROW
    assert per_stream <= 4
    assert total == per_row * len(store) + per_stream * len(store.streams())


# ------------------------------------------------------------ racing readers


class SlowToEnd(list):
    """A code table whose iteration lets other threads run once it has
    passed the last entry: it widens the window between a reader's scan of
    the table and whatever the reader does next to the width of a sleep."""

    def __iter__(self):
        n = 0
        while n < len(self):
            yield self[n]
            n += 1
        time.sleep(1e-4)


@pytest.mark.threads
def test_lock_free_readers_never_see_a_partial_row():
    """One writer, four readers, no lock: every record a reader builds is a
    whole event, and ``of_type`` misses no row below its own bound.  The
    writer opens a stream every fifty events and, from a quarter in, a
    schema every six, so readers race new table entries too."""
    store = EventStore()
    store._schemas = SlowToEnd()
    total = 50_000
    failures = []
    done = threading.Event()

    def event(n):
        """The writer's event ``n``: stream, type, timestamp, data."""
        data = {"n": n}
        if n % 6 == 1 and n >= total // 4:  # t1, between rows of schema ("t1", "n")
            data[f"k{n}"] = n
        return f"s{n // 50}", f"t{n % 3}", float(n), data

    def writer():
        try:
            for n in range(total):
                store.append(*event(n))
        except Exception as exc:  # pragma: no cover - only on bugs
            failures.append(exc)
        finally:
            done.set()

    def check(record):
        assert (record.stream, record.type, record.timestamp, record.data) == event(
            record.sequence
        )
        assert list(record.data) == list(event(record.sequence)[3])

    def read_of_type():
        before = len(store)
        records = store.of_type("t1")
        seen = [record.sequence for record in records]
        bound = max(seen[-1] + 1 if seen else 0, before)
        assert seen == list(range(1, bound, 3))
        return records

    def read_all():
        records = list(store.all())
        assert [record.sequence for record in records] == list(range(len(records)))
        return records

    def reader(read):
        try:
            while not done.is_set():
                for record in read():
                    check(record)
        except Exception as exc:  # pragma: no cover - only on bugs
            failures.append(exc)

    # the rows being written (the last ten, and the stream the writer is
    # in, fifty events as an instance's), one type, and everything
    readers = [
        lambda: store.since(len(store) - 10),
        lambda: store.stream(f"s{len(store) // 50}"),
        read_of_type,
        read_all,
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
    assert len(read_of_type()) == len(range(1, total, 3))


class YieldFirst(array):
    """A column whose append lets other threads run first: a reader then
    meets every write the writer made before this one, and none after."""

    def append(self, value):
        time.sleep(0)
        super().append(value)


@pytest.mark.threads
def test_racing_stream_and_since_readers_see_in_order_prefixes():
    """Readers walking back-links (``stream``) and tails (``since``) while a
    writer appends to interleaved streams see, each time, an in-order
    prefix of what the writer will have written, holding at least every
    row published before the read began."""
    store = EventStore()
    store._link_col, store._end_col = YieldFirst("I"), YieldFirst("I")
    total, width = 20_000, 7
    streams = [f"s{k}" for k in range(width)]
    # row n goes to stream (n * n) % width: uneven gaps between a stream's rows
    expected = {name: [] for name in streams}
    for n in range(total):
        expected[streams[(n * n) % width]].append(n)
    failures = []
    done = threading.Event()

    def writer():
        try:
            for n in range(total):
                store.append(streams[(n * n) % width], "t", float(n), {"n": n})
        except Exception as exc:  # pragma: no cover - only on bugs
            failures.append(exc)
        finally:
            done.set()

    def stream_reader(name):
        try:
            while not done.is_set():
                published = len(store)
                records = store.stream(name)
                rows = [record.sequence for record in records]
                assert rows == expected[name][: len(rows)]
                # every row published before the call is in it
                assert len(rows) >= bisect.bisect_left(expected[name], published)
                assert all(record.data["n"] == record.sequence for record in records)
        except Exception as exc:  # pragma: no cover - only on bugs
            failures.append(exc)

    def since_reader():
        try:
            while not done.is_set():
                start = max(0, len(store) - 25)
                rows = [record.sequence for record in store.since(start)]
                assert rows == list(range(start, start + len(rows)))
        except Exception as exc:  # pragma: no cover - only on bugs
            failures.append(exc)

    threads = [threading.Thread(target=writer)]
    threads += [threading.Thread(target=stream_reader, args=(s,)) for s in streams[:3]]
    threads.append(threading.Thread(target=since_reader))
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
    for name in streams:
        assert [r.sequence for r in store.stream(name)] == expected[name]
