"""Tests for the append-only event store."""

import pytest

from repro.storage.errors import StorageError
from repro.storage.eventstore import EventRecord, EventStore


class TestInMemory:
    def test_append_assigns_sequence(self):
        store = EventStore()
        first = store.append("inst-1", "started", timestamp=1.0)
        second = store.append("inst-1", "completed", timestamp=2.0)
        assert (first, second) == (0, 1)
        assert [e.sequence for e in store.all()] == [0, 1]
        assert len(store) == 2

    def test_stream_isolation(self):
        store = EventStore()
        store.append("a", "x", 1.0)
        store.append("b", "y", 2.0)
        store.append("a", "z", 3.0)
        assert [e.type for e in store.stream("a")] == ["x", "z"]
        assert [e.type for e in store.stream("b")] == ["y"]
        assert store.stream("missing") == []
        assert store.streams() == ["a", "b"]

    def test_of_type_and_since(self):
        store = EventStore()
        store.append("a", "started", 1.0)
        store.append("a", "node", 2.0)
        store.append("a", "node", 3.0)
        assert len(store.of_type("node")) == 2
        assert [e.sequence for e in store.since(1)] == [1, 2]

    def test_data_payload_stored(self):
        store = EventStore()
        sequence = store.append("a", "node", 1.0, data={"node_id": "approve"})
        (event,) = store.since(sequence)
        assert event.data == {"node_id": "approve"}

    def test_empty_stream_or_type_rejected(self):
        store = EventStore()
        with pytest.raises(StorageError):
            store.append("", "x", 1.0)
        with pytest.raises(StorageError):
            store.append("a", "", 1.0)

    def test_record_dict_roundtrip(self):
        event = EventRecord(0, "s", "t", 1.5, {"k": "v"})
        assert EventRecord.from_dict(event.to_dict()) == event


class TestDurable:
    def test_events_survive_reopen(self, tmp_path):
        path = str(tmp_path / "events.log")
        store = EventStore(path)
        store.append("inst-1", "started", 1.0, {"a": 1})
        store.append("inst-1", "completed", 2.0)
        store.close()

        reopened = EventStore(path)
        assert len(reopened) == 2
        assert [e.type for e in reopened.stream("inst-1")] == ["started", "completed"]
        assert list(reopened.all())[0].data == {"a": 1}
        reopened.close()

    def test_appends_continue_after_reopen(self, tmp_path):
        path = str(tmp_path / "events.log")
        store = EventStore(path)
        store.append("s", "one", 1.0)
        store.close()
        reopened = EventStore(path)
        assert reopened.append("s", "two", 2.0) == 1
        assert [e.sequence for e in reopened.stream("s")] == [0, 1]
        reopened.close()

    def test_sync_flushes(self, tmp_path):
        path = str(tmp_path / "events.log")
        store = EventStore(path, sync_writes=False)
        store.append("s", "one", 1.0)
        store.sync()
        # a second reader sees the synced event
        reader = EventStore(path)
        assert len(reader) == 1
        reader.close()
        store.close()
