"""Append-only event store with per-stream indexes.

The history service (:mod:`repro.history`) records every engine state
change as an event.  Events are grouped into *streams* (one per process
instance) and globally sequenced.  This is the system's *audit* data, kept
as flat columns apart from the control data the engine runs on (DESIGN.md
§History & audit log).  The store is backed by a
:class:`~repro.storage.journal.Journal` when given a path, or kept purely
in memory otherwise.
"""

from __future__ import annotations

import sys
import time
from array import array
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator

from repro.storage.errors import StorageError
from repro.storage.journal import Journal
from repro.storage.serializers import json_decode, json_encode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import Observability


@dataclass(frozen=True, slots=True)
class EventRecord:
    """One immutable event, materialised from the log's columns on read."""

    sequence: int
    stream: str
    type: str
    timestamp: float
    data: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "sequence": self.sequence,
            "stream": self.stream,
            "type": self.type,
            "timestamp": self.timestamp,
            "data": self.data,
        }

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "EventRecord":
        return cls(
            sequence=raw["sequence"],
            stream=raw["stream"],
            type=raw["type"],
            timestamp=raw["timestamp"],
            data=raw.get("data", {}),
        )


class EventStore:
    """Globally ordered, stream-indexed, append-only event log.

    Events are rows of parallel columns, not objects: appending allocates
    one tuple of the event's values and nothing the cyclic collector has to
    keep visiting.  Row ``i`` is the event with sequence ``i``.  Appends
    are serialized by the caller (the engine's dispatch lock); readers
    take no lock, so the values column is appended *last*, ``len()`` reads
    it, and every reader bounds itself by one ``len()`` — a row is visible
    only once all its columns are.
    """

    def __init__(
        self,
        path: str | None = None,
        sync_writes: bool = False,
        obs: "Observability | None" = None,
    ) -> None:
        self._time_col = array("d")
        self._stream_col: list[str] = []
        self._type_col: list[str] = []
        # an event's data is a key-shape tuple (one shared object per
        # distinct key sequence) and a tuple of its values
        self._keys_col: list[tuple[str, ...]] = []
        self._values_col: list[tuple[Any, ...]] = []
        self._shapes: dict[tuple[str, ...], tuple[str, ...]] = {}
        self._streams: dict[str, array[int]] = {}
        self._journal: Journal | None = None
        self.sync_writes = sync_writes
        self._obs = obs
        self._h_append = None
        if path is not None:
            journal = Journal(path, auto_recover=False, obs=obs)
            # replayed through append() before the journal and the append
            # histogram are attached; every decoded record brings its own
            # str objects, so share them.  recover() is the crash-safe
            # open and the replay in one pass over the file.
            for record in journal.recover():
                raw = json_decode(record.payload)
                if raw["sequence"] != len(self):
                    raise StorageError(
                        f"event sequence gap: expected {len(self)}, "
                        f"got {raw['sequence']}"
                    )
                self.append(
                    sys.intern(raw["stream"]),
                    sys.intern(raw["type"]),
                    raw["timestamp"],
                    raw.get("data"),
                )
            self._journal = journal
        if obs is not None:
            self._h_append = obs.registry.histogram(
                "storage.eventstore.append_seconds"
            )

    # -- writing ------------------------------------------------------------

    def append(
        self,
        stream: str,
        event_type: str,
        timestamp: float,
        data: dict[str, Any] | None = None,
    ) -> int:
        """Append one event; returns its sequence number."""
        if not stream or not event_type:
            raise StorageError("stream and event_type must be non-empty")
        started = time.perf_counter() if self._h_append is not None else 0.0
        sequence = len(self._values_col)
        if self._journal is not None:
            timestamp = float(timestamp)
            self._journal.append(
                json_encode(
                    {
                        "sequence": sequence,
                        "stream": stream,
                        "type": event_type,
                        "timestamp": timestamp,
                        "data": data or {},
                    }
                ),
                sync=self.sync_writes,
            )
        if data:
            keys = tuple(data)
            keys = self._shapes.setdefault(keys, keys)
            values = tuple(data.values())
        else:
            keys = values = ()
        # first the one append that can reject its argument (a non-number),
        # so that a refused event moves no column
        self._time_col.append(timestamp)
        self._stream_col.append(stream)
        self._type_col.append(event_type)
        self._keys_col.append(keys)
        index = self._streams.get(stream)
        if index is None:
            index = self._streams[stream] = array("q")
        index.append(sequence)
        self._values_col.append(values)  # last: publishes the row
        if self._h_append is not None:
            self._h_append.observe(time.perf_counter() - started)
        return sequence

    def sync(self) -> None:
        """Fsync buffered events when journal-backed."""
        if self._journal is not None:
            self._journal.sync()

    # -- reading ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._values_col)

    def _row(self, sequence: int) -> EventRecord:
        return EventRecord(
            sequence,
            self._stream_col[sequence],
            self._type_col[sequence],
            self._time_col[sequence],
            dict(zip(self._keys_col[sequence], self._values_col[sequence])),
        )

    def all(self) -> Iterator[EventRecord]:
        """All events in global order."""
        return map(self._row, range(len(self)))

    def stream(self, stream: str) -> list[EventRecord]:
        """All events of one stream, in order."""
        visible = len(self)
        return [self._row(i) for i in self._streams.get(stream, ()) if i < visible]

    def streams(self) -> list[str]:
        """All stream names, sorted."""
        return sorted(self._streams)

    def of_type(self, event_type: str) -> list[EventRecord]:
        """All events of a given type, in global order."""
        types = self._type_col
        return [self._row(i) for i in range(len(self)) if types[i] == event_type]

    def since(self, sequence: int) -> list[EventRecord]:
        """Events with ``sequence >= sequence`` (catch-up reads)."""
        return [self._row(i) for i in range(len(self))[sequence:]]

    def close(self) -> None:
        """Close the backing journal, if any."""
        if self._journal is not None:
            self._journal.close()
