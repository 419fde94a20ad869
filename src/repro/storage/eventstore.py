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

import time
from array import array
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator

from repro.storage.errors import StorageError
from repro.storage.journal import Journal
from repro.storage.serializers import (
    from_record,
    json_decode,
    json_encode,
    to_record,
)

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
        return to_record(self)

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "EventRecord":
        return from_record(cls, raw)


class EventStore:
    """Globally ordered, stream-indexed, append-only event log.

    Row ``i`` is the event with sequence ``i``: coded columns over one flat
    value list, so appending allocates nothing that outlives the call.  A
    stream is a chain of back-links (a row holds 1 + its stream's previous
    row, a stream 1 + its last row, 0 for none): 24 fixed bytes a row, 4 a
    stream.  Integer columns are 32-bit: 2^32 rows or values would not fit
    in memory first.  Appends are serialized by the caller (the engine's
    dispatch lock); readers take no lock, so a table entry, a link and a
    last row are in before any row uses them, the row-end column is
    appended *last*, ``len()`` reads it, and every reader bounds itself by
    one ``len()`` — a row is visible only once all its columns are.
    """

    def __init__(
        self,
        path: str | None = None,
        sync_writes: bool = False,
        obs: "Observability | None" = None,
    ) -> None:
        self._time_col = array("d")
        self._stream_col = array("I")  # codes into the tables below
        self._schema_col = array("I")
        self._link_col = array("I")  # 1 + the stream's previous row, or 0
        self._end_col = array("I")  # end of the row's slice of _values
        self._values: list[Any] = []
        self._stream_names: list[str] = []
        self._last_row = array("I")  # 1 + the stream's last row, per code
        self._stream_codes: dict[str, int] = {}
        self._schemas: list[tuple[str, ...]] = []  # (event_type, *keys)
        self._schema_codes: dict[tuple[str, ...], int] = {}
        self._journal: Journal | None = None
        self.sync_writes = sync_writes
        self._h_append = None
        if path is not None:
            journal = Journal(path, auto_recover=False, obs=obs)
            # replayed through append() before the journal and the append
            # histogram are attached; recover() is the crash-safe open and
            # the replay in one pass over the file
            for record in journal.recover():
                event = EventRecord.from_dict(json_decode(record.payload))
                if event.sequence != len(self):
                    raise StorageError(
                        f"event sequence gap: expected {len(self)}, "
                        f"got {event.sequence}"
                    )
                self.append(event.stream, event.type, event.timestamp, event.data)
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
        sequence = len(self._end_col)
        if self._journal is not None:
            timestamp = float(timestamp)
            record = EventRecord(sequence, stream, event_type, timestamp, data or {})
            self._journal.append(json_encode(record.to_dict()), sync=self.sync_writes)
        self._time_col.append(timestamp)  # the one that can refuse: a non-number
        stream_code = self._stream_codes.get(stream)
        if stream_code is None:  # name and link go in before stream() can find them
            self._stream_names.append(stream)
            self._last_row.append(0)
            stream_code = self._stream_codes[stream] = len(self._stream_names) - 1
        schema = (event_type, *data) if data else (event_type,)
        schema_code = self._schema_codes.get(schema)
        if schema_code is None:
            schema_code = self._schema_codes[schema] = len(self._schemas)
            self._schemas.append(schema)
        self._stream_col.append(stream_code)
        self._schema_col.append(schema_code)
        if data:
            self._values.extend(data.values())
        self._link_col.append(self._last_row[stream_code])
        self._last_row[stream_code] = sequence + 1
        self._end_col.append(len(self._values))  # last: publishes the row
        if self._h_append is not None:
            self._h_append.observe(time.perf_counter() - started)
        return sequence

    def sync(self) -> None:
        """Fsync buffered events when journal-backed."""
        if self._journal is not None:
            self._journal.sync()

    # -- reading ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._end_col)

    def _row(self, sequence: int) -> EventRecord:
        ends = self._end_col
        schema = self._schemas[self._schema_col[sequence]]
        values = self._values[ends[sequence - 1] if sequence else 0 : ends[sequence]]
        return EventRecord(
            sequence,
            self._stream_names[self._stream_col[sequence]],
            schema[0],
            self._time_col[sequence],
            dict(zip(schema[1:], values)),
        )

    def all(self) -> Iterator[EventRecord]:
        """All events in global order."""
        return map(self._row, range(len(self)))

    def stream(self, stream: str) -> list[EventRecord]:
        """All events of one stream, in order."""
        visible = len(self)
        code = self._stream_codes.get(stream)
        link = self._last_row[code] if code is not None else 0
        rows = []
        while link:  # newest first, from rows the bound may not show yet
            rows.append(link - 1)
            link = self._link_col[link - 1]
        return [self._row(i) for i in reversed(rows) if i < visible]

    def streams(self) -> list[str]:
        """All stream names, sorted."""
        return sorted(self._stream_codes)

    def of_type(self, event_type: str) -> list[EventRecord]:
        """All events of a given type, in global order."""
        visible = len(self)  # first: every schema a visible row uses is in
        codes = {c for c, schema in enumerate(self._schemas) if schema[0] == event_type}
        rows = zip(range(visible), self._schema_col)
        return [self._row(i) for i, code in rows if code in codes]

    def since(self, sequence: int) -> list[EventRecord]:
        """Events with ``sequence >= sequence`` (catch-up reads)."""
        return [self._row(i) for i in range(len(self))[sequence:]]

    def close(self) -> None:
        """Close the backing journal, if any."""
        if self._journal is not None:
            self._journal.close()
