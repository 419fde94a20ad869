"""Append-only journal (write-ahead log).

Record layout on disk::

    +----------------+----------------+------------------+
    | length (u32 LE)| crc32 (u32 LE) | payload (length) |
    +----------------+----------------+------------------+

Properties:

* **one scan** — :meth:`Journal.recover` yields every intact record in
  append order and, once exhausted, has cut a torn tail (a record whose
  header or body is incomplete or whose CRC fails *at the tail*) off the
  file, so a crash mid-append never corrupts recovery.  A CRC failure
  *before* the tail is data loss and raises.
* **crash-safe open** — ``Journal(path)`` runs that scan itself before
  the first append.  An owner that must read its log anyway (``DurableKV``,
  ``EventStore``) opens with ``auto_recover=False`` and iterates
  ``recover()`` once, so each byte's CRC is checked once, not once to
  repair and again to read.
* **group commit** — ``append`` buffers; ``sync`` flushes+fsyncs once for
  all buffered records.  ``append(..., sync=True)`` is the single-record
  durable path.  Experiment F4 measures the batch-size/throughput shape
  this design gives.
"""

from __future__ import annotations

import os
import struct
import time
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from repro.storage.errors import CorruptRecordError, StorageError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import Observability

_HEADER = struct.Struct("<II")  # length, crc32
#: bytes of framing before each record's payload
HEADER_SIZE = _HEADER.size


@dataclass(frozen=True)
class JournalRecord:
    """One recovered record: its byte offset and payload."""

    offset: int
    payload: bytes


class Journal:
    """A single-writer append-only log file."""

    def __init__(
        self,
        path: str,
        auto_recover: bool = True,
        obs: "Observability | None" = None,
    ) -> None:
        self.path = path
        self._obs = obs
        self._h_append = None if obs is None else obs.registry.histogram(
            "storage.journal.append_seconds"
        )
        self._h_sync = None if obs is None else obs.registry.histogram(
            "storage.journal.sync_seconds"
        )
        #: bytes cut from a torn tail (0 = the file was clean);
        #: recovery is deliberately *surfaced*, never silent
        self.recovered_bytes = 0
        #: byte offset where the last scan cut a torn tail
        #: (``None`` = the log read back clean end to end)
        self.torn_tail_offset: int | None = None
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        # append mode places every write at the end of the file whatever
        # the position; "+" lets read() pread through the same descriptor
        self._file = open(path, "a+b")
        self._pending = 0
        self._size = os.fstat(self._file.fileno()).st_size
        #: bytes known to have left the write buffer (what read() may pread)
        self._flushed = self._size
        # crash-safe open: scan and truncate a torn tail before appending
        if auto_recover and self._size:
            try:
                for _ in self.recover():
                    pass
            except BaseException:
                self._file.close()
                raise

    # -- writing ------------------------------------------------------------

    def append(self, payload: bytes, sync: bool = False) -> int:
        """Append one record; returns its byte offset.

        With ``sync=False`` the record is buffered — call :meth:`sync` to
        make it (and everything before it) durable in one fsync.
        """
        if self._file.closed:
            raise StorageError("journal is closed")
        started = time.perf_counter() if self._h_append is not None else 0.0
        offset = self._size
        self._file.write(_HEADER.pack(len(payload), zlib.crc32(payload)))
        self._file.write(payload)
        self._size = offset + HEADER_SIZE + len(payload)
        self._pending += 1
        if self._h_append is not None:
            self._h_append.observe(time.perf_counter() - started)
        if sync:
            self.sync()
        return offset

    def sync(self) -> None:
        """Flush buffered records and fsync the file."""
        if self._file.closed:
            raise StorageError("journal is closed")
        started = time.perf_counter() if self._h_sync is not None else 0.0
        self._file.flush()
        self._flushed = self._size
        os.fsync(self._file.fileno())
        if self._h_sync is not None:
            self._h_sync.observe(time.perf_counter() - started)
        self._pending = 0

    @property
    def pending_records(self) -> int:
        """Records appended since the last sync."""
        return self._pending

    @property
    def size(self) -> int:
        """Journal length in bytes.

        After :meth:`close` this reads the file; if the file has since
        been deleted, the last known length is returned instead of
        raising :class:`FileNotFoundError`.
        """
        if not self._file.closed:
            return self._size
        try:
            return os.path.getsize(self.path)
        except OSError:
            return self._size

    # -- reading ------------------------------------------------------------

    def read(self, offset: int, length: int) -> bytes:
        """``length`` bytes at ``offset``, e.g. part of a record's payload
        (a record appended at ``o`` has its payload at ``o + HEADER_SIZE``).

        Positional and unchecked: the caller names a range inside records
        a scan has verified or this journal has appended.  A record still
        in the write buffer is flushed (not fsynced) first.
        """
        if self._file.closed:
            raise StorageError("journal is closed")
        if offset + length > self._flushed:
            self._file.flush()
            self._flushed = self._size
        return os.pread(self._file.fileno(), length, offset)

    def recover(self) -> Iterator[JournalRecord]:
        """Yield all intact records in append order, then repair.

        Raises :class:`CorruptRecordError` for corruption in the *middle*
        of the log (data loss).  A torn tail (crash artifact) ends the
        iteration and is cut off the file: :attr:`recovered_bytes` and
        :attr:`torn_tail_offset` say how much and where, the
        ``storage.journal.torn_tails`` counter and a ``journal.recovered``
        event surface it.
        """
        if not self._file.closed:
            self._file.flush()
        self.torn_tail_offset = None
        try:
            reader = open(self.path, "rb")
        except OSError as exc:
            raise StorageError(f"cannot scan journal {self.path}: {exc}") from exc
        with reader:
            file_size = os.fstat(reader.fileno()).st_size
            offset = 0
            while offset < file_size:
                header = reader.read(HEADER_SIZE)
                intact = len(header) == HEADER_SIZE
                if intact:
                    length, crc = _HEADER.unpack(header)
                    payload = reader.read(length)
                    intact = len(payload) == length
                    if intact and zlib.crc32(payload) != crc:
                        if offset + HEADER_SIZE + length < file_size:
                            raise CorruptRecordError(
                                f"CRC mismatch at offset {offset} in {self.path}"
                            )
                        intact = False  # corrupt final record
                if not intact:
                    self._cut_tail(offset, file_size)
                    return
                yield JournalRecord(offset=offset, payload=payload)
                offset += HEADER_SIZE + length

    def _cut_tail(self, offset: int, file_size: int) -> None:
        """Truncate a torn tail found by :meth:`recover` and surface it."""
        self.torn_tail_offset = offset
        self.recovered_bytes = file_size - offset
        self._file.truncate(offset)
        self._size = self._flushed = offset
        if self._obs is not None:
            self._obs.registry.counter("storage.journal.torn_tails").inc()
            self._obs.event(
                "journal.recovered",
                path=self.path,
                truncated_to=offset,
                recovered_bytes=self.recovered_bytes,
            )

    # -- lifecycle ------------------------------------------------------------

    def reset(self) -> None:
        """Erase the journal (after a snapshot made its contents redundant)."""
        if self._file.closed:
            raise StorageError("journal is closed")
        self._file.truncate(0)
        self._pending = 0
        self._size = self._flushed = 0

    def close(self) -> None:
        """Flush and close; further writes raise."""
        if not self._file.closed:
            self._file.flush()
            os.fsync(self._file.fileno())
            self._file.close()

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
