"""Key-value stores: the interface, a volatile backend, and a durable one.

Keys are strings namespaced by convention (``instance/<id>``,
``definition/<key>:<version>``, ...); values are JSON-serializable.

:class:`MemoryKV` keeps the value objects.  :class:`DurableKV` is
log-structured (Bitcask-shaped): values stay on disk, memory holds a
*keydir*.  Both keep their map per record *family* — the key's text up
to and including its first ``/`` — so ``scan("jobs/")`` walks the
``jobs/`` keys only, not every key of the store.

**Transactions.**  ``begin()`` … ``commit()`` queues puts and deletes
and applies them as one batch (one journal record).  Reads never see the
queue: ``get``, ``scan``, ``keys``, ``in``, ``len`` and ``delete``'s
return value answer from committed state, inside a transaction too.  The
engine's pending writes are visible in one place, its
:class:`~repro.storage.writeset.WriteSet`, never through the store.

**Files.**  ``journal.log`` is a :class:`~repro.storage.journal.Journal`;
one commit appends (and, with ``sync_writes``, fsyncs) one CRC-framed
record whose payload is a sequence of op frames::

    +--------+----------------+------------------+-----+----------------+
    | op (u8)| key bytes (u32)| value bytes (u32)| key | canonical JSON |
    +--------+----------------+------------------+-----+----------------+

(op 1 = put, 2 = delete with no value; little-endian), so a reader steps
over values without decoding them.  ``snapshot.bin`` is an 8-byte magic,
one put frame per live key, and a CRC32 of everything before it.

**Keydir.**  ``key -> offset << 33 | length << 1 | file bit``: where the
current value's bytes are.  ``get``/``scan`` ``pread`` and decode on
demand; ``keys``/``in``/``len``/``delete`` do no I/O.  Opening is one pass
over snapshot + journal that checks every CRC, builds the keydir and
decodes nothing; a restart therefore decodes a value only when
``recover()`` reads it, never every value ever written.  Reads trust what
that opening pass verified and are not re-checked.  No value object and
no encoded value is retained after a commit returns.

**Checkpoints.**  :meth:`DurableKV.snapshot` copies the live values'
bytes to ``snapshot.bin.tmp`` (bounded chunks: no decode, no encode, no
whole image), fsyncs, renames, fsyncs the directory, resets the journal
and re-points the keydir in place.  The store calls it by itself at
:meth:`~DurableKV.begin` when ``journal_size >= max(CHECKPOINT_FLOOR,
CHECKPOINT_RATIO * live bytes)``, live bytes being exactly what the copy
would write — so copied bytes are at most half the journal bytes that
paid for them, and a reopen replays at most that tail.  Never in
``put``/``commit``/``sync`` and never in ``close``.  Crash windows: tmp
written but not renamed → deleted on open; renamed but journal not yet
reset → the old journal replays over the newer snapshot and ends in the
same state (ops are absolute, last writer wins); a failed checkpoint
(``OSError``) leaves everything as it was, is counted in
``checkpoint_failures``, does not fail the command, and is retried once
the journal has grown by another floor.

Earlier on-disk formats (a JSON image snapshot, JSON-array batch records)
have no read path; opening such a directory raises
:class:`~repro.storage.errors.StorageError` naming the file.
"""

from __future__ import annotations

import contextlib
import mmap
import os
import struct
import time
import zlib
from array import array
from typing import Any, BinaryIO, Iterator

from repro.storage.errors import StorageError, TransactionError
from repro.storage.journal import HEADER_SIZE, Journal
from repro.storage.serializers import json_decode, json_encode

#: a checkpoint starts by itself once the journal holds this many bytes ...
CHECKPOINT_FLOOR = 256 * 1024
#: ... and this many times the bytes the checkpoint would copy, so the
#: bytes copied are at most 1/ratio of the journal bytes that paid for them
CHECKPOINT_RATIO = 2

_OP = struct.Struct("<BII")  # op, key bytes, value bytes
_PUT, _DEL = 1, 2
_CRC = struct.Struct("<I")
_SNAPSHOT_MAGIC = b"REPROKV1"
_COPY_CHUNK = 64 * 1024

# a keydir entry: value offset << 33 | value bytes << 1 | in-journal bit
_OFFSET_SHIFT = 33
_LENGTH_MASK = 0xFFFFFFFF
_LENGTH_BITS = _LENGTH_MASK << 1

#: marks a key the store does not hold
_ABSENT = object()


class KeyValueStore:
    """Abstract interface the engine's repositories are written against."""

    def get(self, key: str, default: Any = None) -> Any:
        """Read one key; ``default`` when absent."""
        raise NotImplementedError

    def put(self, key: str, value: Any) -> None:
        """Write one key durably (honouring any open transaction)."""
        raise NotImplementedError

    def delete(self, key: str) -> bool:
        """Remove a key; returns whether it existed."""
        raise NotImplementedError

    def scan(self, prefix: str = "") -> Iterator[tuple[str, Any]]:
        """Iterate ``(key, value)`` pairs with the prefix, sorted by key."""
        raise NotImplementedError

    def keys(self, prefix: str = "") -> list[str]:
        """Sorted keys with the prefix."""
        return [k for k, _ in self.scan(prefix)]

    def __contains__(self, key: str) -> bool:
        sentinel = object()
        return self.get(key, sentinel) is not sentinel

    def __len__(self) -> int:
        return sum(1 for _ in self.scan())

    # -- transactions --------------------------------------------------------

    def begin(self) -> None:
        """Start buffering writes; they apply atomically at :meth:`commit`,
        and reads see committed state until then."""
        raise NotImplementedError

    def commit(self) -> None:
        """Atomically apply (and persist) all buffered writes."""
        raise NotImplementedError

    def rollback(self) -> None:
        """Discard all buffered writes."""
        raise NotImplementedError

    def transaction(self) -> "_Transaction":
        """Context manager: commit on success, rollback on exception.

        >>> store = MemoryKV()
        >>> with store.transaction():
        ...     store.put("a", 1)
        ...     store.put("b", 2)
        >>> store.get("b")
        2
        """
        return _Transaction(self)

    def sync(self) -> None:
        """Make all committed writes durable (no-op for volatile backends).

        Deferred-sync durable backends (``DurableKV(sync_writes=False)``)
        buffer journal records; this is the group-commit boundary that
        fsyncs them all at once.
        """

    def close(self) -> None:
        """Release resources (no-op for volatile backends)."""


class _Transaction:
    def __init__(self, store: KeyValueStore) -> None:
        self._store = store

    def __enter__(self) -> KeyValueStore:
        self._store.begin()
        return self._store

    def __exit__(self, exc_type: type | None, *exc_info: object) -> None:
        if exc_type is None:
            self._store.commit()
        else:
            self._store.rollback()


def _family(key: str) -> str:
    """The record family of a key: its text up to and including the first
    ``/`` (``""`` for a key without one)."""
    return key[: key.find("/") + 1]


class _TransactionMixin:
    """What both backends share: the per-family map, write buffering, and
    the reads over committed state.

    ``_data`` maps each family to its ``key -> entry`` dict; an entry is
    the value itself (:class:`MemoryKV`) or a keydir entry
    (:class:`DurableKV`), and ``_value(entry)`` turns it into the value.
    Between :meth:`begin` and :meth:`commit` puts and deletes queue in
    ``_buffer``; every read, and ``delete``'s return value, sees committed
    state only.  Subclasses implement ``_apply_batch(ops)`` where each op
    is ``("put", key, value)`` or ``("del", key, None)``.
    """

    def __init__(self) -> None:
        self._data: dict[str, dict[str, Any]] = {}
        self._buffer: list[tuple[str, str, Any]] | None = None

    def _value(self, entry: Any) -> Any:
        return entry

    def _entry(self, key: str, default: Any = None) -> Any:
        family = self._data.get(_family(key))
        return default if family is None else family.get(key, default)

    def _committed(self, prefix: str) -> dict[str, Any]:
        """Committed ``key -> entry`` with the prefix: the family the
        prefix names (that dict itself when the prefix is the family), or
        every family for a prefix without ``/``."""
        slash = prefix.find("/")
        if slash < 0:
            return {
                key: entry
                for family in self._data.values()
                for key, entry in family.items()
                if key.startswith(prefix)
            }
        family = self._data.get(prefix[: slash + 1], {})
        if slash + 1 == len(prefix):
            return family
        return {key: entry for key, entry in family.items() if key.startswith(prefix)}

    def get(self, key: str, default: Any = None) -> Any:
        entry = self._entry(key, _ABSENT)
        return default if entry is _ABSENT else self._value(entry)

    def put(self, key: str, value: Any) -> None:
        if not isinstance(key, str) or not key:
            raise StorageError("keys must be non-empty strings")
        if self._buffer is not None:
            self._buffer.append(("put", key, value))
        else:
            self._apply_batch([("put", key, value)])

    def delete(self, key: str) -> bool:
        existed = self._entry(key, _ABSENT) is not _ABSENT
        if self._buffer is not None:
            self._buffer.append(("del", key, None))
        elif existed:
            self._apply_batch([("del", key, None)])
        return existed

    def scan(self, prefix: str = "") -> Iterator[tuple[str, Any]]:
        committed = self._committed(prefix)
        for key in sorted(committed):
            yield key, self._value(committed[key])

    def keys(self, prefix: str = "") -> list[str]:
        return sorted(self._committed(prefix))

    def __contains__(self, key: str) -> bool:
        return self._entry(key, _ABSENT) is not _ABSENT

    def __len__(self) -> int:
        return sum(map(len, self._data.values()))

    def begin(self) -> None:
        if self._buffer is not None:
            raise TransactionError("transaction already open")
        self._buffer = []

    def commit(self) -> None:
        if self._buffer is None:
            raise TransactionError("no open transaction")
        ops, self._buffer = self._buffer, None
        if ops:
            self._apply_batch(ops)

    def rollback(self) -> None:
        if self._buffer is None:
            raise TransactionError("no open transaction")
        self._buffer = None

    def _apply_batch(self, ops: list[tuple[str, str, Any]]) -> None:
        raise NotImplementedError


class MemoryKV(_TransactionMixin, KeyValueStore):
    """Volatile in-memory backend — the default for tests and simulation."""

    def _apply_batch(self, ops: list[tuple[str, str, Any]]) -> None:
        data = self._data
        for op, key, value in ops:
            name = key[: key.find("/") + 1]  # _family(key), once per op
            family = data.get(name)
            if op == "put":
                if family is None:
                    family = data[name] = {}
                family[key] = value
            elif family is not None:
                family.pop(key, None)


class DurableKV(_TransactionMixin, KeyValueStore):
    """Log-structured durable store: values live in the files, memory
    holds the keydir (see the module docstring for layout and rules).

    Each committed batch is one journal record, so multi-key transactions
    are atomic across crashes.  Counters an operator or a test reads:
    :attr:`checkpoints`, :attr:`checkpoint_failures`,
    :attr:`checkpoint_seconds`, :attr:`checkpoint_bytes` (snapshot bytes
    written in total) and :attr:`replayed_batches`.
    """

    _SNAPSHOT = "snapshot.bin"
    _JOURNAL = "journal.log"

    def __init__(self, directory: str, sync_writes: bool = True) -> None:
        super().__init__()  # self._data is the keydir: family -> key -> packed int
        self.directory = directory
        self.sync_writes = sync_writes
        self.checkpoints = 0
        self.checkpoint_failures = 0
        self.checkpoint_seconds = 0.0
        self.checkpoint_bytes = 0
        #: bytes a checkpoint would copy: the put frames of the live keys
        self._live_bytes = 0
        #: after a failed checkpoint, the journal size that permits a retry
        self._retry_at = 0
        self._snapshot_fd: int | None = None
        os.makedirs(directory, exist_ok=True)
        self._snapshot_path = os.path.join(directory, self._SNAPSHOT)
        for name in os.listdir(directory):
            if name == self._SNAPSHOT + ".tmp":
                os.remove(self._snapshot_path + ".tmp")  # checkpoint cut short
            elif name.startswith("snapshot.") and name != self._SNAPSHOT:
                raise StorageError(
                    f"{os.path.join(directory, name)}: not a snapshot format this "
                    f"store reads (it reads and writes {self._SNAPSHOT} only)"
                )
        self._journal = Journal(
            os.path.join(directory, self._JOURNAL), auto_recover=False
        )
        self._replayed_batches = 0
        try:
            self._load_snapshot()
            for record in self._journal.recover():
                payload = record.payload
                self._index_frames(
                    payload, 0, len(payload), record.offset + HEADER_SIZE, 1
                )
                self._replayed_batches += 1
        except BaseException:
            self.close()
            raise

    # -- opening ---------------------------------------------------------------

    def _load_snapshot(self) -> None:
        """Verify the snapshot's checksum and index its frames; the
        descriptor stays open for the reads the keydir points at it."""
        try:
            fd = os.open(self._snapshot_path, os.O_RDONLY)
        except FileNotFoundError:
            return
        try:
            size = os.fstat(fd).st_size
            if size < len(_SNAPSHOT_MAGIC) + _CRC.size:
                raise StorageError(f"{self._snapshot_path}: truncated snapshot")
            with mmap.mmap(fd, 0, access=mmap.ACCESS_READ) as image:
                body_end = size - _CRC.size
                if image[: len(_SNAPSHOT_MAGIC)] != _SNAPSHOT_MAGIC:
                    raise StorageError(
                        f"{self._snapshot_path}: not a {_SNAPSHOT_MAGIC!r} snapshot"
                    )
                with memoryview(image) as view, view[:body_end] as body:
                    checksum = zlib.crc32(body)
                if checksum != _CRC.unpack_from(image, body_end)[0]:
                    raise StorageError(
                        f"{self._snapshot_path}: checksum mismatch "
                        "(truncated or corrupt snapshot)"
                    )
                self._index_frames(image, len(_SNAPSHOT_MAGIC), body_end, 0, 0)
        except BaseException:
            os.close(fd)
            raise
        self._snapshot_fd = fd

    def _index_frames(
        self, frames: Any, pos: int, end: int, base: int, in_journal: int
    ) -> None:
        """Apply the op frames in ``frames[pos:end]`` to the keydir without
        touching a value.  ``frames[i]`` is byte ``base + i`` of the file
        ``in_journal`` names.  The one routine behind opening (snapshot,
        replayed records) and committing (the record just appended)."""
        families = self._data
        live = self._live_bytes
        # locals, not globals: this loop runs once per frame on open
        unpack, head = _OP.unpack_from, _OP.size
        mask, shift, put, delete = _LENGTH_MASK, _OFFSET_SHIFT, _PUT, _DEL
        family, keydir = "", None
        try:
            while pos < end:
                op, key_bytes, value_bytes = unpack(frames, pos)
                if op != put and op != delete:
                    raise StorageError(f"unknown op {op}")
                value_at = pos + head + key_bytes
                key = str(frames[pos + head : value_at], "utf-8")
                pos = value_at + value_bytes
                # frames come in runs of one family (a commit writes family
                # by family, a snapshot keydir by keydir): _family(key) is
                # recomputed only where a run ends
                if not (family and key.startswith(family)):
                    family = key[: key.find("/") + 1]
                    keydir = families.get(family)
                if op == put:
                    if keydir is None:
                        keydir = families[family] = {}
                    old = keydir.get(key)
                    if old is None:
                        live += head + key_bytes + value_bytes
                    else:
                        live += value_bytes - ((old >> 1) & mask)
                    keydir[key] = (base + value_at) << shift | value_bytes << 1 | in_journal
                elif keydir is not None:
                    old = keydir.pop(key, None)
                    if old is not None:
                        live -= head + key_bytes + ((old >> 1) & mask)
            if pos != end:
                raise StorageError("frame runs past its record")
        except (StorageError, struct.error, UnicodeDecodeError) as exc:
            name = self._JOURNAL if in_journal else self._SNAPSHOT
            raise StorageError(
                f"{os.path.join(self.directory, name)}: bytes near "
                f"{base + pos} are not op frames ({exc}); a JSON-array batch "
                "journal or any other earlier format has no read path"
            ) from exc
        finally:
            self._live_bytes = live

    @property
    def replayed_batches(self) -> int:
        """Batches replayed from the journal at open (recovery metric)."""
        return self._replayed_batches

    # -- reading ---------------------------------------------------------------

    def _read_bytes(self, packed: int) -> bytes:
        """The encoded value a keydir entry points at."""
        length = (packed >> 1) & _LENGTH_MASK
        if packed & 1:
            return self._journal.read(packed >> _OFFSET_SHIFT, length)
        if self._snapshot_fd is None:
            raise StorageError("store is closed")
        return os.pread(self._snapshot_fd, length, packed >> _OFFSET_SHIFT)

    def _value(self, entry: int) -> Any:
        return json_decode(self._read_bytes(entry))

    # -- writing ---------------------------------------------------------------

    def begin(self) -> None:
        # between commits, nothing buffered, under whatever lock the caller
        # holds: the one place a checkpoint starts by itself (never inside
        # put/commit/sync, whose callers price them by journal growth)
        if self._buffer is None and self._journal.size >= max(
            CHECKPOINT_FLOOR, CHECKPOINT_RATIO * self._live_bytes, self._retry_at
        ):
            try:
                self.snapshot()
            except OSError:
                # snapshot + journal are as they were; the command goes on
                self.checkpoint_failures += 1
                self._retry_at = self._journal.size + CHECKPOINT_FLOOR
        super().begin()

    def _apply_batch(self, ops: list[tuple[str, str, Any]]) -> None:
        parts: list[bytes] = []
        pack = _OP.pack
        for op, key, value in ops:
            key_bytes = key.encode("utf-8")
            if op == "put":
                encoded = json_encode(value)
                parts += (pack(_PUT, len(key_bytes), len(encoded)), key_bytes, encoded)
            else:
                parts += (pack(_DEL, len(key_bytes), 0), key_bytes)
        payload = b"".join(parts)
        offset = self._journal.append(payload, sync=self.sync_writes)
        self._index_frames(payload, 0, len(payload), offset + HEADER_SIZE, 1)

    def snapshot(self) -> None:
        """Checkpoint: copy every live value's bytes into a new snapshot,
        reset the journal, re-point the keydir (compaction).

        Nothing is decoded or encoded and no image is built in memory:
        frames stream to ``snapshot.bin.tmp`` in bounded chunks.  The file
        is fsynced, renamed, and the directory fsynced *before* the journal
        is erased, so at any crash point a reopen reads the pre-checkpoint
        state (tmp only: ignored; renamed, journal intact: the journal
        replays over the newer snapshot to the same state).  An
        ``OSError`` leaves snapshot, journal and keydir as they were.
        """
        started = time.perf_counter()
        tmp_path = self._snapshot_path + ".tmp"
        value_offsets = array("Q")
        new_fd: int | None = None
        try:
            with open(tmp_path, "wb") as out:
                written = self._copy_live_frames(out, value_offsets)
                out.flush()
                os.fsync(out.fileno())
            new_fd = os.open(tmp_path, os.O_RDONLY)
            os.replace(tmp_path, self._snapshot_path)
            _fsync_directory(self.directory)
            self._journal.reset()
        except OSError:
            if new_fd is not None:
                os.close(new_fd)
            with contextlib.suppress(OSError):
                os.remove(tmp_path)
            raise
        if self._snapshot_fd is not None:
            os.close(self._snapshot_fd)
        self._snapshot_fd = new_fd
        positions = iter(value_offsets)
        for keydir in self._data.values():
            # same key set, so no dict is resized while iterated
            for key, packed in keydir.items():
                keydir[key] = next(positions) << _OFFSET_SHIFT | packed & _LENGTH_BITS
        self._retry_at = 0
        self.checkpoints += 1
        self.checkpoint_bytes += written
        self.checkpoint_seconds += time.perf_counter() - started

    def _copy_live_frames(self, out: BinaryIO, value_offsets: "array[int]") -> int:
        """Write magic, one put frame per live key (keydir order) and the
        checksum; append each value's offset in the new file to
        ``value_offsets``.  Returns the bytes written."""
        checksum = zlib.crc32(_SNAPSHOT_MAGIC)
        out.write(_SNAPSHOT_MAGIC)
        position = len(_SNAPSHOT_MAGIC)
        chunk: list[bytes] = []
        chunk_start = position
        for key, packed in (
            entry for keydir in self._data.values() for entry in keydir.items()
        ):
            key_bytes = key.encode("utf-8")
            value = self._read_bytes(packed)
            chunk += (_OP.pack(_PUT, len(key_bytes), len(value)), key_bytes, value)
            position += _OP.size + len(key_bytes)
            value_offsets.append(position)
            position += len(value)
            if position - chunk_start >= _COPY_CHUNK:
                data = b"".join(chunk)
                checksum = zlib.crc32(data, checksum)
                out.write(data)
                chunk.clear()
                chunk_start = position
        data = b"".join(chunk)
        out.write(data)
        out.write(_CRC.pack(zlib.crc32(data, checksum)))
        return position + _CRC.size

    @property
    def journal_size(self) -> int:
        """Current WAL length in bytes: what a reopen would replay."""
        return self._journal.size

    @property
    def snapshot_size(self) -> int:
        """Bytes of the current snapshot file (0 before the first checkpoint)."""
        try:
            return os.path.getsize(self._snapshot_path)
        except OSError:
            return 0

    def sync(self) -> None:
        """Fsync any buffered journal records (group commit).

        A no-op when nothing is buffered, so callers can invoke it
        unconditionally after a commit without paying a redundant fsync
        on ``sync_writes=True`` stores.
        """
        if self._journal.pending_records:
            self._journal.sync()

    def close(self) -> None:
        self._journal.close()
        if self._snapshot_fd is not None:
            os.close(self._snapshot_fd)
            self._snapshot_fd = None


def _fsync_directory(path: str) -> None:
    """Make a rename inside ``path`` durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
