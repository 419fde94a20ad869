"""Key-value stores: the interface, a volatile backend, and a durable one.

Keys are strings namespaced by convention (``instance/<id>``,
``definition/<key>:<version>``, ...); values are JSON-serializable.  The
durable backend journals every mutation (WAL) and supports snapshots that
compact the journal away.
"""

from __future__ import annotations

import os
from typing import Any, Iterator

from repro.storage.errors import StorageError, TransactionError
from repro.storage.journal import Journal
from repro.storage.serializers import json_decode, json_encode


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
        """Start buffering writes; they apply atomically at :meth:`commit`."""
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


class _TransactionMixin:
    """Shared write-buffering logic for both backends.

    Subclasses implement ``_apply_batch(ops)`` where each op is
    ``("put", key, value)`` or ``("del", key, None)``.
    """

    def __init__(self) -> None:
        self._data: dict[str, Any] = {}
        self._buffer: list[tuple[str, str, Any]] | None = None

    def get(self, key: str, default: Any = None) -> Any:
        if self._buffer is not None:
            # read-your-writes inside a transaction
            for op, k, value in reversed(self._buffer):
                if k == key:
                    return value if op == "put" else default
        return self._data.get(key, default)

    def put(self, key: str, value: Any) -> None:
        if not isinstance(key, str) or not key:
            raise StorageError("keys must be non-empty strings")
        if self._buffer is not None:
            self._buffer.append(("put", key, value))
        else:
            self._apply_batch([("put", key, value)])

    def delete(self, key: str) -> bool:
        existed = key in self._data
        if self._buffer is not None:
            for op, k, _ in self._buffer:
                if k == key and op == "put":
                    existed = True
            self._buffer.append(("del", key, None))
            return existed
        if existed:
            self._apply_batch([("del", key, None)])
        return existed

    def scan(self, prefix: str = "") -> Iterator[tuple[str, Any]]:
        if self._buffer is not None:
            view = dict(self._data)
            for op, key, value in self._buffer:
                if op == "put":
                    view[key] = value
                else:
                    view.pop(key, None)
            items = view
        else:
            items = self._data
        # filter first: each record family is a small part of the store
        for key in sorted(k for k in items if k.startswith(prefix)):
            yield key, items[key]

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

    def _apply_ops_to_memory(self, ops: list[tuple[str, str, Any]]) -> None:
        for op, key, value in ops:
            if op == "put":
                self._data[key] = value
            else:
                self._data.pop(key, None)

    def _apply_batch(self, ops: list[tuple[str, str, Any]]) -> None:
        raise NotImplementedError


class MemoryKV(_TransactionMixin, KeyValueStore):
    """Volatile in-memory backend — the default for tests and simulation."""

    def _apply_batch(self, ops: list[tuple[str, str, Any]]) -> None:
        self._apply_ops_to_memory(ops)


class DurableKV(_TransactionMixin, KeyValueStore):
    """Journal-backed store with snapshot compaction.

    Layout in ``directory``: ``journal.log`` (WAL of op batches) and
    ``snapshot.json`` (full image).  Open = load snapshot, replay journal.
    Each committed batch is one journal record, so multi-key transactions
    are atomic across crashes.
    """

    _SNAPSHOT = "snapshot.json"
    _JOURNAL = "journal.log"

    def __init__(self, directory: str, sync_writes: bool = True) -> None:
        super().__init__()
        self.directory = directory
        self.sync_writes = sync_writes
        os.makedirs(directory, exist_ok=True)
        self._snapshot_path = os.path.join(directory, self._SNAPSHOT)
        self._load_snapshot()
        self._journal = Journal(os.path.join(directory, self._JOURNAL))
        self._replayed_batches = 0
        for record in self._journal.replay():
            batch = json_decode(record.payload)
            self._apply_ops_to_memory([tuple(op) for op in batch])
            self._replayed_batches += 1

    def _load_snapshot(self) -> None:
        if os.path.exists(self._snapshot_path):
            with open(self._snapshot_path, "rb") as fh:
                self._data = json_decode(fh.read())

    @property
    def replayed_batches(self) -> int:
        """Batches replayed from the journal at open (recovery metric)."""
        return self._replayed_batches

    def _apply_batch(self, ops: list[tuple[str, str, Any]]) -> None:
        payload = json_encode([list(op) for op in ops])
        self._journal.append(payload, sync=self.sync_writes)
        self._apply_ops_to_memory(ops)

    def snapshot(self) -> None:
        """Write a full image and reset the journal (compaction).

        The snapshot is written to a temp file and atomically renamed, so a
        crash mid-snapshot leaves the previous snapshot + journal intact.
        """
        tmp_path = self._snapshot_path + ".tmp"
        with open(tmp_path, "wb") as fh:
            fh.write(json_encode(self._data))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, self._snapshot_path)
        self._journal.reset()

    @property
    def journal_size(self) -> int:
        """Current WAL length in bytes."""
        return self._journal.size

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
