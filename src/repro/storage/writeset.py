"""``WriteSet``: every store mutation pending since the last commit.

The engine and its components (scheduler, worklist, invocation ledger,
outbox, dispatch log, read models) share one instance and write into it
at mutation time; :meth:`WriteSet.commit` is the only place any of them
reaches the store — one transaction, one sync.  A record is addressed by
its family prefix (``"jobs/"``) and id (the rest of the store key); the
last write to a key wins, so a record re-added after a removal in the
same window persists and one removed after an add is deleted.

A put's value is either JSON-safe data or a zero-argument callable that
encodes the live object (``instance.to_dict``): encoding is deferred to
commit time, so an entity touched ten times between commits is encoded
once, in its final state.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from repro.storage.kvstore import KeyValueStore


class WriteSet:
    """Pending puts and deletes per record family, committed atomically."""

    def __init__(self, families: Iterable[str]) -> None:
        # every family map exists from here on and the outer dicts are
        # never resized: has_pending() peeks at them without the lock
        self._puts: dict[str, dict[str, Any]] = {p: {} for p in families}
        self._deletes: dict[str, set[str]] = {p: set() for p in self._puts}

    def put(self, prefix: str, record_id: str, value: Any) -> None:
        """(Re)write ``prefix + record_id`` at the next commit."""
        self._puts[prefix][record_id] = value
        deletes = self._deletes[prefix]
        if deletes:
            deletes.discard(record_id)

    def delete(self, prefix: str, record_id: str) -> None:
        """Delete ``prefix + record_id`` at the next commit."""
        self._puts[prefix].pop(record_id, None)
        self._deletes[prefix].add(record_id)

    def discard(self, prefix: str, record_id: str) -> bool:
        """Drop a pending put of a key that never reached the store.

        For owners that know the key was first written in this window
        (ids never reused): the record then needs no store operation at
        all.  Returns ``False`` when no put was pending — the key is in
        the store and the caller owes a :meth:`delete`.
        """
        return self._puts[prefix].pop(record_id, self) is not self

    def puts(self, prefix: str) -> Mapping[str, Any]:
        """The family's pending puts by id (live view; do not mutate)."""
        return self._puts[prefix]

    def count(self, prefix: str) -> int:
        """Pending operations of one family."""
        return len(self._puts[prefix]) + len(self._deletes[prefix])

    def __len__(self) -> int:
        """Pending operations — the record count of the next commit."""
        pending = 0
        for prefix, puts in self._puts.items():
            deletes = self._deletes[prefix]
            if puts or deletes:
                pending += len(puts) + len(deletes)
        return pending

    def has_pending(self, ignoring_deletes_of: str | None = None) -> bool:
        """Whether a commit would write anything, optionally not counting
        one family's deletes.

        Safe to call without the writers' lock: it only takes the truth
        value of pre-created containers.  A racing writer can make the
        answer spuriously true; a racing commit clears only what it made
        durable — the caller's own earlier writes are never hidden.
        """
        for prefix, puts in self._puts.items():
            if puts or (prefix != ignoring_deletes_of and self._deletes[prefix]):
                return True
        return False

    def commit(self, store: KeyValueStore) -> None:
        """Write everything pending in one transaction, sync, then clear.

        Families go in construction order, ids sorted, puts before
        deletes, visiting only the families with pending writes.  The set
        is cleared only after both the transaction and the sync succeeded:
        when either raises, everything stays pending and the next commit
        retries the whole (idempotent) batch.
        """
        touched = [p for p, puts in self._puts.items() if puts or self._deletes[p]]
        with store.transaction():
            for prefix in touched:
                puts, deletes = self._puts[prefix], self._deletes[prefix]
                for record_id in sorted(puts) if len(puts) > 1 else list(puts):
                    value = puts[record_id]
                    if callable(value):
                        value = value()
                    store.put(prefix + record_id, value)
                for record_id in sorted(deletes) if len(deletes) > 1 else list(deletes):
                    store.delete(prefix + record_id)
        # group-commit boundary for deferred-sync stores (no-op otherwise)
        store.sync()
        for prefix in touched:
            self._puts[prefix].clear()
            self._deletes[prefix].clear()


class Sequences:
    """Named id counters persisted together as one record.

    Generated ids (instances, invocations, outbox forwards) must never be
    re-minted after a restart, even when every record that carried one
    has since been deleted — an old ``fwd:<origin>:<seq>`` key may still
    sit in a peer's dedup window.  Each :meth:`next` therefore rewrites
    the record in the same commit as whatever the new id names.
    """

    def __init__(
        self, writes: WriteSet, prefix: str, record_id: str, names: Iterable[str]
    ) -> None:
        self._writes = writes
        self._prefix = prefix
        self._record_id = record_id
        self._values = dict.fromkeys(names, 0)

    def next(self, name: str) -> int:
        """Advance one counter and return the new value."""
        self._values[name] += 1
        self._writes.put(self._prefix, self._record_id, self.to_dict)
        return self._values[name]

    def value(self, name: str) -> int:
        return self._values[name]

    def raise_to(self, name: str, floor: int) -> None:
        """Recovery: never hand out an id at or below ``floor`` again."""
        if floor > self._values.get(name, 0):
            self._values[name] = floor

    def to_dict(self) -> dict[str, int]:
        return dict(self._values)

    def load(self, store: KeyValueStore) -> None:
        stored = store.get(self._prefix + self._record_id, {})
        for name, value in stored.items():
            self.raise_to(name, value)
