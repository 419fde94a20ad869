"""The transactional outbox: cross-shard forwards, durable until delivered.

:class:`Outbox` is one shard's table of them, a component the engine
composes.  An :class:`OutboxRecord` is the transactional-outbox leg of the cluster's
reliable-publisher pair: when a send task publishes a message no wait on
its own shard takes, the record is written under ``outbox/<seq>`` in the
*same* group commit as the dispatch that published it — the forward intent
is durable the moment the originating call returns.  The cluster drains
records after the origin dispatch releases its lock, re-publishing each via
the probe-then-route path under the record's deterministic dedup key
(``fwd:<origin>:<seq>``), and deletes the record only after the target
shard's dispatch has flushed.  At any crash point the origin store holds
exactly the set of claimed-but-undelivered forwards; redelivery after
``recover()`` is absorbed by the target's idempotency window, so the pair
is at-least-once in transport and exactly-once in effect — the same
contract :mod:`repro.workers.records` established for service invocations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.clock import Clock
from repro.cluster.router import forward_dedup_key
from repro.services.bus import Message
from repro.storage.kvstore import KeyValueStore
from repro.storage.serializers import from_record, to_record
from repro.storage.writeset import Sequences, WriteSet

#: store-key family of undrained forwards (``outbox/<zero-padded seq>``)
OUTBOX_PREFIX = "outbox/"


def _record_id(seq: int) -> str:
    return f"{seq:010d}"


@dataclass
class OutboxRecord:
    """One claimed-but-undelivered cross-shard forward, store-serializable."""

    #: per-origin-shard monotonic sequence (never reused across restarts)
    seq: int
    #: the claiming shard's tag, e.g. ``"s2"``
    origin: str
    name: str
    correlation: Any = None
    payload: dict[str, Any] = field(default_factory=dict)
    created_at: float = 0.0

    @property
    def dedup_key(self) -> str:
        """The forward's deterministic idempotency key (``fwd:s2:7``)."""
        return forward_dedup_key(self.origin, self.seq)

    def to_dict(self) -> dict[str, Any]:
        return to_record(self)

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "OutboxRecord":
        return from_record(cls, raw)


class Outbox:
    """One shard's table of claimed-but-undelivered forwards.

    The sequence lives in the engine's persisted :class:`Sequences`
    because records are removed after drain — a restart must never
    re-mint a ``fwd:<origin>:<seq>`` key that may still sit in a
    target's dedup window.
    """

    def __init__(
        self, writes: WriteSet, seqs: Sequences, origin: str, clock: Clock
    ) -> None:
        self._writes = writes
        self._seqs = seqs
        self._origin = origin
        self._clock = clock
        self._records: dict[int, OutboxRecord] = {}

    def __len__(self) -> int:
        return len(self._records)

    @property
    def seq(self) -> int:
        """The last sequence number handed out (survives restarts)."""
        return self._seqs.value("outbox_seq")

    def claim(self, message: Message) -> OutboxRecord:
        """Record a cross-shard forward of ``message``.

        Called by the engine's publish *inside* the originating dispatch
        (under this shard's lock), so the record joins the same group
        commit as the publish that produced the message — the forward
        intent is durable before the originating call returns.
        """
        record = OutboxRecord(
            seq=self._seqs.next("outbox_seq"),
            origin=self._origin,
            name=message.name,
            correlation=message.correlation,
            payload=dict(message.payload),
            created_at=self._clock.now(),
        )
        self._records[record.seq] = record
        self._writes.put(OUTBOX_PREFIX, _record_id(record.seq), record.to_dict)
        return record

    def records(self) -> list[OutboxRecord]:
        """Undrained records, oldest (lowest seq) first."""
        return [self._records[seq] for seq in sorted(self._records)]

    def remove(self, seq: int) -> None:
        """Delete a drained record (joins the next commit on this shard).

        Only called after the *target* shard's delivery dispatch flushed:
        a crash between that flush and this deletion re-delivers, and the
        target's dedup window absorbs the duplicate.
        """
        if self._records.pop(seq, None) is not None:
            self._writes.delete(OUTBOX_PREFIX, _record_id(seq))

    def load(self, store: KeyValueStore) -> int:
        """Restore ``outbox/`` records: exactly the forwards claimed but
        not confirmed delivered at crash time — the cluster layer
        re-drains them (redelivery dedupes at the target)."""
        for _, raw in store.scan(OUTBOX_PREFIX):
            record = OutboxRecord.from_dict(raw)
            self._records[record.seq] = record
            self._seqs.raise_to("outbox_seq", record.seq)
        return len(self._records)
