"""The at-least-once ledger of pooled service invocations, per engine.

Pending :class:`~repro.workers.records.InvocationRecord`\\ s are put under
``invocation/<id>`` in the same group commit as the dispatch that
enqueued them, handed to the pool only after that commit, and deleted in
the same commit as their completion.  Dead letters (``dlq/<id>``) are
invocations whose retries exhausted.  Per-service enqueued/completed
counters back the :meth:`InvocationLedger.status` conservation invariant.
"""

from __future__ import annotations

from typing import Any

from repro.obs.metrics import MetricsRegistry
from repro.storage.kvstore import KeyValueStore
from repro.storage.writeset import Sequences, WriteSet
from repro.workers.records import InvocationRecord

#: store-key family of pending invocations (``invocation/<invocation id>``)
INVOCATION_PREFIX = "invocation/"
#: store-key family of dead-lettered invocations (``dlq/<invocation id>``)
DLQ_PREFIX = "dlq/"


class InvocationLedger:
    """Pending invocations, dead letters, and their accounting."""

    def __init__(
        self,
        writes: WriteSet,
        seqs: Sequences,
        registry: MetricsRegistry,
        id_prefix: str = "inv-",
    ) -> None:
        self._writes = writes
        self._seqs = seqs
        self._id_prefix = id_prefix
        self._pending: dict[str, InvocationRecord] = {}
        self._dead: dict[str, dict[str, Any]] = {}
        self._unsubmitted: list[str] = []
        self._enqueued: dict[str, int] = {}
        self._completed: dict[str, int] = {}
        self._c_enqueued = registry.counter("workers.enqueued")
        self._c_completed = registry.counter("workers.completed")
        self._c_cancelled = registry.counter("workers.cancelled")
        self._c_requeued = registry.counter("workers.requeued")
        self._g_dead_letters = registry.gauge("workers.dead_letters")

    # -- the pending table --------------------------------------------------------

    def enqueue(
        self,
        instance_id: str,
        token_id: int,
        node: Any,
        arguments: dict[str, Any],
        now: float,
    ) -> InvocationRecord:
        """Register a pending invocation of a service-task node."""
        record = InvocationRecord.for_node(
            f"{self._id_prefix}{self._seqs.next('invocation_seq')}",
            instance_id,
            token_id,
            node,
            arguments,
            enqueued_at=now,
        )
        self._count_enqueued(node.service)
        self._c_enqueued.inc()
        self._add_pending(record)
        return record

    def _count_enqueued(self, service: str) -> None:
        self._enqueued[service] = self._enqueued.get(service, 0) + 1

    def _add_pending(self, record: InvocationRecord) -> None:
        self._pending[record.id] = record
        self._writes.put(INVOCATION_PREFIX, record.id, record.to_dict)
        self._unsubmitted.append(record.id)

    def get(self, invocation_id: str) -> InvocationRecord | None:
        """Look up a pending record."""
        return self._pending.get(invocation_id)

    def take(self, invocation_id: str) -> InvocationRecord | None:
        """Resolve a pending record (its deletion joins the next commit)."""
        record = self._pending.pop(invocation_id, None)
        if record is not None:
            self._writes.delete(INVOCATION_PREFIX, invocation_id)
            if invocation_id in self._unsubmitted:
                self._unsubmitted.remove(invocation_id)
        return record

    def settle(self, service: str) -> None:
        """Count one taken record as completed (the invariant's exit)."""
        self._completed[service] = self._completed.get(service, 0) + 1
        self._c_completed.inc()

    def cancel(self, invocation_id: str) -> None:
        """Drop a pending invocation whose token was released (boundary
        timer, terminate, migration).  A pool execution already in flight
        turns into a stale completion, absorbed as a duplicate."""
        record = self.take(invocation_id)
        if record is not None:
            self.settle(record.service)
            self._c_cancelled.inc()

    def take_unsubmitted(self) -> list[InvocationRecord]:
        """Pending records not yet handed to a pool, oldest first.

        The enqueue→submit ordering contract: the engine calls this only
        after the commit that made the records durable (or on recovery),
        so a crash can never lose an acknowledged enqueue.
        """
        ids, self._unsubmitted = self._unsubmitted, []
        return [self._pending[i] for i in ids if i in self._pending]

    # -- the dead-letter queue ----------------------------------------------------

    def dead_letter(
        self, record: InvocationRecord, error: str | None, attempts: int, now: float
    ) -> None:
        """Park a taken record whose retries exhausted."""
        raw = record.to_dict()
        raw["error"] = error
        raw["attempts"] = attempts
        raw["failed_at"] = now
        self._dead[record.id] = raw
        self._writes.put(DLQ_PREFIX, record.id, raw)
        self._g_dead_letters.inc()

    def requeue(self, invocation_id: str) -> InvocationRecord | None:
        """Move a dead letter back to pending; ``None`` if there is none."""
        raw = self._dead.pop(invocation_id, None)
        if raw is None:
            return None
        self._writes.delete(DLQ_PREFIX, invocation_id)
        self._g_dead_letters.dec()
        record = InvocationRecord.from_dict(raw)
        record.requeues += 1
        self._add_pending(record)
        self._c_requeued.inc()
        return record

    def dead_letters(self) -> list[dict[str, Any]]:
        """Dead-lettered invocations, oldest first (``repro dlq list``)."""
        return sorted(
            (dict(raw) for raw in self._dead.values()),
            key=lambda raw: (raw.get("failed_at", 0.0), raw.get("id", "")),
        )

    # -- accounting -----------------------------------------------------------------

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    @property
    def dead_letter_count(self) -> int:
        return len(self._dead)

    def status(self) -> dict[str, dict[str, int]]:
        """Per-service invocation accounting.

        For every service, ``enqueued == completed + pending +
        dead_lettered`` — the conservation invariant the property tests
        check after arbitrary completion/requeue/duplicate interleavings.
        """
        per_service: dict[str, dict[str, int]] = {}

        def slot(service: str) -> dict[str, int]:
            return per_service.setdefault(
                service,
                {"enqueued": 0, "completed": 0, "pending": 0, "dead_lettered": 0},
            )

        for service, count in self._enqueued.items():
            slot(service)["enqueued"] = count
        for service, count in self._completed.items():
            slot(service)["completed"] = count
        for record in self._pending.values():
            slot(record.service)["pending"] += 1
        for raw in self._dead.values():
            slot(raw.get("service", ""))["dead_lettered"] += 1
        return per_service

    # -- recovery -------------------------------------------------------------------
    #
    # the counters restart from the durable state: enqueued := pending +
    # dead_lettered (completions already settled)

    def load(self, store: KeyValueStore) -> int:
        """Restore ``invocation/`` records: exactly the acknowledged-but-
        unresolved set at crash time, queued for (at-least-once)
        re-submission — the completion path dedupes, so effects stay
        exactly-once.  Returns the count."""
        loaded = 0
        for _, raw in store.scan(INVOCATION_PREFIX):
            record = InvocationRecord.from_dict(raw)
            self._pending[record.id] = record
            self._unsubmitted.append(record.id)
            self._count_enqueued(record.service)
            loaded += 1
        return loaded

    def load_dead_letters(self, store: KeyValueStore) -> int:
        """Restore ``dlq/`` records; returns the count."""
        loaded = 0
        for _, raw in store.scan(DLQ_PREFIX):
            self._dead[raw["id"]] = dict(raw)
            self._count_enqueued(raw.get("service", ""))
            self._g_dead_letters.inc()
            loaded += 1
        return loaded
