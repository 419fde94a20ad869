"""Non-blocking service execution: pool, records, dead-letter queue.

See DESIGN.md §Asynchronous service execution for the full cycle; the
short version: service tasks enqueue durable
:class:`~repro.workers.records.InvocationRecord`\\ s (held in the engine's
:class:`~repro.workers.ledger.InvocationLedger`) under the shard lock,
a :class:`~repro.workers.pool.WorkerPool` of competing consumers executes
them with no lock held, and outcomes return as idempotent
``CompleteServiceInvocation`` commands through the dispatch pipeline.
"""

from repro.workers.pool import WorkerPool
from repro.workers.records import InvocationRecord

__all__ = ["InvocationRecord", "WorkerPool"]
