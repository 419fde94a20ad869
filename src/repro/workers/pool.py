"""Competing-consumers worker pool for non-blocking service execution.

The enqueue/execute/complete cycle (see DESIGN.md §Asynchronous service
execution):

* **enqueue under the lock** — the service-task executor, running inside
  a dispatch, parks the token and registers an
  :class:`~repro.workers.records.InvocationRecord`; the engine hands the
  record to :meth:`WorkerPool.submit` only *after* the group commit that
  made it durable.
* **execute in the pool** — worker threads drain one bounded queue per
  service (queue-based load leveling) round-robin, and run the engine's
  invoker/retry/breaker stack while holding **no** shard lock — the 2 ms
  service call that capped a shard at ~370 inst/s in F11 now overlaps
  with dispatch.
* **complete via dispatch** — the outcome returns as an idempotent
  :class:`~repro.engine.commands.CompleteServiceInvocation` through the
  normal dispatch path: serialized, deduped, logged, group-committed.

Admission control is producer-pays: :meth:`admit` refuses when the
service's queue is full, and the executor falls back to the synchronous
inline path — callers feel backpressure instead of the queue growing
without bound.

``workers=0`` builds a *manual* pool: no threads, entries execute on the
caller's thread via :meth:`run_next` — what the crash-matrix and property
tests use to pin exact interleavings.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.engine import commands as cmds

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.engine import ProcessEngine
    from repro.workers.records import InvocationRecord


@dataclass
class _Entry:
    engine: "ProcessEngine"
    record: "InvocationRecord"
    submitted: float


class WorkerPool:
    """Bounded per-service queues drained by competing consumer threads."""

    def __init__(
        self,
        workers: int = 4,
        queue_capacity: int = 64,
        name: str = "workers",
    ) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0")
        if queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        self.name = name
        self.queue_capacity = queue_capacity
        self._cond = threading.Condition()
        self._queues: dict[str, deque[_Entry]] = {}
        self._services: list[str] = []  # round-robin order over queues
        self._rr_cursor = 0
        self._inflight: dict[str, int] = {}
        self._total_inflight = 0
        self._closed = False
        # observability: bound to the first engine's registry (one registry
        # per engine/cluster; shards share it, so these are cluster-wide)
        self._obs: Any = None
        self._g_inflight: Any = None
        self._g_depth: dict[str, Any] = {}
        self._h_queue_wait: Any = None
        self._h_execute: Any = None
        self._c_throttled: Any = None
        self._c_completion_errors: Any = None
        self._threads = [
            threading.Thread(
                target=self._worker_loop, name=f"{name}-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- engine binding ---------------------------------------------------------

    def bind(self, engine: "ProcessEngine") -> None:
        """Attach observability instruments (called by ``attach_workers``)."""
        with self._cond:
            if self._obs is not None:
                return
            self._obs = engine.obs
            registry = engine.obs.registry
            self._g_inflight = registry.gauge("workers.inflight")
            self._h_queue_wait = registry.histogram("workers.queue_wait_seconds")
            self._h_execute = registry.histogram("workers.execute_seconds")
            self._c_throttled = registry.counter("workers.throttled")
            self._c_completion_errors = registry.counter(
                "workers.completion_errors"
            )

    # -- admission (called under the enqueueing shard's lock) -------------------

    def admit(self, service: str) -> bool:
        """Admission check for one enqueue: the queue bound.

        ``False`` sends the caller down the synchronous inline path — the
        load-leveling contract is that a full queue pushes latency back to
        the producer instead of growing without bound.
        """
        with self._cond:
            if self._closed:
                return False
            queue = self._queues.get(service)
            if queue is not None and len(queue) >= self.queue_capacity:
                if self._c_throttled is not None:
                    self._c_throttled.inc()
                return False
        return True

    def submit(self, engine: "ProcessEngine", record: "InvocationRecord") -> None:
        """Queue one durable record for execution.

        Called by the engine *after* the group commit that persisted the
        record (and on ``recover()`` for records found in the store), so a
        crash can only lose work the client was never acknowledged for.
        """
        entry = _Entry(engine=engine, record=record, submitted=time.perf_counter())
        with self._cond:
            service = record.service
            queue = self._queues.get(service)
            if queue is None:
                queue = self._queues[service] = deque()
                self._services.append(service)
            queue.append(entry)
            self._set_depth_gauge(service, len(queue))
            self._cond.notify()

    # -- the consumer side ------------------------------------------------------

    def _set_depth_gauge(self, service: str, depth: int) -> None:
        if self._obs is None:
            return
        gauge = self._g_depth.get(service)
        if gauge is None:
            gauge = self._g_depth[service] = self._obs.registry.gauge(
                f"workers.queue_depth.{service}"
            )
        gauge.set(depth)

    def _next_entry(self) -> _Entry | None:
        """Pop the next entry (round-robin across services).  Caller holds
        the lock."""
        count = len(self._services)
        for offset in range(count):
            index = (self._rr_cursor + offset) % count
            service = self._services[index]
            queue = self._queues[service]
            if not queue:
                continue
            self._rr_cursor = (index + 1) % count
            entry = queue.popleft()
            self._set_depth_gauge(service, len(queue))
            return entry
        return None

    def _worker_loop(self) -> None:
        while True:
            with self._cond:
                entry = self._next_entry()
                while entry is None:
                    if self._closed:
                        return
                    self._cond.wait(0.1)
                    entry = self._next_entry()
                service = entry.record.service
                self._inflight[service] = self._inflight.get(service, 0) + 1
                self._total_inflight += 1
                if self._g_inflight is not None:
                    self._g_inflight.set(self._total_inflight)
            try:
                self._execute(entry)
            finally:
                with self._cond:
                    self._inflight[service] -= 1
                    self._total_inflight -= 1
                    if self._g_inflight is not None:
                        self._g_inflight.set(self._total_inflight)
                    self._cond.notify_all()

    def _execute(self, entry: _Entry) -> None:
        if self._h_queue_wait is not None:
            self._h_queue_wait.observe(time.perf_counter() - entry.submitted)
        started = time.perf_counter()
        command = self._run_invocation(entry.engine, entry.record)
        if self._h_execute is not None:
            self._h_execute.observe(time.perf_counter() - started)
        try:
            entry.engine.dispatch(command)
        except Exception:  # noqa: BLE001 - a worker thread must not die
            # the pending record is still durable; recovery re-runs it
            if self._c_completion_errors is not None:
                self._c_completion_errors.inc()
            if self._obs is not None:
                self._obs.event(
                    "workers.completion_error",
                    invocation_id=entry.record.id,
                    service=entry.record.service,
                )

    def _run_invocation(
        self, engine: "ProcessEngine", record: "InvocationRecord"
    ) -> cmds.CompleteServiceInvocation:
        """Run the invoker/retry/breaker stack; fold the outcome into an
        idempotent completion command.  Holds no engine lock."""
        from repro.engine.errors import BpmnError  # cycle guard

        dedup_key = record.completion_dedup_key()
        try:
            result = engine.invoker.invoke(
                record.service, dict(record.arguments), retry=record.retry_policy()
            )
        except BpmnError as exc:
            return cmds.CompleteServiceInvocation(
                invocation_id=record.id,
                outcome="bpmn_error",
                error_code=exc.code,
                error=exc.detail,
                attempts=1,
                dedup_key=dedup_key,
            )
        except Exception as exc:  # noqa: BLE001 - defensive: invoker bug
            return cmds.CompleteServiceInvocation(
                invocation_id=record.id,
                outcome="failure",
                error=f"{type(exc).__name__}: {exc}",
                dedup_key=dedup_key,
            )
        if result.succeeded:
            return cmds.CompleteServiceInvocation(
                invocation_id=record.id,
                outcome="success",
                value=result.value,
                attempts=result.attempts,
                dedup_key=dedup_key,
            )
        return cmds.CompleteServiceInvocation(
            invocation_id=record.id,
            outcome="failure",
            error=result.error or "service failed",
            attempts=result.attempts,
            dedup_key=dedup_key,
        )

    # -- manual mode (workers=0) ------------------------------------------------

    def run_next(
        self, complete: bool = True
    ) -> cmds.CompleteServiceInvocation | None:
        """Execute the next queued entry on the calling thread.

        ``complete=False`` runs the service but does *not* dispatch the
        completion — the crash window between execution and
        completion-dispatch, pinned deterministically.  Returns the
        completion command (dispatched or not), or ``None`` when idle.
        """
        with self._cond:
            entry = self._next_entry()
            if entry is None:
                return None
            service = entry.record.service
            self._inflight[service] = self._inflight.get(service, 0) + 1
            self._total_inflight += 1
        try:
            command = self._run_invocation(entry.engine, entry.record)
            if complete:
                entry.engine.dispatch(command)
            return command
        finally:
            with self._cond:
                self._inflight[service] -= 1
                self._total_inflight -= 1
                self._cond.notify_all()

    def drain(self) -> int:
        """Run every queued entry to completion (manual mode); count."""
        ran = 0
        while self.run_next() is not None:
            ran += 1
        return ran

    # -- coordination -----------------------------------------------------------

    def wait_idle(self, timeout: float = 30.0) -> bool:
        """Block until no entry is queued or in flight (or timeout).

        Quiescence here means every submitted record's completion command
        has been dispatched; callers using deferred commit policies still
        need a ``flush()`` for durability.
        """
        deadline = time.monotonic() + timeout
        with self._cond:
            while True:
                if self._total_inflight == 0 and not any(
                    self._queues.values()
                ):
                    return True
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(min(remaining, 0.05))

    def close(self, timeout: float = 10.0) -> None:
        """Stop the consumers.  Queued-but-unexecuted records stay durable
        in their engines' stores and re-enqueue on the next recovery."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        for thread in self._threads:
            thread.join(timeout)

    def status(self) -> dict[str, Any]:
        """Point-in-time queue and in-flight occupancy (cluster status)."""
        with self._cond:
            return {
                "workers": len(self._threads),
                "queue_capacity": self.queue_capacity,
                "queued": {
                    service: len(queue)
                    for service, queue in self._queues.items()
                    if queue
                },
                "inflight": {
                    service: count
                    for service, count in self._inflight.items()
                    if count
                },
                "closed": self._closed,
            }
