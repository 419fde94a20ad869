"""The command dispatch path: one ordered sequence of steps per command.

Every public mutation of :class:`~repro.engine.engine.ProcessEngine` is a
typed :class:`~repro.engine.commands.Command` executed through
``engine.dispatch(cmd)``, which runs :meth:`Dispatcher.dispatch`:

1. **serialization gate** — a re-entrant lock making the engine safe for
   concurrent client threads.  All state mutation happens under it, so
   the engine stays a logical single writer; nested dispatch from inside
   a handler (e.g. ``AdvanceTime`` pumping ``RunDueJobs``) re-enters the
   same lock without deadlock and without re-queueing.
2. **idempotency** — externally-originated commands may carry a client
   ``dedup_key``; a repeated key replays the recorded result instead of
   double-applying the command, and counts only ``engine.commands.deduped``.
3. **observability** — one ``engine.command`` span per dispatch plus
   ``engine.commands.dispatched`` / per-type counters, keyed by command
   name.  No per-entry-point instrumentation code remains in the engine.
4. **handler, dispatch log, commit** — the handler runs; the command is
   recorded in a bounded, persisted log of applied commands
   (``dispatch/<seq>`` records; see ``repro commands`` CLI) and as a
   ``command.dispatched`` event on the engine history stream; then the
   group-commit/flush policy runs once (and honours ``engine.batch()``
   deferral), even when the handler raised: memory is the source of
   truth and the store must not lag behind it.  The flush comes after
   the log step, so it persists the finalized entry.
5. **dedup record** — only a successful dispatch records its key, so a
   client may retry a failed command under the same key.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Callable

from repro.engine.commands import Command
from repro.engine.errors import EngineError
from repro.engine.instance import INSTANCE_PREFIX, ProcessInstance
from repro.history.audit import HistoryService
from repro.history.events import EventTypes
from repro.services.bus import Message
from repro.storage.kvstore import KeyValueStore
from repro.storage.writeset import WriteSet
from repro.worklist.items import WorkItem
from repro.worklist.service import WORKITEM_PREFIX

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.engine import ProcessEngine

#: store-key family of dispatch-log entries (``dispatch/<zero-padded seq>``)
DISPATCH_PREFIX = "dispatch/"


class DispatchLog:
    """The bounded, persisted command log and its idempotency window.

    Bounded by ``retention``: pruned entries are deleted from the store
    at the next commit, and dedup keys whose recording entry fell out of
    the window are evicted — the idempotency guarantee holds within the
    retention window.
    """

    def __init__(self, writes: WriteSet, retention: int) -> None:
        self._writes = writes
        self.retention = max(1, int(retention))
        #: retained entries, oldest first, contiguous in ``seq``
        self.records: list[dict[str, Any]] = []
        #: sequence number of the newest entry ever appended
        self.seq = 0
        #: client dedup key -> ``{"result", "seq"}`` of its first apply
        self.dedup: dict[str, dict[str, Any]] = {}

    def append(self, record: dict[str, Any]) -> None:
        """Assign the next sequence number, store the entry, prune."""
        self.seq += 1
        record["seq"] = self.seq
        self.records.append(record)
        self._writes.put(DISPATCH_PREFIX, f"{self.seq:010d}", record)
        while len(self.records) > self.retention:
            old = self.records.pop(0)
            seq = old["seq"]
            record_id = f"{seq:010d}"
            # an entry appended and pruned inside one batch() never
            # reached the store: nothing to delete
            if not self._writes.discard(DISPATCH_PREFIX, record_id):
                self._writes.delete(DISPATCH_PREFIX, record_id)
            key = old.get("dedup_key")
            if key is not None:
                hit = self.dedup.get(key)
                if hit is not None and hit.get("seq") == seq:
                    del self.dedup[key]

    def state_changed(self) -> bool:
        """Whether any record besides log entries awaits commit — the
        trigger for logging a command that is otherwise not loggable."""
        return len(self._writes) > self._writes.count(DISPATCH_PREFIX)

    def history(self, limit: int | None = None) -> list[dict[str, Any]]:
        """Recent entries, oldest first."""
        log = list(self.records)
        if limit is not None and limit >= 0:
            log = log[len(log) - min(limit, len(log)):]
        return log

    def load(self, store: KeyValueStore) -> int:
        """Restore the ``dispatch/`` records of a store; returns entries
        retained.  Restores the idempotency window with them, so a client
        retrying a dedup-keyed command across a crash still gets the
        recorded (summarized) result instead of a double apply."""
        log = sorted(
            (raw for _, raw in store.scan(DISPATCH_PREFIX)),
            key=lambda r: r.get("seq", 0),
        )
        self.records = log[max(0, len(log) - self.retention):]
        if log:
            self.seq = max(self.seq, log[-1].get("seq", 0))
        for record in self.records:
            key = record.get("dedup_key")
            if key is not None and record.get("status") == "applied":
                self.dedup[key] = {
                    "result": record.get("result"),
                    "seq": record.get("seq", 0),
                }
        return len(self.records)


def summarize_result(result: Any) -> Any:
    """A JSON-safe summary of a handler result for the dispatch log."""
    if result is None or isinstance(result, (bool, int, float, str)):
        return result
    if isinstance(result, dict):
        # completion/requeue handlers return JSON-safe status dicts
        return result
    # duck-typed: the engine's result objects (ProcessInstance, WorkItem,
    # Message) each expose a stable identifier
    if isinstance(result, ProcessInstance):
        return {"instance_id": result.id, "state": result.state.value}
    if isinstance(result, WorkItem):
        return {"work_item_id": result.id, "state": result.state.value}
    if isinstance(result, Message):
        return {"message_id": result.id, "message_name": result.name}
    return repr(result)


#: above this many combined dirty ids, a log entry's ``touched`` stamp
#: degrades to ``None`` ("unknown") and recovery falls back to a full
#: view rebuild instead of tail replay — bounds per-entry log growth
TOUCHED_STAMP_CAP = 64


def _touched_snapshot(engine: "ProcessEngine") -> dict[str, list[str]] | None:
    """The view-relevant dirty ids at log time, or ``None`` if over cap.

    Pending puts only grow between commits, so the stamp on the *last*
    entry of any uncommitted window is a superset of every earlier
    entry's touches — which is exactly what makes replaying only the
    tail's touched entities from final base state sufficient (see
    ``ProjectionManager.recover``).
    """
    instance_ids = engine._writes.puts(INSTANCE_PREFIX)
    item_ids = engine._writes.puts(WORKITEM_PREFIX)
    if len(instance_ids) + len(item_ids) > TOUCHED_STAMP_CAP:
        return None
    return {"instances": sorted(instance_ids), "items": sorted(item_ids)}


def _log(engine: "ProcessEngine", record: dict[str, Any]) -> None:
    """Stamp, append and announce one finalized dispatch-log entry."""
    record["touched"] = _touched_snapshot(engine)
    engine.dispatch_log.append(record)
    engine.history.record(
        HistoryService.ENGINE_STREAM,
        EventTypes.COMMAND_DISPATCHED,
        command=record["name"],
        seq=record["seq"],
        dedup_key=record["dedup_key"],
        depth=record["depth"],
        status=record["status"],
    )


class Dispatcher:
    """Executes commands one at a time, in the order the module lists.

    The lock is shared with the worklist service and the message bus
    (``bind_lock``), so even clients that talk to those components
    directly serialize against command dispatch.
    """

    def __init__(
        self,
        engine: "ProcessEngine",
        handlers: dict[type[Command], Callable[[Command], Any]],
        lock: "threading.RLock | None" = None,
    ) -> None:
        self.engine = engine
        self.handlers = dict(handlers)
        self.lock = lock if lock is not None else threading.RLock()
        #: current dispatch nesting depth (1 = outermost), valid only
        #: while the lock is held
        self.depth = 0

    def dispatch(self, command: Command) -> Any:
        """Execute one command through every step of the path."""
        if not isinstance(command, Command):
            raise TypeError(
                f"dispatch expects a Command, got {type(command).__name__}"
            )
        engine = self.engine
        log = engine.dispatch_log
        with self.lock:
            self.depth += 1
            try:
                # a hit replays the first application's result (after a
                # restart, the persisted summary: the log is the record)
                key = command.dedup_key
                hit = None if key is None else log.dedup.get(key)
                if hit is not None:
                    engine._c_commands_deduped.inc()
                    return hit["result"]
                engine._c_commands.inc()
                counter = engine._command_counters.get(command.name)
                if counter is None:
                    counter = engine._command_counters[command.name] = (
                        engine.obs.registry.counter(f"engine.commands.{command.name}")
                    )
                counter.inc()
                # detached span (not on the tracer scope stack) so the
                # engine -> instance -> node hierarchy is unchanged
                span = (
                    engine._tracer.start_span(
                        "engine.command",
                        parent=engine._engine_span,
                        command=command.name,
                    )
                    if engine.obs.enabled
                    else None
                )
                try:
                    try:
                        result = self._apply_and_log(command)
                    finally:
                        engine._flush()
                except BaseException:
                    if span is not None:
                        span.finish("error")
                    raise
                if span is not None:
                    span.finish()
                if key is not None:
                    log.dedup[key] = {"result": result, "seq": log.seq}
                return result
            finally:
                self.depth -= 1

    def _apply_and_log(self, command: Command) -> Any:
        """Run the handler and record the command in the dispatch log.

        Skips only commands that report themselves unloggable (idle
        pumps) *and* left no pending writes behind — everything that
        mutated the engine is in the log, which is what makes a
        sequential replay of the log equivalent to the original
        concurrent run.  A raising handler is logged ``status="error"``.
        Each entry is stamped with the ``touched`` entity ids still dirty
        at log time, so view recovery can replay only the tail of the log
        (cursor -> head) instead of rebuilding from scratch.
        """
        engine = self.engine
        record: dict[str, Any] = {
            "command": command.to_dict(),
            "name": command.name,
            "dedup_key": command.dedup_key,
            "depth": self.depth,
            "at": engine.clock.now(),
            "status": "applied",
        }
        try:
            handler = self.handlers.get(type(command))
            if handler is None:
                raise EngineError(
                    f"no handler registered for command {command.name!r}"
                )
            result = handler(command)
        except BaseException as exc:
            record["status"] = "error"
            record["error"] = f"{type(exc).__name__}: {exc}"
            _log(engine, record)
            raise
        if command.loggable(result) or engine.dispatch_log.state_changed():
            record["result"] = summarize_result(result)
            _log(engine, record)
        return result
