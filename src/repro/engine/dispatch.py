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
   (``dispatch/<seq>@<dedup key>`` records, whose keys alone restore the
   log's seq and idempotency window; see ``repro commands`` CLI), which
   is the one record of a command: the history stream carries no copy of it;
   then the flush runs once (deferred only inside the calling thread's
   ``engine.batch()``), even when the handler raised: memory is the
   source of truth and the store must not lag behind it.  The flush
   comes after the log step, so it persists the finalized entry.
5. **dedup record** — only a successful dispatch records its key, so a
   client may retry a failed command under the same key.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.engine.commands import Command
from repro.engine.instance import INSTANCE_PREFIX, ProcessInstance
from repro.services.bus import Message
from repro.storage.kvstore import KeyValueStore
from repro.storage.writeset import WriteSet
from repro.worklist.items import WorkItem
from repro.worklist.service import WORKITEM_PREFIX

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.engine import ProcessEngine

#: store-key family of dispatch-log entries: ``dispatch/<seq:010d>@<dedup
#: key>`` for an applied dedup-keyed command, ``dispatch/<seq:010d>.`` for
#: any other entry, so a restart reads the window off the keys alone
DISPATCH_PREFIX = "dispatch/"

#: where an entry's id ends its zero-padded seq, within the store key
_SEQ_END = len(DISPATCH_PREFIX) + 10


def _entry_id(seq: int, record: dict[str, Any]) -> str:
    """The store id of an entry: its seq, then its dedup key when it is
    an applied dedup-keyed command (the idempotency window holds those)."""
    key = record.get("dedup_key")
    if key is None or record.get("status") != "applied":
        return f"{seq:010d}."
    return f"{seq:010d}@{key}"


def entry_seq(entry: dict[str, Any] | str) -> int:
    """The seq of an entry: its record's, or read off its store key."""
    if isinstance(entry, str):
        return int(entry[len(DISPATCH_PREFIX):_SEQ_END])
    return entry["seq"]


class DispatchLog:
    """The bounded, persisted command log and its idempotency window.

    Bounded by ``retention``: pruned entries are deleted from the store
    at the next commit, and dedup keys whose recording entry fell out of
    the window are evicted — the idempotency guarantee holds within the
    retention window.  A restart lists the entry keys only; an entry is
    decoded when something reads it (a dedup hit, the views' tail
    replay, :meth:`history`).
    """

    def __init__(self, writes: WriteSet, retention: int) -> None:
        self._writes = writes
        self.retention = max(1, int(retention))
        #: retained entries, oldest first, contiguous in ``seq``: the
        #: record, or the store key of a restored entry not read yet
        self.records: list[dict[str, Any] | str] = []
        #: sequence number of the newest entry ever appended
        self.seq = 0
        #: client dedup key -> ``{"result", "seq"}`` of its first apply;
        #: a restored key holds only ``seq`` until a hit reads its entry
        self.dedup: dict[str, dict[str, Any]] = {}
        #: called, under the dispatch lock, with the dedup key of a pruned
        #: entry that no later apply re-recorded (a cluster forgets its route)
        self.on_expire: Callable[[str], None] | None = None
        #: the store restored entries are read from (set by :meth:`load`)
        self._store: KeyValueStore | None = None

    def append(self, record: dict[str, Any]) -> None:
        """Stamp the entry's ``touched`` ids, assign the next sequence
        number, store the entry, prune."""
        record["touched"] = _touched_snapshot(self._writes)
        self.seq += 1
        record["seq"] = self.seq
        self.records.append(record)
        self._writes.put(DISPATCH_PREFIX, _entry_id(self.seq, record), record)
        while len(self.records) > self.retention:
            self._prune(self.records.pop(0))

    def _prune(self, old: dict[str, Any] | str) -> None:
        seq = entry_seq(old)
        if isinstance(old, str):  # restored, never read: its key says it all
            record_id = old[len(DISPATCH_PREFIX):]
            key = old[_SEQ_END + 1:] if "@" in old else None
        else:
            record_id = _entry_id(seq, old)
            key = old.get("dedup_key")
        # an entry appended and pruned inside one batch() never
        # reached the store: nothing to delete
        if not self._writes.discard(DISPATCH_PREFIX, record_id):
            self._writes.delete(DISPATCH_PREFIX, record_id)
        if key is not None:
            hit = self.dedup.get(key)
            if hit is None or hit.get("seq") == seq:
                self.dedup.pop(key, None)
                if self.on_expire is not None:
                    self.on_expire(key)

    def state_changed(self) -> bool:
        """Whether any record besides log entries awaits commit — the
        trigger for logging a command that is otherwise not loggable."""
        return len(self._writes) > self._writes.count(DISPATCH_PREFIX)

    def _read(self, entry: dict[str, Any] | str) -> dict[str, Any] | None:
        """A retained entry's record (``None``: pruned by a racing commit)."""
        if isinstance(entry, str):
            assert self._store is not None
            return self._store.get(entry)
        return entry

    def history(self, limit: int | None = None) -> list[dict[str, Any]]:
        """Recent entries, oldest first; a restored one is read from the
        store on each call."""
        log = list(self.records)
        if limit is not None and limit >= 0:
            log = log[len(log) - min(limit, len(log)):]
        return [record for record in map(self._read, log) if record is not None]

    def since(self, seq: int) -> list[dict[str, Any]]:
        """The retained entries after ``seq``, oldest first; only those are
        read."""
        records = self.records
        start = len(records)
        while start and entry_seq(records[start - 1]) > seq:
            start -= 1
        return [self._read(entry) for entry in records[start:]]

    def replay(self, key: str, hit: dict[str, Any]) -> Any:
        """The recorded result of a dedup hit; a key restored from the
        store reads its one entry on the first hit."""
        if "result" not in hit:
            assert self._store is not None
            stored = self._store.get(f"{DISPATCH_PREFIX}{hit['seq']:010d}@{key}")
            hit["result"] = stored.get("result")
        return hit["result"]

    def load(self, store: KeyValueStore) -> int:
        """Restore the ``dispatch/`` window of a store from its keys alone;
        returns entries retained.  ``seq`` and the idempotency window (dedup
        key -> seq) come off the keys, so a client retrying a dedup-keyed
        command across a crash still gets the recorded (summarized) result
        instead of a double apply.  Entries beyond ``retention`` (a store
        written with a longer one) are deleted at the next commit.  An
        entry stored under its bare seq (before keys named their dedup
        key) is decoded here and rewritten under its new key at the next
        commit."""
        self._store = store
        # keys start with zero-padded seqs, so they list in seq order
        keys = store.keys(DISPATCH_PREFIX)
        cut = max(0, len(keys) - self.retention)
        start = len(DISPATCH_PREFIX)
        for key in keys[:cut]:
            self._writes.delete(DISPATCH_PREFIX, key[start:])
        records: list[dict[str, Any] | str] = keys[cut:]
        if records:
            self.seq = max(self.seq, entry_seq(keys[-1]))
        dedup = self.dedup
        for index, key in enumerate(records):
            if "@" in key:
                dedup[key[_SEQ_END + 1:]] = {"seq": int(key[start:_SEQ_END])}
            elif len(key) == _SEQ_END:
                records[index] = self._load_bare(store, key)
        self.records = records
        return len(records)

    def _load_bare(self, store: KeyValueStore, key: str) -> dict[str, Any]:
        """Decode an entry stored under its bare seq, restore its dedup key
        with its result, and move it to its new key at the next commit."""
        record = store.get(key)
        seq = record["seq"]
        dedup_key = record.get("dedup_key")
        if dedup_key is not None and record.get("status") == "applied":
            self.dedup[dedup_key] = {"result": record.get("result"), "seq": seq}
        self._writes.delete(DISPATCH_PREFIX, key[len(DISPATCH_PREFIX):])
        self._writes.put(DISPATCH_PREFIX, _entry_id(seq, record), record)
        return record


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


def _touched_snapshot(writes: WriteSet) -> dict[str, list[str]] | None:
    """The view-relevant dirty ids at log time, or ``None`` if over cap.

    Pending puts only grow between commits, so the stamp on the *last*
    entry of any uncommitted window is a superset of every earlier
    entry's touches — which is exactly what makes replaying only the
    tail's touched entities from final base state sufficient (see
    ``ProjectionManager.recover``).
    """
    instance_ids = writes.puts(INSTANCE_PREFIX)
    item_ids = writes.puts(WORKITEM_PREFIX)
    if len(instance_ids) + len(item_ids) > TOUCHED_STAMP_CAP:
        return None
    return {"instances": sorted(instance_ids), "items": sorted(item_ids)}


class Dispatcher:
    """Executes commands one at a time, in the order the module lists.

    The gate is the engine's ``_dispatch_lock``, held by an open
    ``engine.batch()`` and shared with the worklist service and the job
    scheduler, which change nothing unless :meth:`running`, and restore
    nothing unless :attr:`restoring` (``bind_lock``).
    """

    def __init__(
        self,
        engine: "ProcessEngine",
        handlers: dict[type[Command], Callable[[Command], Any]],
    ) -> None:
        self.engine = engine
        self.handlers = dict(handlers)
        #: current dispatch nesting depth (1 = outermost), valid only
        #: while the lock is held
        self.depth = 0
        #: set while ``ProcessEngine.recover()`` restores the jobs and
        #: the worklist
        self.restoring = False

    def running(self) -> bool:
        """Whether the thread holding the gate is running a command."""
        return self.depth > 0

    def dispatch(self, command: Command) -> Any:
        """Execute one command through every step of the path."""
        # every Command subclass has a handler: a miss is no command
        handler = self.handlers.get(type(command))
        if handler is None:
            raise TypeError(
                f"dispatch expects a Command, got {type(command).__name__}"
            )
        engine = self.engine
        log = engine.dispatch_log
        with engine._dispatch_lock:
            self.depth += 1
            try:
                # a hit replays the first application's result (after a
                # restart, the persisted summary: the log is the record)
                key = command.dedup_key
                hit = None if key is None else log.dedup.get(key)
                if hit is not None:
                    engine._c_commands_deduped.inc()
                    return log.replay(key, hit)
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
                        result = self._apply_and_log(command, handler)
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

    def _apply_and_log(
        self, command: Command, handler: Callable[[Command], Any]
    ) -> Any:
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
            result = handler(command)
        except BaseException as exc:
            record["status"] = "error"
            record["error"] = f"{type(exc).__name__}: {exc}"
            engine.dispatch_log.append(record)
            raise
        if command.loggable(result) or engine.dispatch_log.state_changed():
            record["result"] = summarize_result(result)
            engine.dispatch_log.append(record)
        return result
