"""``ProjectionManager``: maintains the read models at group-commit time.

The read models are three fixed tables (:mod:`repro.views.projections`):
``by_state`` (instances), ``def_stats`` (per-definition analytics) and
``worklist`` (work items).  The manager calls their batch ``apply_*``
methods directly and keeps **one cursor for the whole image**,
``view/__cursor``.

The manager hangs off :meth:`ProcessEngine._flush` as a *write-behind*
consumer of the engine's write-set.  Every commit that carries instance
or work-item puts notes their ids (:meth:`note_commit` — two set
unions, nothing else on the commit hot path); the noted entities are
*materialized* into the in-memory tables lazily, the first time a query
needs them or when the view records are persisted.  Persistence itself
(the *drain*) puts the view records and the cursor into the same
write-set — **the same store transaction** as the base records — but
only on commits where the persisted image has fallen a quarter of the
dispatch-log retention behind, or on any forced flush
(:meth:`ProcessEngine.flush`, batch exit), the group-commit boundary.

That shape buys the consistency story and keeps maintenance off the
per-dispatch critical path:

* the tables are never ahead of durable state — view records and the
  cursor commit atomically with (a subset of) the base records they
  project, and a torn commit drops the whole batch;
* the persisted image may lag by a bounded number of seqs (strictly
  less than the retained dispatch-log tail), which recovery repairs by
  replaying just the ``touched`` entity ids stamped on the log tail;
* in-memory table state is exact on read: queries first fold in the
  noted-but-unapplied entities *and* the engine's instance and
  work-item puts not yet committed (inside ``batch()``), so the image
  answers for the engine's memory at any moment — it is the engine's
  only instance and work-item index.

Cursor semantics: every drain stamps ``view/__cursor`` with the
engine's dispatch sequence at commit time and the finished tier's
census.  On recovery the cursor tells the manager how much of the
dispatch log the persisted image has seen:

* **cursor == dispatch seq** → load the records, done (clean shutdown
  went through a forced flush, so this is the common case);
* **cursor < dispatch seq**, the log still retains every entry past the
  cursor, and each carries a ``touched`` entity-id stamp → re-apply
  just those entities from their stored records (tail replay);
* anything else (no cursor, a cursor ahead of the log, an image in an
  older layout, pruned tail, stamps missing/over the cap) → full
  rebuild from the stored base records, linear in state size.

Recovery reads the store only, before the engine decodes any instance:
the caught-up image names the live cases the engine decodes.  A load
reads the cursor and one record per live entity and per definition;
finished cases, and the pages that list them, stay on disk until used.

Failure handling mirrors the write-set's: the tables' dirty keys are
cleared only by :meth:`confirm` — called after the store transaction
and sync succeeded — so a failed commit re-emits the (converged,
idempotent) records on retry.
"""

from __future__ import annotations

import time
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Iterable

from repro.engine.instance import INSTANCE_PREFIX
from repro.storage.writeset import WriteSet
from repro.views.projections import (
    INSTANCE_STATES,
    VIEW_PREFIX,
    DefinitionStats,
    InstancesByState,
    WorklistQueues,
    compact_instance,
    compact_instance_obj,
    compact_item,
    compact_item_obj,
)
from repro.worklist.service import WORKITEM_PREFIX

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.engine import ProcessEngine
    from repro.obs import Observability

#: the one cursor of the whole image: the dispatch seq it is current through
CURSOR_KEY = VIEW_PREFIX + "__cursor"

#: the batch-apply determinism order (C-level key extraction)
_RANK_ID = itemgetter("rank", "id")


def _retire(entities: list[Any], live: dict[str, Any], cache: Any) -> None:
    """Move folded finished entities from a live map to its weak identity
    cache (under the dispatch lock, which a lookup's re-check takes)."""
    for entity in entities:
        cache[entity.id] = entity
        del live[entity.id]


class ProjectionManager:
    """The three read-model tables plus apply/recover/rebuild plumbing."""

    def __init__(self, obs: "Observability | None" = None) -> None:
        self.by_state = InstancesByState()
        self.def_stats = DefinitionStats()
        self.worklist = WorklistQueues()
        #: the tables in drain order, and by record-key name
        self.projections = (self.by_state, self.def_stats, self.worklist)
        self._by_name = {table.name: table for table in self.projections}
        self._tiered = (self.by_state, self.worklist)
        #: dispatch seq the in-memory image is current through (counting
        #: noted-but-unmaterialized entities, which reads materialize)
        self.applied_seq = 0
        #: dispatch seq covered by the last *persisted* cursor
        self.persisted_seq = 0
        #: how the last recover() caught up: "load" | "tail" | "rebuild"
        self.recovered_mode: str | None = None
        #: the last load() read a layout this build does not write
        self.stale = False
        # write-behind buffers: entity ids noted by flushes but not yet
        # applied to the tables; materialized on read or drain
        self._pending_instances: set[str] = set()
        self._pending_items: set[str] = set()
        self._source: "ProcessEngine | None" = None
        self._noted_seq = 0
        self._drained_seq = 0
        # a drain's records sit in the write-set awaiting commit
        self._unconfirmed = False
        self._h_apply = (
            None if obs is None else obs.registry.histogram("views.apply_seconds")
        )
        # one lag gauge per table (``views.lag.<name>``), all set alike
        self._g_lag = (
            ()
            if obs is None
            else tuple(
                obs.registry.gauge(f"views.lag.{table.name}")
                for table in self.projections
            )
        )

    def bind(self, engine: "ProcessEngine") -> None:
        """Attach the engine whose objects and write-set feed the image."""
        self._source = engine

    # -- the commit hooks -------------------------------------------------------

    def note_commit(self, writes: WriteSet, seq: int, persist: bool) -> None:
        """Note the entity ids this commit touches; drain if ``persist``.

        Called by :meth:`ProcessEngine._flush` under the dispatch lock,
        before the store transaction opens.  The touched ids are the
        write-set's pending ``instance/`` and ``workitem/`` puts; noting
        them is two set unions — the per-commit cost of view maintenance
        is O(touched ids), not O(table work).  They materialize
        lazily (first read or next drain), pulling each entity's
        *current* state, so an entity committed five times between
        drains is applied once.  A commit that touches neither (deploy,
        jobs, log pruning) and finds nothing pending leaves the views
        alone.
        """
        instance_ids = writes.puts(INSTANCE_PREFIX)
        item_ids = writes.puts(WORKITEM_PREFIX)
        if not (instance_ids or item_ids or self.has_pending()):
            return
        self._pending_instances.update(instance_ids)
        self._pending_items.update(item_ids)
        self._noted_seq = seq
        if persist:
            # the drain: changed view records plus the image cursor join
            # this commit; committed() confirms them
            self._materialize()
            cut = len(VIEW_PREFIX)
            for key, value in self._write_set(seq).items():
                if value is None:
                    writes.delete(VIEW_PREFIX, key[cut:])
                else:
                    writes.put(VIEW_PREFIX, key[cut:], value)
            self._unconfirmed = True

    def has_pending(self) -> bool:
        """Whether noted entities await materialization or persistence.

        The seq comparison matters when a *read* already materialized the
        noted ids (clearing the pending sets): the in-memory image then
        holds dirty records the store has never seen, and a forced flush
        must still drain them.  After a confirmed drain the noted seq
        never exceeds the persisted cursor, so steady-state forced
        flushes stay write-free.
        """
        return bool(
            self._pending_instances
            or self._pending_items
            or self._noted_seq > self.persisted_seq
        )

    def _materialize(self) -> None:
        """Fold noted-but-unapplied entities, and the bound engine's
        instance and work-item puts not yet committed, into the in-memory
        image.

        Every id folded names an object the engine holds live (it created
        or touched it since the views last folded it), so the lookups below
        never read through; a miss was folded already.  Once folded, a
        finished entity leaves the live map for the weak identity cache:
        the tables are the last reader that needs it by id.  Folding an
        uncommitted change marks its view records dirty; they persist only
        with a drain, in the transaction that commits the change itself,
        so the stored image still never leads.
        """
        engine = self._source
        if engine is None:
            return
        with engine._dispatch_lock:
            writes = engine._writes
            self._pending_instances.update(writes.puts(INSTANCE_PREFIX))
            self._pending_items.update(writes.puts(WORKITEM_PREFIX))
            if not self._pending_instances and not self._pending_items:
                return
            started = time.perf_counter()
            live_instances = engine._instances
            instances, finished = [], []
            for instance_id in self._pending_instances:
                instance = live_instances.get(instance_id)
                if instance is not None:
                    instances.append(compact_instance_obj(instance))
                    if instance.state.is_finished:
                        finished.append(instance)
            worklist = engine.worklist
            items, done = [], []
            for item_id in self._pending_items:
                item = worklist._items.get(item_id)
                if item is not None:
                    items.append(compact_item_obj(item))
                    if item.state.is_terminal:
                        done.append(item)
            self._pending_instances.clear()
            self._pending_items.clear()
            self._apply_memory(instances, items, self._noted_seq)
            _retire(finished, live_instances, engine._finished)
            _retire(done, worklist._items, worklist._finished)
            if self._h_apply is not None:
                self._h_apply.observe(time.perf_counter() - started)

    def _apply_memory(
        self,
        instances: list[dict[str, Any]],
        items: list[dict[str, Any]],
        seq: int,
    ) -> None:
        """Apply one batch of compact records to the in-memory image.

        Batches apply in ``(rank, id)`` order — the determinism contract
        that makes incremental maintenance, tail replay, and rebuild
        produce identical persisted bytes.  Every pair's ``old`` is
        snapshotted before any table mutates shared state (each entity
        appears at most once per batch, so the precomputed transitions
        match record-at-a-time apply); a finished entity's re-put never
        becomes a pair.
        """
        if instances:
            if len(instances) > 1:
                instances.sort(key=_RANK_ID)
            pairs = self.by_state.transitions(instances)
            self.by_state.apply_instances(pairs)
            self.def_stats.apply_instances(pairs)
        if items:
            if len(items) > 1:
                items.sort(key=_RANK_ID)
            self.worklist.apply_items(self.worklist.transitions(items))
        if seq > self.applied_seq:
            self.applied_seq = seq

    def _write_set(self, seq: int) -> dict[str, Any]:
        """Dirty view records plus the image cursor at ``seq``."""
        writes: dict[str, Any] = {}
        for table in self.projections:
            prefix = f"{VIEW_PREFIX}{table.name}/"
            for suffix, value in table.dirty_records().items():
                writes[prefix + suffix] = value
        # the finished tier's census: a load counts it without a page read
        census = {table.name: table.census() for table in self._tiered}
        writes[CURSOR_KEY] = {"seq": seq, "finished": census}
        self._drained_seq = seq
        return writes

    def _apply(
        self,
        instances: list[dict[str, Any]],
        items: list[dict[str, Any]],
        seq: int,
    ) -> dict[str, Any]:
        """Apply one batch and return its write-set (recovery/rebuild)."""
        self._apply_memory(instances, items, seq)
        self.applied_seq = seq
        return self._write_set(seq)

    def confirm(self) -> None:
        """The drain's transaction committed: the persisted image is
        current through the drained seq; drop the differential sets."""
        for table in self.projections:
            table.clear_dirty()
        self.persisted_seq = self._drained_seq
        self._unconfirmed = False
        self._set_lag_gauges(self._noted_seq - self.persisted_seq)

    def committed(self, seq: int) -> None:
        """The engine's commit (transaction + sync) succeeded at ``seq``.

        Confirms a drain that rode it.  Either way the image is current
        through ``seq``: touched ids were noted (and will materialize on
        read), and a commit with no view-relevant records changes
        nothing the tables track.  The persisted cursor may lag
        (deliberately — no gratuitous writes); recovery catches it up by
        tail replay.
        """
        if self._unconfirmed:
            self.confirm()
        if seq > self.applied_seq:
            self.applied_seq = seq

    # -- rebuild ----------------------------------------------------------------

    def rebuild(
        self,
        instances: list[dict[str, Any]],
        items: list[dict[str, Any]],
        seq: int,
    ) -> dict[str, Any]:
        """Reset and replay full base state; return the full write-set."""
        for table in self.projections:
            table.reset()
        self.applied_seq = 0
        self._pending_instances.clear()
        self._pending_items.clear()
        return self._apply(instances, items, seq)

    # -- recovery ---------------------------------------------------------------

    def load(self, store: Any) -> tuple[int | None, list[str]]:
        """Read a store's ``view/`` image into the fresh tables as it
        stands, without catching it up.

        Returns the image cursor (``None`` when there is none) and every
        ``view/`` key; sets :attr:`stale` when the image is in a layout
        this build does not write (a table it does not know, such as the
        business-key records of older builds, a per-table
        ``view/<name>/__cursor``, or a finished entity kept per id).  Reads
        the cursor and the live records only: the tables read a page from
        ``store`` when a call first needs it.  The offline ``repro views``
        and ``cluster status`` commands read a closed store through this.
        """
        keys = store.keys(VIEW_PREFIX)
        stamp: dict[str, Any] | None = None
        stale = False
        for key in keys:
            if key == CURSOR_KEY:
                stamp = store.get(key)
                continue
            name, sep, suffix = key[len(VIEW_PREFIX):].partition("/")
            table = self._by_name.get(name)
            if table is None or not sep or suffix == "__cursor":
                stale = True
            else:
                table.load_record(suffix, store)
        census = (stamp or {}).get("finished", {})
        for table in self._tiered:
            table.finish_load(census.get(table.name))
        self.stale = stale or self.by_state.stale or self.worklist.stale
        return (None if stamp is None else int(stamp.get("seq", 0))), keys

    def recover(self, store: Any, dispatch_log: Any) -> dict[str, Any]:
        """Load, tail-replay, or rebuild the views from the store alone.

        Runs inside :meth:`ProcessEngine.recover` once the dispatch log is
        restored (``dispatch_log.seq`` is the target, its retained records
        the tail) and before any instance or work item is decoded.
        Persists whatever catch-up it performed (tail replay or rebuild)
        in one transaction + sync, so the next recovery takes the fast
        load path.  A stale image is rebuilt, its old keys deleted in
        the same transaction.
        """
        target = dispatch_log.seq
        self._pending_instances.clear()
        self._pending_items.clear()
        cursor, existing_keys = self.load(store)
        loaded = len(existing_keys)
        if not existing_keys and target == 0 and not store.keys(INSTANCE_PREFIX):
            # pristine store: nothing to load, nothing worth stamping
            self.recovered_mode = "load"
            return {"mode": "load", "records": 0, "replayed": 0}
        if cursor is not None and not self.stale and 0 <= cursor <= target:
            self._set_lag_gauges(0)
            if cursor == target:
                self.applied_seq = self.persisted_seq = target
                self.recovered_mode = "load"
                return {"mode": "load", "records": loaded, "replayed": 0}
            tail = [record for record in dispatch_log.records if record.get("seq", 0) > cursor]
            covered = (
                len(tail) == target - cursor
                and bool(tail)
                and tail[0].get("seq", 0) == cursor + 1
                and all(record.get("touched") is not None for record in tail)
            )
            if covered:
                self.applied_seq = cursor
                writes = self._replay_touched(store, tail, target)
                self._persist(store, writes, deletes=())
                self.recovered_mode = "tail"
                return {"mode": "tail", "records": loaded, "replayed": len(tail)}
        # no cursor, a cursor ahead of durable state, a stale layout, or
        # the log tail is unusable: rebuild everything from the
        # stored base records
        counts = self.rebuild_store(store, target, existing_keys)
        self._set_lag_gauges(0)
        self.recovered_mode = "rebuild"
        return {"mode": "rebuild", "records": counts["records"], "replayed": 0}

    def rebuild_store(
        self, store: Any, seq: int, existing: Iterable[str]
    ) -> dict[str, int]:
        """Rebuild the image from a store's base records at ``seq`` and
        persist it in one transaction, deleting each ``existing`` key it
        no longer writes; returns counts for reporting."""
        instances = [compact_instance(raw) for _, raw in store.scan(INSTANCE_PREFIX)]
        items = [compact_item(raw) for _, raw in store.scan(WORKITEM_PREFIX)]
        writes = self.rebuild(instances, items, seq)
        stale = [key for key in existing if key not in writes]
        self._persist(store, writes, stale)
        return {
            "instances": len(instances),
            "work_items": len(items),
            "records": len(writes),
            "deleted": len(stale),
            "seq": seq,
        }

    def _replay_touched(
        self, store: Any, tail: list[dict[str, Any]], target: int
    ) -> dict[str, Any]:
        """Re-apply the entities the log tail touched, from their stored
        records.

        Applies are idempotent transitions against the loaded image, so
        entities that were already current converge to themselves.
        """
        def stored(kind: str, prefix: str, compact: Any) -> list[dict[str, Any]]:
            ids = sorted({i for record in tail for i in record["touched"].get(kind, ())})
            raws = (store.get(prefix + entity_id) for entity_id in ids)
            return [compact(raw) for raw in raws if raw is not None]

        instances = stored("instances", INSTANCE_PREFIX, compact_instance)
        items = stored("items", WORKITEM_PREFIX, compact_item)
        return self._apply(instances, items, target)

    def _persist(
        self, store: Any, writes: dict[str, Any], deletes: Iterable[str]
    ) -> None:
        with store.transaction():
            for key in deletes:
                store.delete(key)
            for key in sorted(writes):
                if writes[key] is None:
                    store.delete(key)
                else:
                    store.put(key, writes[key])
        store.sync()
        self.confirm()

    def _set_lag_gauges(self, value: int) -> None:
        # refreshed at drain/confirm boundaries and on status() reads —
        # never on the per-commit note path, which stays O(dirty ids)
        for gauge in self._g_lag:
            gauge.set(value)

    # -- queries ----------------------------------------------------------------
    #
    # every read materializes noted-but-unapplied entities and uncommitted
    # puts first, so the image served is exact for the engine's memory
    # even though maintenance is write-behind

    def instance_ids(
        self,
        state: str | None = None,
        definition: str | None = None,
        business_key: str | None = None,
    ) -> list[str]:
        """Instance ids in creation-rank order, narrowed by state,
        definition key and business key — all read off the compact
        records, so nothing is decoded to answer."""
        if business_key is not None:
            ids = self.ids_for_business_key(business_key)
        else:
            self._materialize()
            ids = self.by_state.ids(state)
            state = None  # the bucket is the filter
        if state is None and definition is None:
            return ids
        record = self.by_state.record
        return [
            instance_id
            for instance_id in ids
            if (state is None or record(instance_id)["state"] == state)
            and (definition is None or record(instance_id)["definition"] == definition)
        ]

    def ids_for_business_key(self, business_key: str) -> list[str]:
        self._materialize()
        return self.by_state.ids_for_key(business_key)

    def instance_counts(self) -> dict[str, int]:
        """Instances per state, states with none left out."""
        self._materialize()
        counts = self.by_state.state_counts
        return {
            state: counts[state] for state in INSTANCE_STATES if counts.get(state)
        }

    def work_item_ids(self, state: str | None = None) -> list[str]:
        self._materialize()
        return self.worklist.ids(state)

    def open_work_items(self) -> int:
        self._materialize()
        return self.worklist.open_total

    def open_by_role(self) -> dict[str, int]:
        self._materialize()
        return {
            role: count
            for role, count in sorted(self.worklist.role_open.items())
            if count > 0
        }

    def definition_stats(self) -> dict[str, dict[str, Any]]:
        self._materialize()
        return self.def_stats.report()

    def status(self) -> dict[str, Any]:
        """Table bookkeeping for ``repro views status``."""
        self._materialize()
        self._set_lag_gauges(self._noted_seq - self.persisted_seq)
        return {
            "applied_seq": self.applied_seq,
            "persisted_seq": self.persisted_seq,
            "recovered_mode": self.recovered_mode,
            "projections": {
                table.name: table.record_count() for table in self.projections
            },
        }
