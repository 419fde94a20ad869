"""The three read-model tables (the CQRS read side).

The engine's write side is already event-sourced: every mutation is a
typed command appended to the persisted dispatch log (``dispatch/<seq>``)
and committed as a differential write-set in one group commit.  This
module holds the read side's three fixed tables — :class:`InstancesByState`,
:class:`DefinitionStats` and :class:`WorklistQueues` — each persisting
records under ``view/<name>/<key>``; the manager keeps the one
``view/__cursor`` of the whole image.

Each table applies *batches of transitions*: ``apply_instances`` /
``apply_items`` receive ``(old, new)`` compact-record pairs, where
``old`` is the record the image last applied (``None`` on first sight)
and ``new`` is the entity's current compact form.  Per-entity records
are pure functions of ``new``; aggregates (counters, queue depths,
cycle-time summaries) adjust by diffing ``old`` against ``new``.  Both
properties together make a table *rebuildable*: feeding the final base
records through the same code path as ``(None, record)`` transitions
reproduces the incrementally-maintained image byte for byte — the
invariant the replay property test pins.

Determinism rules the tables follow so that incremental maintenance,
tail replay, and full rebuild converge on identical persisted bytes:

* batches are applied in ``(rank, id)`` order (``creation_rank``);
* ordered containers insert by ``(rank, id)``, never by arrival time;
* persisted records are built with a fixed key order, aggregate maps
  with sorted or fixed-enumeration keys.

**The finished tier.**  A finished instance or work item never changes
again: migration refuses finished instances, a terminal work item has
no transition out, and compensation keeps ``state`` and ``ended_at``.
:class:`InstancesByState` and :class:`WorklistQueues` therefore keep one
record per *live* entity (``view/<name>/<id>``) and move an entity that
reaches a terminal state into page ``rank // PAGE`` of a columnar
finished tier, persisted whole as ``view/<name>/__p<k>`` by the next
drain.  A page keeps its members in ``(rank, id)`` order, so its content
is a function of their final records alone, and the manager drops a
re-put of a paged entity before any table sees it.

Suffixes beginning with ``__`` (``__p<k>``) are reserved for table
bookkeeping.
"""

from __future__ import annotations

import heapq
from array import array
from bisect import bisect_left, bisect_right, insort
from typing import Any, Callable, Iterable, Iterator, Sequence, TypeVar

from repro.analytics.kpis import CycleTimeAggregate

T = TypeVar("T")

#: finished entities per page of the finished tier: page k holds ranks
#: k * PAGE to (k + 1) * PAGE - 1
PAGE = 64
#: reserved record suffix of finished-tier page k (``__p<k>``)
PAGE_SUFFIX = "__p"

#: instance states in persisted-record enumeration order
INSTANCE_STATES = ("running", "suspended", "completed", "failed", "terminated")
TERMINAL_INSTANCE_STATES = frozenset(("completed", "failed", "terminated"))

#: work-item states in persisted-record enumeration order
ITEM_STATES = (
    "created", "offered", "allocated", "started", "completed", "cancelled",
)
TERMINAL_ITEM_STATES = frozenset(("completed", "cancelled"))


def creation_rank(entity_id: str) -> int:
    """Creation order of an entity (generated ids end in the sequence)."""
    # slice after rfind, not rsplit: no list allocation on a call that
    # runs twice per materialized entity (rfind < 0 slices from 0 — the
    # whole id — matching rsplit's no-separator behaviour)
    tail = entity_id[entity_id.rfind("-") + 1:]
    return int(tail) if tail.isdigit() else 0


#: memoized ``definition_id -> definition key`` (id minus the ``:version``
#: suffix) — one entry per deployed definition version, split once instead
#: of once per materialized instance record on the flush hot path
_DEFINITION_KEYS: dict[str, str] = {}


def _definition_key(definition_id: str) -> str:
    key = _DEFINITION_KEYS.get(definition_id)
    if key is None:
        key = _DEFINITION_KEYS[definition_id] = definition_id.rsplit(":", 1)[0]
    return key


#: memoized ``enum member -> .value`` — ``.value`` is a
#: ``DynamicClassAttribute`` descriptor call, and the flush hot path
#: reads it twice per completed work item; a dict hit is ~3x cheaper.
#: Keyed by member identity, so the map stays one-entry-per-state small.
_ENUM_VALUES: dict[Any, str] = {}


def _enum_value(member: Any) -> str:
    value = _ENUM_VALUES.get(member)
    if value is None:
        value = _ENUM_VALUES[member] = member.value
    return value


def merge_ranked(
    per_source: Iterable[Sequence[T]], rank_of: Callable[[T], int]
) -> list[T]:
    """K-way merge of per-source lists already ordered by rank.

    Returns one flat list ordered by ``(rank, source_index)`` — the
    cluster's canonical cross-shard creation order (ranks are per-shard
    sequences: exact within a shard, interleaved across shards).  Each
    source must be rank-nondecreasing; the merge is then O(T log k)
    instead of the collect-then-sort O(T log T).
    """
    keyed = (
        [(rank_of(entry), index, position, entry)
         for position, entry in enumerate(source)]
        for index, source in enumerate(per_source)
    )
    return [entry for _, _, _, entry in heapq.merge(*keyed)]


# -- compact records ----------------------------------------------------------
#
# The two constructors per entity kind (live object / persisted raw dict)
# MUST produce identical dicts — rebuild reads raw records from the
# store, incremental maintenance reads live objects, and the byte-
# identity invariant compares their persisted results.


def compact_instance(raw: dict[str, Any]) -> dict[str, Any]:
    """Compact view record from a persisted ``instance/<id>`` dict."""
    return {
        "id": raw["id"],
        "rank": creation_rank(raw["id"]),
        "state": raw["state"],
        "definition": _definition_key(raw["definition_id"]),
        "business_key": raw["business_key"],
        "created_at": raw["created_at"],
        "ended_at": raw["ended_at"],
    }


def compact_instance_obj(instance: Any) -> dict[str, Any]:
    """Compact view record from a live ``ProcessInstance``."""
    # rank is a pure function of the immutable id — stash it on the live
    # object so an entity recompacted every drain window parses it once
    try:
        rank = instance._view_rank
    except AttributeError:
        rank = instance._view_rank = creation_rank(instance.id)
    return {
        "id": instance.id,
        "rank": rank,
        "state": _enum_value(instance.state),
        "definition": _definition_key(instance.definition_id),
        "business_key": instance.business_key,
        "created_at": instance.created_at,
        "ended_at": instance.ended_at,
    }


def compact_item(raw: dict[str, Any]) -> dict[str, Any]:
    """Compact view record from a persisted ``workitem/<id>`` dict."""
    return {
        "id": raw["id"],
        "rank": creation_rank(raw["id"]),
        "instance_id": raw["instance_id"],
        "node_id": raw["node_id"],
        "role": raw["role"],
        "priority": raw["priority"],
        "state": raw["state"],
        "created_at": raw["created_at"],
        "allocated_to": raw["allocated_to"],
    }


def compact_item_obj(item: Any) -> dict[str, Any]:
    """Compact view record from a live ``WorkItem``."""
    try:
        rank = item._view_rank
    except AttributeError:
        rank = item._view_rank = creation_rank(item.id)
    return {
        "id": item.id,
        "rank": rank,
        "instance_id": item.instance_id,
        "node_id": item.node_id,
        "role": item.role,
        "priority": item.priority,
        "state": _enum_value(item.state),
        "created_at": item.created_at,
        "allocated_to": item.allocated_to,
    }


# -- the tables ----------------------------------------------------------------
#
# Each table has the same persistence surface, which the manager calls
# directly: ``dirty_records()`` materializes the records changed since the
# last ``clear_dirty()`` — values are built at call time, so a retried
# flush after a failed transaction re-emits the *current* (converged)
# image; a value of ``None`` deletes the record — and recovery feeds
# ``load_record(suffix, value)`` per stored record, then ``finish_load()``.


def _column(field: str, values: Iterable[Any] = ()) -> Any:
    """A page column: ranks as ``array('q')``, state codes as a
    ``bytearray``, any other field as a list."""
    if field == "rank":
        return array("q", values)
    if field == "state":
        return bytearray(values)
    return list(values)


class _Page:
    """One rank page of finished records, a column per compact field.

    Members stay in ``(rank, id)`` order whatever order they were sealed
    in; the ``state`` column holds codes into the owner's ``states``.
    """

    __slots__ = ("columns",)

    def __init__(self, fields: Sequence[str], raw: dict[str, Any] | None = None):
        self.columns = {
            field: _column(field, () if raw is None else raw[field])
            for field in fields
        }

    def find(self, rank: int, entity_id: str) -> int:
        """Position of ``entity_id`` (of ``rank``) in the page, or -1."""
        ranks, ids = self.columns["rank"], self.columns["id"]
        at = bisect_left(ranks, rank)
        while at < len(ranks) and ranks[at] == rank:
            if ids[at] == entity_id:
                return at
            at += 1
        return -1

    def insert(self, record: dict[str, Any], code: int) -> None:
        ranks, ids = self.columns["rank"], self.columns["id"]
        rank, entity_id = record["rank"], record["id"]
        at = bisect_right(ranks, rank)
        while at and ranks[at - 1] == rank and ids[at - 1] > entity_id:
            at -= 1
        for field, column in self.columns.items():
            column.insert(at, code if field == "state" else record[field])

    def record(self, at: int, states: Sequence[str]) -> dict[str, Any]:
        return {
            field: states[column[at]] if field == "state" else column[at]
            for field, column in self.columns.items()
        }

    def to_dict(self) -> dict[str, list[Any]]:
        return {field: list(column) for field, column in self.columns.items()}


class _Tiered:
    """Live entities one record each, finished ones in rank pages.

    Subclasses name the entity's ``states`` (the page codes), the
    ``terminal`` ones it never leaves, and the compact-record ``fields``.
    A live record persists as ``<id>``; the drain that pages an entity
    deletes it, unless no drain ever wrote it.  Nothing on the apply path
    is O(entities): paging an entity pops it from two dicts and inserts
    it into one page of at most ``PAGE`` ranks.
    """

    states: tuple[str, ...] = ()
    terminal: frozenset[str] = frozenset()
    fields: tuple[str, ...] = ()

    def __init__(self) -> None:
        self._codes = {state: code for code, state in enumerate(self.states)}
        self.reset()

    def reset(self) -> None:
        #: live entities: id -> compact record, and state -> {id: rank}
        self.records: dict[str, dict[str, Any]] = {}
        self.buckets: dict[str, dict[str, int]] = {}
        #: the finished tier: page number -> columns
        self.pages: dict[int, _Page] = {}
        #: entities per state, both tiers
        self.state_counts: dict[str, int] = {}
        #: the loaded records are in a layout this build does not write;
        #: recovery rebuilds such an image
        self.stale = False
        self._dirty_keys: set[str] = set()
        self._dirty_pages: set[int] = set()
        # paged ids whose live record a drain wrote (the next drain
        # deletes it), and live ids no drain has written yet
        self._gone: set[str] = set()
        self._unwritten: set[str] = set()

    def _apply(self, pairs: Sequence[tuple[dict | None, dict]]) -> None:
        records = self.records
        buckets = self.buckets
        counts = self.state_counts
        terminal = self.terminal
        dirty = self._dirty_keys
        unwritten = self._unwritten
        for old, new in pairs:
            entity_id = new["id"]
            state = new["state"]
            if old is not None:
                old_state = old["state"]
                if old_state == state:
                    records[entity_id] = new
                    dirty.add(entity_id)
                    continue
                buckets.get(old_state, {}).pop(entity_id, None)
                counts[old_state] = counts.get(old_state, 1) - 1
            counts[state] = counts.get(state, 0) + 1
            if state in terminal:
                if old is not None:
                    records.pop(entity_id, None)
                    dirty.discard(entity_id)
                    if entity_id in unwritten:
                        unwritten.discard(entity_id)
                    else:
                        self._gone.add(entity_id)
                self._seal(new)
                continue
            bucket = buckets.get(state)
            if bucket is None:
                bucket = buckets[state] = {}
            bucket[entity_id] = new["rank"]
            records[entity_id] = new
            dirty.add(entity_id)
            if old is None:
                unwritten.add(entity_id)

    def _seal(self, record: dict[str, Any]) -> None:
        number = record["rank"] // PAGE
        page = self.pages.get(number)
        if page is None:
            page = self.pages[number] = _Page(self.fields)
        page.insert(record, self._codes[record["state"]])
        self._dirty_pages.add(number)

    def paged(self, record: dict[str, Any]) -> bool:
        """Whether the entity of ``record`` is final (in a page)."""
        page = self.pages.get(record["rank"] // PAGE)
        return page is not None and page.find(record["rank"], record["id"]) >= 0

    def transitions(
        self, records: Iterable[dict[str, Any]]
    ) -> list[tuple[dict | None, dict]]:
        """``(previous, current)`` pairs for a batch of current records.

        A paged entity is final, so its re-put (a compensated finished
        instance) is dropped here, before any table sees it.
        """
        live = self.records.get
        pairs = []
        for record in records:
            old = live(record["id"])
            if old is not None or not self.paged(record):
                pairs.append((old, record))
        return pairs

    def dirty_records(self) -> dict[str, Any]:
        out: dict[str, Any] = {key: self.records[key] for key in self._dirty_keys}
        self._unwritten.difference_update(self._dirty_keys)
        out.update(dict.fromkeys(self._gone))
        for number in self._dirty_pages:
            out[f"{PAGE_SUFFIX}{number}"] = self.pages[number].to_dict()
        return out

    def clear_dirty(self) -> None:
        self._dirty_keys.clear()
        self._gone.clear()
        self._dirty_pages.clear()

    def load_record(self, suffix: str, value: Any) -> None:
        if suffix.startswith(PAGE_SUFFIX) and suffix[len(PAGE_SUFFIX):].isdigit():
            self.pages[int(suffix[len(PAGE_SUFFIX):])] = _Page(self.fields, value)
            return
        state = value.get("state")
        if state in self._codes and state not in self.terminal:
            self.records[suffix] = value
            return
        # an older layout kept finished entities per id, and a record
        # without a state is none of ours: recovery rebuilds either image
        self.stale = True
        if state in self.terminal:
            self._seal(value)

    def finish_load(self) -> None:
        buckets: dict[str, dict[str, int]] = {}
        counts: dict[str, int] = {}
        for entity_id, record in self.records.items():
            state = record["state"]
            buckets.setdefault(state, {})[entity_id] = record["rank"]
            counts[state] = counts.get(state, 0) + 1
        for page in self.pages.values():
            codes = page.columns["state"]
            for state in self.terminal:
                counts[state] = counts.get(state, 0) + codes.count(self._codes[state])
        self.buckets = buckets
        self.state_counts = counts

    def record_count(self) -> int:
        return sum(self.state_counts.values())

    # -- queries
    def ids(self, state: str | None = None) -> list[str]:
        """Ids in ``(rank, id)`` order, all or of one state."""
        live = sorted(
            (rank, entity_id)
            for name, bucket in self.buckets.items()
            if state in (None, name)
            for entity_id, rank in bucket.items()
        )
        paged = (
            self._paged(self._codes.get(state))
            if state is None or state in self.terminal
            else ()
        )
        return [entity_id for _, entity_id in heapq.merge(paged, live)]

    def _paged(self, code: int | None) -> Iterator[tuple[int, str]]:
        for number in sorted(self.pages):
            columns = self.pages[number].columns
            for rank, entity_id, member in zip(
                columns["rank"], columns["id"], columns["state"]
            ):
                if code is None or member == code:
                    yield rank, entity_id

    def live_ids(self) -> list[str]:
        """Live entity ids in ``(rank, id)`` order."""
        records = self.records
        return sorted(records, key=lambda entity_id: (records[entity_id]["rank"], entity_id))

    def record(self, entity_id: str) -> dict[str, Any] | None:
        """The compact record of a live or finished entity."""
        record = self.records.get(entity_id)
        if record is None:
            rank = creation_rank(entity_id)
            page = self.pages.get(rank // PAGE)
            at = -1 if page is None else page.find(rank, entity_id)
            if at >= 0:
                record = page.record(at, self.states)
        return record

    def top_rank(self) -> int:
        """The highest creation rank indexed (0 when empty)."""
        top = max((record["rank"] for record in self.records.values()), default=0)
        if self.pages:
            top = max(top, self.pages[max(self.pages)].columns["rank"][-1])
        return top


class InstancesByState(_Tiered):
    """The instance table: live instances by state, finished ones paged.

    Persists one compact record per live instance
    (``view/by_state/<id>``) and the finished tier's pages
    (``view/by_state/__p<k>``).  The business-key index (key -> ids in
    creation order) is derived, never persisted: maintained on apply and
    rebuilt by :meth:`finish_load` from the live records and the page
    columns.
    """

    name = "by_state"
    states = INSTANCE_STATES
    terminal = TERMINAL_INSTANCE_STATES
    fields = (
        "id", "rank", "state", "definition", "business_key", "created_at",
        "ended_at",
    )

    def reset(self) -> None:
        super().reset()
        self.keys: dict[str, list[str]] = {}

    def apply_instances(
        self, pairs: Sequence[tuple[dict | None, dict]]
    ) -> None:
        if not pairs:
            return
        self._apply(pairs)
        keys = self.keys
        for old, new in pairs:
            # keys are assigned at start and never change
            if old is None and new["business_key"] is not None:
                insort(
                    keys.setdefault(new["business_key"], []),
                    new["id"],
                    key=creation_rank,
                )

    def finish_load(self) -> None:
        super().finish_load()
        keys: dict[str, list[str]] = {}
        for number in sorted(self.pages):
            columns = self.pages[number].columns
            for entity_id, key in zip(columns["id"], columns["business_key"]):
                if key is not None:
                    keys.setdefault(key, []).append(entity_id)
        for entity_id in self.live_ids():
            key = self.records[entity_id]["business_key"]
            if key is not None:
                insort(keys.setdefault(key, []), entity_id, key=creation_rank)
        self.keys = keys

    def ids_for_key(self, business_key: str) -> list[str]:
        return list(self.keys.get(business_key, ()))


class DefinitionStats:
    """Per-definition analytics (``view/def_stats/<key>``).

    Tracks total instances started, a per-state census maintained by
    +1/-1 state-transition diffs (always consistent with a final-state
    rebuild), and a :class:`CycleTimeAggregate` over completed
    instances' ``ended_at - created_at``.
    """

    name = "def_stats"

    def __init__(self) -> None:
        self.stats: dict[str, dict[str, Any]] = {}
        self._dirty_keys: set[str] = set()

    def _slot(self, definition: str) -> dict[str, Any]:
        slot = self.stats.get(definition)
        if slot is None:
            slot = self.stats[definition] = {
                "total": 0,
                "states": {state: 0 for state in INSTANCE_STATES},
                "cycle": CycleTimeAggregate(),
            }
        return slot

    def apply_instances(
        self, pairs: Sequence[tuple[dict | None, dict]]
    ) -> None:
        slot_of = self._slot
        observe_cycle = self._observe_cycle
        dirty = self._dirty_keys
        for old, new in pairs:
            definition = new["definition"]
            state = new["state"]
            if old is None:
                slot = slot_of(definition)
                slot["total"] += 1
                states = slot["states"]
                states[state] = states.get(state, 0) + 1
                if state == "completed":
                    observe_cycle(slot, new)
                dirty.add(definition)
                continue
            old_definition = old["definition"]
            old_state = old["state"]
            if old_definition == definition and old_state == state:
                continue  # record-only change (variables, tokens): no stat moves
            if old_definition != definition:
                old_slot = slot_of(old_definition)
                old_slot["total"] -= 1
                old_states = old_slot["states"]
                old_states[old_state] = old_states.get(old_state, 1) - 1
                slot = slot_of(definition)
                slot["total"] += 1
                states = slot["states"]
                states[state] = states.get(state, 0) + 1
                dirty.add(old_definition)
            else:
                slot = slot_of(definition)
                states = slot["states"]
                states[old_state] = states.get(old_state, 1) - 1
                states[state] = states.get(state, 0) + 1
            if state == "completed" and old_state != "completed":
                observe_cycle(slot, new)
            dirty.add(definition)

    @staticmethod
    def _observe_cycle(slot: dict[str, Any], record: dict[str, Any]) -> None:
        if record["ended_at"] is not None:
            slot["cycle"].observe(record["ended_at"] - record["created_at"])

    def dirty_records(self) -> dict[str, Any]:
        return {key: self._record(key) for key in self._dirty_keys}

    def clear_dirty(self) -> None:
        self._dirty_keys.clear()

    def _record(self, definition: str) -> dict[str, Any]:
        slot = self._slot(definition)
        return {
            "total": slot["total"],
            "states": {
                state: slot["states"].get(state, 0) for state in INSTANCE_STATES
            },
            "cycle": slot["cycle"].to_dict(),
        }

    def load_record(self, suffix: str, value: Any) -> None:
        self.stats[suffix] = {
            "total": int(value.get("total", 0)),
            "states": {
                state: int(value.get("states", {}).get(state, 0))
                for state in INSTANCE_STATES
            },
            "cycle": CycleTimeAggregate.from_dict(value.get("cycle") or {}),
        }

    def reset(self) -> None:
        self.stats.clear()
        self._dirty_keys.clear()

    def record_count(self) -> int:
        return len(self.stats)

    # -- queries
    def report(self) -> dict[str, dict[str, Any]]:
        """All per-definition records, definition-sorted."""
        return {key: self._record(key) for key in sorted(self.stats)}


class WorklistQueues(_Tiered):
    """The worklist queue view: live items and finished pages.

    Persists one compact record per open work item
    (``view/worklist/<id>``) and the finished tier's pages
    (``view/worklist/__p<k>``).  The queue aggregates — total open items,
    open count per role, and the per-state census — live in memory only:
    loading derives them from the live records and the page codes.
    """

    name = "worklist"
    states = ITEM_STATES
    terminal = TERMINAL_ITEM_STATES
    fields = (
        "id", "rank", "instance_id", "node_id", "role", "priority", "state",
        "created_at", "allocated_to",
    )

    def reset(self) -> None:
        super().reset()
        self.role_open: dict[str, int] = {}
        self.open_total = 0

    def apply_items(self, pairs: Sequence[tuple[dict | None, dict]]) -> None:
        if not pairs:
            return
        self._apply(pairs)
        role_open = self.role_open
        open_total = self.open_total
        for old, new in pairs:
            was_open = old is not None and old["state"] not in TERMINAL_ITEM_STATES
            is_open = new["state"] not in TERMINAL_ITEM_STATES
            if is_open and not was_open:
                open_total += 1
                role_open[new["role"]] = role_open.get(new["role"], 0) + 1
            elif was_open and not is_open:
                open_total -= 1
                role_open[old["role"]] = role_open.get(old["role"], 1) - 1
        self.open_total = open_total

    def load_record(self, suffix: str, value: Any) -> None:
        # stores written by older versions hold a ``__queues`` aggregate;
        # finish_load derives it instead
        if suffix != "__queues":
            super().load_record(suffix, value)

    def finish_load(self) -> None:
        super().finish_load()
        self.open_total = len(self.records)
        self.role_open = {}
        for record in self.records.values():
            self.role_open[record["role"]] = self.role_open.get(record["role"], 0) + 1
