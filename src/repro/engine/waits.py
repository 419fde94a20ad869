"""Message waits: one shard's open subscriptions, indexed and persisted
one record each.

A :class:`MessageWait` is an execution-time entity with its own life
cycle — created when a token parks on a receive task, a message catch
event or an event-based gateway, gone when a message wakes the token or
the token is cancelled.  :class:`MessageWaits` is the engine component
that owns them, beside the dispatch log, the outbox and the invocation
ledger: each wait is written as ``wait/<zero-padded seq>`` through the
shared :class:`~repro.storage.writeset.WriteSet` (put on subscribe,
delete on removal, nothing at all when both fall in one commit), so a
commit costs what changed, not every subscription the shard holds.

``seq`` is the per-shard creation sequence.  Delivery is
first-subscribed-first-served, and because the key is zero-padded a store
scan returns waits in that same order after a restart.  Nothing outside
the engine names a wait, so the counter is not in ``engine/meta``: it
lives in the records and :meth:`MessageWaits.load` raises it to the
highest one still live.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable, Iterator

from repro.storage.kvstore import KeyValueStore
from repro.storage.serializers import from_record, to_record
from repro.storage.writeset import WriteSet

#: store-key family of open subscriptions (``wait/<zero-padded seq>``)
WAIT_PREFIX = "wait/"

_seq_of = attrgetter("seq")


def _record_id(seq: int) -> str:
    return f"{seq:010d}"


@dataclass(slots=True, eq=False)
class MessageWait:
    """One token's subscription to a named message, store-serializable."""

    seq: int
    instance_id: str
    token_id: str
    name: str
    correlation: Any = None
    #: subscribed without a correlation expression: any message of the
    #: name matches
    match_any: bool = False
    #: the receive task / catch event the token is parked on (plain wait)
    node_id: str | None = None
    is_activity: bool = True
    #: event-based gateway race: the gateway the token is parked on and
    #: the catch event this subscription stands for
    race_gateway: str | None = None
    race_event: str | None = None

    def to_dict(self) -> dict[str, Any]:
        return to_record(self)

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "MessageWait":
        return from_record(cls, raw)


class _NameIndex:
    """The waits on one message name, in groups ordered by ``seq``."""

    __slots__ = ("exact", "scanned", "any")

    def __init__(self) -> None:
        #: hashable correlation -> its waits (``1``, ``1.0`` and ``True``
        #: share a group, exactly as they compare equal)
        self.exact: dict[Any, list[MessageWait]] = {}
        #: waits whose correlation is unhashable (lists, dicts), by seq:
        #: matched by ``==`` one by one
        self.scanned: dict[int, MessageWait] = {}
        #: ``match_any`` waits, by seq
        self.any: dict[int, MessageWait] = {}

    def add(self, wait: MessageWait) -> None:
        if wait.match_any:
            self.any[wait.seq] = wait
            return
        try:
            self.exact.setdefault(wait.correlation, []).append(wait)
        except TypeError:
            self.scanned[wait.seq] = wait

    def remove(self, wait: MessageWait) -> bool:
        """Take ``wait`` out; ``True`` when the name has no waits left."""
        if wait.match_any:
            del self.any[wait.seq]
        else:
            try:
                group = self.exact[wait.correlation]
            except TypeError:
                del self.scanned[wait.seq]
            else:
                group.remove(wait)
                if not group:
                    del self.exact[wait.correlation]
        return not (self.exact or self.scanned or self.any)

    def matching(self, correlation: Any) -> list[MessageWait]:
        try:
            found = list(self.exact.get(correlation, ()))
        except TypeError:
            # an unhashable value can still equal a hashable key
            # (``{1} == frozenset({1})``): compare against every key
            found = [
                wait
                for key, group in self.exact.items()
                if key == correlation
                for wait in group
            ]
        if self.scanned:
            found += [w for w in self.scanned.values() if w.correlation == correlation]
        found += self.any.values()
        if len(found) > 1:
            found.sort(key=_seq_of)
        return found


class MessageWaits:
    """One shard's open message subscriptions.

    Indexed by message name and correlation (for delivery and the
    cluster's probe) and by owning instance (for cancellation, redelivery
    after resume and migration; one token's waits are picked out of its
    instance's few), so each of those costs what it matches rather than
    a walk over every wait of the shard.
    """

    def __init__(self, writes: WriteSet) -> None:
        self._writes = writes
        self._seq = 0
        self._waits: dict[int, MessageWait] = {}
        self._by_name: dict[str, _NameIndex] = {}
        #: instance id -> its waits, oldest first
        self._by_instance: dict[str, list[MessageWait]] = {}
        #: waits re-put by remap_nodes() although already in the store
        self._rewritten: set[int] = set()

    def __len__(self) -> int:
        return len(self._waits)

    def __iter__(self) -> Iterator[MessageWait]:
        """Every open wait, oldest first."""
        return iter(list(self._waits.values()))

    def subscribe(
        self,
        instance_id: str,
        token_id: str,
        name: str,
        correlation: Any,
        match_any: bool,
        **target: Any,
    ) -> MessageWait:
        """Open a subscription; ``target`` names what a delivery wakes
        (``node_id``/``is_activity``, or ``race_gateway``/``race_event``)."""
        self._seq += 1
        wait = MessageWait(
            self._seq, instance_id, token_id, name, correlation, match_any, **target
        )
        self._index(wait)
        self._writes.put(WAIT_PREFIX, _record_id(wait.seq), wait.to_dict)
        return wait

    def _index(self, wait: MessageWait) -> None:
        self._waits[wait.seq] = wait
        index = self._by_name.get(wait.name)
        if index is None:
            index = self._by_name[wait.name] = _NameIndex()
        index.add(wait)
        self._by_instance.setdefault(wait.instance_id, []).append(wait)

    def remove(self, wait: MessageWait) -> None:
        """Close a subscription (consumed or cancelled)."""
        del self._waits[wait.seq]
        if self._by_name[wait.name].remove(wait):
            del self._by_name[wait.name]
        owned = self._by_instance[wait.instance_id]
        owned.remove(wait)
        if not owned:
            del self._by_instance[wait.instance_id]
        record_id = _record_id(wait.seq)
        # a wait opened since the last commit never reached the store and
        # costs no store operation — unless remap_nodes() re-put a stored
        # one, whose pending put looks the same
        rewritten = wait.seq in self._rewritten
        self._rewritten.discard(wait.seq)
        if rewritten or not self._writes.discard(WAIT_PREFIX, record_id):
            self._writes.delete(WAIT_PREFIX, record_id)

    def matching(self, name: str, correlation: Any) -> list[MessageWait]:
        """The waits a message ``(name, correlation)`` satisfies, oldest
        first: equal correlation, or subscribed ``match_any``."""
        index = self._by_name.get(name)
        return index.matching(correlation) if index is not None else []

    def of_token(self, instance_id: str, token_id: str) -> list[MessageWait]:
        """One token's waits, oldest first."""
        owned = self._by_instance.get(instance_id, ())
        return [wait for wait in owned if wait.token_id == token_id]

    def of_instance(self, instance_id: str) -> list[MessageWait]:
        """One instance's waits, oldest first."""
        return list(self._by_instance.get(instance_id, ()))

    def drop_token(self, instance_id: str, token_id: str) -> None:
        """Unsubscribe every wait of one token."""
        for wait in self.of_token(instance_id, token_id):
            self.remove(wait)

    def remap_nodes(self, instance_id: str, target_node: Callable[[str], str]) -> None:
        """Migration: re-point an instance's waits at the target
        version's node ids."""
        for wait in self.of_instance(instance_id):
            before = (wait.node_id, wait.race_gateway, wait.race_event)
            after = tuple(n if n is None else target_node(n) for n in before)
            if after == before:
                continue
            wait.node_id, wait.race_gateway, wait.race_event = after
            record_id = _record_id(wait.seq)
            # a put still pending encodes at commit time and so already
            # carries the new ids; otherwise the record is in the store
            if record_id not in self._writes.puts(WAIT_PREFIX):
                self._rewritten.add(wait.seq)
                self._writes.put(WAIT_PREFIX, record_id, wait.to_dict)

    def load(self, store: KeyValueStore) -> int:
        """Restore the ``wait/`` records of a store (replacing whatever
        is indexed); returns the number of open waits.  Zero-padded keys
        scan in creation order, so delivery order survives the restart."""
        self._waits.clear()
        self._by_name.clear()
        self._by_instance.clear()
        for _, raw in store.scan(WAIT_PREFIX):
            wait = MessageWait.from_dict(raw)
            self._index(wait)
            self._seq = max(self._seq, wait.seq)
        return len(self._waits)
