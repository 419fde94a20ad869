"""``ShardedEngine``: N independent engine shards behind one facade.

PR 4 made concurrent clients *safe* — one serialization gate — and its
F10 benchmark showed they were no *faster*: every command funnels through
a single lock.  This module partitions process instances across N
:class:`~repro.engine.engine.ProcessEngine` shards, each with its own
dispatch lock, store, journal, group-commit policy, and idempotency
window, the way Zeebe partitions and Camunda's sharded job executor
scale the same architecture.  Per-instance commands route determinis-
tically (see :mod:`repro.cluster.router`) and dispatch in parallel;
the GIL releases during store transactions, journal fsyncs, and service
invocations, so the parallelism is real wall-clock win on I/O-bound
workloads.

Cross-shard semantics:

* ``correlate_message`` — probe every shard (read-only, one lock at a
  time) and publish where a running wait would consume it (first match
  in shard order); else where a suspended subscriber sits; else on the
  message's deterministic *home shard*.  Undelivered messages land in a
  cluster-shared retained buffer, so a receiver activating later on any
  shard consumes them exactly as a single engine would.
* internal send tasks — a message published inside shard A that A's own
  engine does not consume is intercepted by the cluster's forwarder and
  recorded in A's *transactional outbox* (``outbox/<seq>``, same group
  commit as the originating dispatch); the drainer re-routes it *after*
  A's dispatch returns under the record's ``fwd:<origin>:<seq>`` dedup
  key and deletes the record only once the target shard's delivery has
  flushed.  No thread ever holds two shard locks, which keeps the
  fan-out deadlock-free, and a crash anywhere in the window re-delivers
  instead of losing — the target's idempotency window absorbs duplicates.
* ``advance_time`` — the shared clock advances exactly once, then
  ``RunDueJobs`` fans out to every shard and the counts merge.
* ``instances(state=)`` / ``find_instances`` / ``work_items`` — each
  shard's read models list its ids (see :mod:`repro.views.cluster`); a
  ``business_key`` filter narrows to the key's home shard because
  instances are co-located by business key at start.
* ``recover()`` — reattaches each shard's partition from its own store
  and rejects a store whose persisted topology (shard count/index) does
  not match the cluster, so a 4-shard store set cannot be silently
  reopened as 2 shards with half the instances unreachable.

One lock-ordering invariant keeps this deadlock-free: a thread holds at
most one shard's dispatch lock at any moment.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace
from typing import Any, Callable

from repro.clock import Clock, VirtualClock, WallClock
from repro.cluster.router import message_home_shard, parse_shard_tag, shard_of_key
from repro.engine import commands as cmds
from repro.engine.commands import Command, CommandClient
from repro.engine.engine import ProcessEngine
from repro.engine.errors import EngineError, InstanceNotFoundError
from repro.engine.instance import InstanceState, ProcessInstance
from repro.model.process import ProcessDefinition
from repro.obs import Observability
from repro.services.bus import Message, MessageBus
from repro.services.registry import ServiceRegistry
from repro.storage.kvstore import KeyValueStore, MemoryKV
from repro.views.cluster import ClusterViews
from repro.worklist.allocation import Allocator
from repro.worklist.items import WorkItem, WorkItemState
from repro.worklist.resources import OrganizationalModel

#: store key holding each shard's persisted topology record
TOPOLOGY_KEY = "cluster/meta"


class _ClusterBus(MessageBus):
    """A shard-local bus whose *retained* buffer is cluster-shared.

    Publish/subscribe stays shard-local (each shard's engine correlates
    its own instances), but an unconsumed message must be visible to a
    receiver activating later on *any* shard — exactly the single-engine
    retention contract.  The shared buffer has its own guard lock,
    acquired strictly *inside* a shard's serialization lock (innermost
    everywhere), so shards can touch it concurrently without an ABBA
    cycle.
    """

    def __init__(
        self,
        shared_retained: dict[str, list[Message]],
        guard: threading.Lock,
    ) -> None:
        super().__init__()
        self._retained = shared_retained
        self._retained_guard = guard

    def _retain(self, message: Message) -> None:
        # publish() already holds self._lock; the guard nests inside it
        with self._retained_guard:
            super()._retain(message)

    def consume_retained(
        self, name: str, correlation: Any = None, match_any: bool = False
    ) -> Message | None:
        with self._lock:  # same outermost lock as the base class
            with self._retained_guard:
                return super().consume_retained(name, correlation, match_any)

    def retained(self, name: str) -> list[Message]:
        with self._lock:
            with self._retained_guard:
                return super().retained(name)

    @property
    def retained_count(self) -> int:
        with self._lock:
            with self._retained_guard:
                return sum(len(queue) for queue in self._retained.values())


class ShardedEngine(CommandClient):
    """A cluster of independently locked engine shards, one facade.

    The public surface mirrors :class:`ProcessEngine` — clients swap a
    constructor call, not their code; the command-constructor methods are
    the shared :class:`~repro.engine.commands.CommandClient`.  ``store_factory(index)`` supplies
    one backing store per shard (separate stores, separate journals,
    separate group commits — the parallelism comes from here); omitted,
    every shard gets its own :class:`MemoryKV`.
    """

    def __init__(
        self,
        shards: int = 4,
        *,
        store_factory: Callable[[int], KeyValueStore] | None = None,
        clock: Clock | None = None,
        organization: OrganizationalModel | None = None,
        allocator: Allocator | None = None,
        services: ServiceRegistry | None = None,
        obs: Observability | None = None,
        commit_interval: int = 1,
        dispatch_log_retention: int = 256,
        verify_soundness: bool = False,
        strict_references: bool = False,
        max_steps: int = 100_000,
        workers: Any = None,
    ) -> None:
        if shards < 1:
            raise EngineError(f"cluster needs at least one shard, got {shards}")
        self.shard_count = shards
        self.clock = clock if clock is not None else WallClock()
        self.obs = obs if obs is not None else Observability()
        self.organization = (
            organization if organization is not None else OrganizationalModel()
        )
        self.services = services if services is not None else ServiceRegistry()
        # one cluster-wide retained-message buffer (see _ClusterBus)
        self._retained_messages: dict[str, list[Message]] = {}
        self._retained_guard = threading.Lock()
        self.shards: tuple[ProcessEngine, ...] = tuple(
            ProcessEngine(
                clock=self.clock,
                store=store_factory(i) if store_factory is not None else MemoryKV(),
                organization=self.organization,
                allocator=allocator,
                services=self.services,
                bus=_ClusterBus(self._retained_messages, self._retained_guard),
                obs=self.obs,
                verify_soundness=verify_soundness,
                strict_references=strict_references,
                max_steps=max_steps,
                commit_interval=commit_interval,
                dispatch_log_retention=dispatch_log_retention,
                shard_tag=f"s{i}",
            )
            for i in range(shards)
        )
        # the CQRS read side: cross-shard queries served from each
        # shard's materialized projections, pre-merged on creation rank —
        # flat in shard count at equal total size (see repro.views)
        self.views = ClusterViews(self)
        try:
            self._check_or_stamp_topology()
        except EngineError:
            for shard in self.shards:
                shard.store.close()
            raise
        # one worker pool shared by every shard: pool threads complete on
        # whichever shard enqueued, so competing consumers span partitions
        # while each completion still serializes under its own shard lock
        self.workers = workers
        if workers is not None:
            for shard in self.shards:
                shard.attach_workers(workers)
        # round-robin cursor for keyless StartInstance and the cluster
        # routing table for dedup keys whose first routing decision was
        # nondeterministic (round-robin starts, state-dependent message
        # probes) — a retry must land on the shard that recorded the key
        self._route_lock = threading.Lock()
        self._rr_cursor = 0
        self._dedup_route: dict[str, int] = {}
        # cross-shard message forwarding: messages a shard's own engine
        # did not consume are recorded in that shard's persisted outbox
        # (under its lock, same group commit) and drained after the
        # originating dispatch returns (no shard lock held).  The drain
        # lock serializes drainers without blocking them: a thread that
        # finds it taken leaves the records to the holder, who re-checks
        # after finishing so nothing is stranded.
        self._drain_lock = threading.Lock()
        self._local = threading.local()
        for index in range(shards):
            self.shards[index].bus.subscribe(self._make_forwarder(index))
        # per-shard instruments, through the shared registry
        registry = self.obs.registry
        self._c_dispatches = tuple(
            registry.counter(f"cluster.shard.dispatches.{i}") for i in range(shards)
        )
        self._g_queue_depth = tuple(
            registry.gauge(f"cluster.shard.queue_depth.{i}") for i in range(shards)
        )
        self._h_lock_wait = tuple(
            registry.histogram(f"cluster.shard.lock_wait_seconds.{i}")
            for i in range(shards)
        )
        self._c_forwards = registry.counter("cluster.message_forwards")
        self._c_forward_failures = registry.counter("cluster.forward_failures")

    # -- topology ---------------------------------------------------------------

    def _check_or_stamp_topology(self) -> None:
        """Stamp each shard store with the topology, or validate a match.

        The record pins both the cluster width and the store's own slot,
        so neither reopening 4 stores as a 2-shard cluster nor swapping
        two shard directories passes silently.
        """
        for index, shard in enumerate(self.shards):
            recorded = shard.store.get(TOPOLOGY_KEY, None)
            if recorded is None:
                shard.store.put(
                    TOPOLOGY_KEY, {"shards": self.shard_count, "shard": index}
                )
                shard.store.sync()
                continue
            self._validate_topology(recorded, index)

    def _validate_topology(self, recorded: dict[str, Any], index: int) -> None:
        if recorded.get("shards") != self.shard_count:
            raise EngineError(
                f"shard {index} store was written by a "
                f"{recorded.get('shards')}-shard cluster; this cluster has "
                f"{self.shard_count} — refusing mismatched topology"
            )
        if recorded.get("shard") != index:
            raise EngineError(
                f"store attached as shard {index} is shard "
                f"{recorded.get('shard')}'s partition — refusing swapped stores"
            )

    # -- routing ----------------------------------------------------------------

    def _shard_for_instance(self, instance_id: str) -> int:
        tagged = parse_shard_tag(instance_id)
        if tagged is not None:
            if tagged >= self.shard_count:
                raise InstanceNotFoundError(
                    f"instance {instance_id!r} belongs to shard {tagged}, "
                    f"outside this {self.shard_count}-shard cluster"
                )
            return tagged
        return shard_of_key(instance_id, self.shard_count)

    def _shard_for_item(self, item_id: str) -> int:
        tagged = parse_shard_tag(item_id)
        if tagged is not None and tagged < self.shard_count:
            return tagged
        return shard_of_key(item_id, self.shard_count)

    def _route_start(self, cmd: cmds.StartInstance) -> int:
        """Business keys co-locate (stable hash); keyless starts spread
        round-robin; a dedup-keyed retry repeats its recorded route."""
        with self._route_lock:
            if cmd.dedup_key is not None:
                known = self._dedup_route.get(cmd.dedup_key)
                if known is not None:
                    return known
            if cmd.business_key is not None:
                index = shard_of_key(cmd.business_key, self.shard_count)
            else:
                index = self._rr_cursor
                self._rr_cursor = (self._rr_cursor + 1) % self.shard_count
            if cmd.dedup_key is not None:
                self._dedup_route[cmd.dedup_key] = index
            return index

    # -- the dispatch path ------------------------------------------------------

    def dispatch(self, command: Command) -> Any:
        """Route a typed command to its shard (or fan it out) and run it."""
        if isinstance(command, cmds.StartInstance):
            return self._dispatch_on(self._route_start(command), command)
        if isinstance(
            command,
            (
                cmds.TerminateInstance,
                cmds.CompensateInstance,
                cmds.SuspendInstance,
                cmds.ResumeInstance,
                cmds.MigrateInstance,
            ),
        ):
            return self._dispatch_on(
                self._shard_for_instance(command.instance_id), command
            )
        if isinstance(
            command, (cmds.ClaimWorkItem, cmds.StartWorkItem, cmds.CompleteWorkItem)
        ):
            return self._dispatch_on(self._shard_for_item(command.item_id), command)
        if isinstance(
            command, (cmds.CompleteServiceInvocation, cmds.RequeueDeadLetter)
        ):
            # invocation ids carry the enqueueing shard's tag (inv-s2-7)
            return self._dispatch_on(
                self._shard_for_item(command.invocation_id), command
            )
        if isinstance(command, cmds.CorrelateMessage):
            return self._correlate(command)
        if isinstance(command, cmds.DeployDefinition):
            return self._broadcast_deploy(command)
        if isinstance(command, cmds.RunDueJobs):
            return sum(
                self._dispatch_on(i, cmds.RunDueJobs())
                for i in range(self.shard_count)
            )
        if isinstance(command, cmds.AdvanceTime):
            return self._advance_time(command.seconds)
        raise EngineError(f"cluster cannot route command {command.name!r}")

    def _dispatch_on(self, index: int, command: Command) -> Any:
        """Run one command on one shard, measuring lock contention.

        The shard lock is acquired here (re-entered by the shard's own
        dispatcher) so the wait — the time this thread spent blocked
        behind commands running on the same shard — lands in the
        per-shard histogram.
        """
        shard = self.shards[index]
        lock = shard._dispatch_lock
        started = time.perf_counter()
        lock.acquire()
        try:
            self._h_lock_wait[index].observe(time.perf_counter() - started)
            self._c_dispatches[index].inc()
            result = shard.dispatch(command)
            self._g_queue_depth[index].set(len(shard.scheduler))
        finally:
            lock.release()
        self._drain_forwards()
        return result

    # -- cross-shard messaging --------------------------------------------------

    def _make_forwarder(self, index: int) -> Callable[[Message], bool]:
        """The bus subscriber that exports unconsumed messages.

        Subscribed *after* the shard engine's own correlator, so it sees
        only messages with no local receiver.  It claims them (returning
        ``True`` keeps the bus from retaining shard-locally) and records
        them in the shard's outbox — the forwarder runs inside the
        originating dispatch, so the record joins that dispatch's group
        commit.  ``delivered_count`` is pre-decremented (atomically: the
        counter races foreign-thread publishes) so the claim nets zero
        until a real delivery happens somewhere.  A publish the cluster
        itself just routed here is left alone (one-shot thread-local
        mark) — that is the retention fallback.
        """
        shard = self.shards[index]
        bus = shard.bus

        def forward(message: Message) -> bool:
            expected = getattr(self._local, "expect", None)
            if expected == (message.name, message.correlation):
                self._local.expect = None
                return False
            bus.adjust_delivered(-1)
            shard.outbox.claim(message)
            return True

        return forward

    def _drain_forwards(self) -> None:
        """Deliver every undrained outbox record; no shard lock held.

        Non-blocking single-drainer discipline: whoever holds the drain
        lock owns the whole backlog; a thread that finds it taken returns
        immediately (its records are covered by the holder's re-check
        loop).  A record that fails to deliver stays in its origin outbox
        — counted under ``cluster.forward_failures`` and retried on the
        next drain trigger or recovery — and ends the loop so a poison
        record cannot spin.
        """
        while any(shard.outbox for shard in self.shards):
            if not self._drain_lock.acquire(blocking=False):
                return
            try:
                clean = self._drain_outbox_once()
            finally:
                self._drain_lock.release()
            if not clean:
                return

    def _drain_outbox_once(self) -> bool:
        """One pass over every shard's outbox; False if any record failed."""
        clean = True
        for index, shard in enumerate(self.shards):
            if not shard.outbox:
                # racy read, safely so: a claim landing right now happens
                # inside a dispatch whose own post-dispatch drain follows
                continue
            with shard._dispatch_lock:
                records = shard.outbox.records()
            for record in records:
                if not self._forward_record(index, record):
                    clean = False
        return clean

    def _forward_record(self, origin: int, record: Any) -> bool:
        """Route one outbox record to its target shard, exactly-once.

        The route is pinned under the record's ``fwd:`` dedup key before
        publishing, so a retry (live failure or post-crash redelivery)
        presents the same key to the same shard and dedupes.  The record
        is deleted from the origin outbox only after the target's
        delivery dispatch has flushed — a crash in between re-delivers,
        never loses.  The delete itself is garbage collection, not a
        fence: it rides the origin's next group commit (or the closing
        flush) instead of paying a dedicated fsync per message, because
        a record that outlives its delivery on disk is always safe to
        redeliver — the target's persisted dedup window absorbs it.
        """
        key = record.dedup_key
        with self._route_lock:
            target = self._dedup_route.get(key)
        if target is None:
            probed = self._probe_target(record.name, record.correlation)
            with self._route_lock:
                target = self._dedup_route.setdefault(key, probed)
        try:
            self._c_forwards.inc()
            self._route_publish(
                record.name,
                record.correlation,
                dict(record.payload),
                dedup_key=key,
                target=target,
            )
            # the delivery (and its always-logged dedup entry) must be
            # durable on the target before the origin forgets the intent;
            # the lock-free peek skips the fence when this thread's own
            # delivery dispatch already committed (commit_interval 1)
            target_shard = self.shards[target]
            if target_shard.has_pending_writes():
                with target_shard._dispatch_lock:
                    target_shard.flush()
        except Exception:
            self._c_forward_failures.inc()
            return False
        origin_shard = self.shards[origin]
        with origin_shard._dispatch_lock:
            origin_shard.outbox.remove(record.seq)
        return True

    def _probe_target(self, name: str, correlation: Any) -> int:
        """First shard that would deliver now; else one that would hold
        it for a suspended receiver; else the message's home shard."""
        suspended = None
        for index, shard in enumerate(self.shards):
            with shard._dispatch_lock:
                verdict = shard.message_delivery_probe(name, correlation)
            if verdict == "deliver":
                return index
            if verdict == "wait" and suspended is None:
                suspended = index
        if suspended is not None:
            return suspended
        return message_home_shard(name, correlation, self.shard_count)

    def _route_publish(
        self,
        name: str,
        correlation: Any,
        payload: dict[str, Any],
        dedup_key: str | None = None,
        target: int | None = None,
    ) -> Message:
        if target is None:
            target = self._probe_target(name, correlation)
        command = cmds.CorrelateMessage(
            message_name=name,
            correlation=correlation,
            payload=payload,
            dedup_key=dedup_key,
        )
        # mark the publish so the target's forwarder lets it retain there
        # if the matched wait disappeared between probe and dispatch
        self._local.expect = (name, correlation)
        try:
            return self._dispatch_on(target, command)
        finally:
            self._local.expect = None

    def _correlate(self, command: cmds.CorrelateMessage) -> Message:
        target = None
        if command.dedup_key is not None:
            with self._route_lock:
                target = self._dedup_route.get(command.dedup_key)
                if target is None:
                    target = self._probe_target(
                        command.message_name, command.correlation
                    )
                    self._dedup_route[command.dedup_key] = target
        return self._route_publish(
            command.message_name,
            command.correlation,
            dict(command.payload),
            dedup_key=command.dedup_key,
            target=target,
        )

    # -- deployment and queries (mirror ProcessEngine) --------------------------

    def _broadcast_deploy(self, command: cmds.DeployDefinition) -> str:
        """Deploy to every shard, running the static analysis exactly once.

        Shard 0 lints the definition (and can reject the deploy for the
        whole cluster); the remaining shards receive the same command
        marked ``pre_verified`` and only perform structural registration —
        previously each of the N shards re-ran the full analysis, making
        deploy cost O(N × analysis).
        """
        identifiers = [self._dispatch_on(0, command)]
        verified = replace(command, pre_verified=True)
        identifiers.extend(
            self._dispatch_on(i, verified) for i in range(1, self.shard_count)
        )
        if len(set(identifiers)) != 1:  # pragma: no cover - defensive
            raise EngineError(f"divergent deployment versions: {identifiers}")
        return identifiers[0]

    def definition(self, key: str, version: int | None = None) -> ProcessDefinition:
        """Look up a deployed definition (identical on every shard)."""
        return self.shards[0].definition(key, version)

    def definitions(self) -> list[ProcessDefinition]:
        """All deployed definitions."""
        return self.shards[0].definitions()

    def instance(self, instance_id: str) -> ProcessInstance:
        """Look up an instance on its routed shard."""
        return self.shards[self._shard_for_instance(instance_id)].instance(
            instance_id
        )

    def instances(self, state: InstanceState | None = None) -> list[ProcessInstance]:
        """All instances (optionally by state), cluster creation order:
        per-shard read models merged on creation rank (see
        :class:`~repro.views.cluster.ClusterViews`)."""
        return self.views.instances(state)

    def find_instances(self, **filters: Any) -> list[ProcessInstance]:
        """Cross-shard :meth:`ProcessEngine.find_instances`.

        A ``business_key`` filter narrows to the key's home shard (starts
        co-locate by business key, and subprocess children inherit their
        parent's key on the parent's shard); anything else reads every
        shard's views.
        """
        business_key = filters.get("business_key")
        if business_key is not None:
            index = shard_of_key(business_key, self.shard_count)
            return self.shards[index].find_instances(**filters)
        return self.views.find_instances(**filters)

    def work_items(self, state: WorkItemState | None = None) -> list[WorkItem]:
        """All work items across shards (optionally by state)."""
        return self.views.work_items(state)

    def dead_letters(self) -> list[dict[str, Any]]:
        """Dead-lettered invocations across every shard, oldest first."""
        collected: list[dict[str, Any]] = []
        for shard in self.shards:
            with shard._dispatch_lock:
                collected.extend(shard.dead_letters())
        collected.sort(
            key=lambda raw: (raw.get("failed_at", 0.0), raw.get("id", ""))
        )
        return collected

    def workers_status(self) -> dict[str, dict[str, int]]:
        """Per-service invocation accounting, merged across shards."""
        merged: dict[str, dict[str, int]] = {}
        for shard in self.shards:
            with shard._dispatch_lock:
                per_shard = shard.workers_status()
            for service, counts in per_shard.items():
                slot = merged.setdefault(
                    service,
                    {
                        "enqueued": 0,
                        "completed": 0,
                        "pending": 0,
                        "dead_lettered": 0,
                    },
                )
                for key, value in counts.items():
                    slot[key] += value
        return merged

    def _advance_time(self, seconds: float) -> int:
        if not isinstance(self.clock, VirtualClock):
            raise EngineError("advance_time requires a VirtualClock")
        # the clock is shared: advance it exactly once here, not once per
        # shard — then fan out the job pump so each partition's timers
        # fire exactly once
        self.clock.advance(seconds)
        return sum(
            self._dispatch_on(i, cmds.RunDueJobs())
            for i in range(self.shard_count)
        )

    # -- persistence & lifecycle ------------------------------------------------

    def flush(self) -> None:
        """Force-commit every shard's pending dirty state."""
        for index in range(self.shard_count):
            shard = self.shards[index]
            with shard._dispatch_lock:
                shard.flush()

    def recover(self) -> dict[str, int]:
        """Recover every shard from its own partition; merged counts.

        Re-validates the persisted topology first (a recovery driver may
        construct the cluster over freshly opened stores) and rebuilds
        the cluster routing table for recovered dedup keys so retries
        keep landing on the shard that recorded them.  Undrained outbox
        records — forwards claimed but not confirmed delivered at crash
        time — are re-drained before this returns, so the cluster never
        serves traffic with acknowledged cross-shard messages in limbo;
        redeliveries carry their original ``fwd:`` keys and dedup at the
        target.
        """
        totals = {
            "definitions": 0,
            "instances": 0,
            "jobs": 0,
            "workitems": 0,
            "commands": 0,
        }
        for index, shard in enumerate(self.shards):
            recorded = shard.store.get(TOPOLOGY_KEY, None)
            if recorded is not None:
                self._validate_topology(recorded, index)
            with shard._dispatch_lock:
                counts = shard.recover()
                for key in counts:
                    totals[key] = totals.get(key, 0) + counts[key]
                with self._route_lock:
                    for dedup_key in shard.dispatch_log.dedup:
                        self._dedup_route[dedup_key] = index
                self._g_queue_depth[index].set(len(shard.scheduler))
        # deployed definitions must agree shard-to-shard; recovery is the
        # one moment a partially written partition could diverge
        deployed = {
            tuple(sorted(shard._definitions)) for shard in self.shards
        }
        if len(deployed) > 1:
            raise EngineError(
                "shards recovered divergent definition sets; "
                "redeploy before serving traffic"
            )
        self._drain_forwards()
        return totals

    def close(self) -> None:
        """Stop the pool (if any), flush, release every shard's store."""
        if self.workers is not None:
            self.workers.close()
        self.flush()
        for shard in self.shards:
            shard.store.close()

    # -- introspection ----------------------------------------------------------

    def status(self) -> dict[str, Any]:
        """Cluster topology and per-shard load (``repro cluster status``).

        Every per-shard figure is read off maintained counters and the
        read models' state buckets, so status cost does not grow with
        history and decodes no finished case.
        """
        per_shard = []
        for index, shard in enumerate(self.shards):
            with shard._dispatch_lock:
                states = shard.views.instance_counts()
                entry = {
                    "shard": index,
                    "instances": sum(states.values()),
                    "by_state": states,
                    "scheduler_depth": len(shard.scheduler),
                    "open_work_items": shard.worklist.open_count,
                    "dispatches": self._c_dispatches[index].value,
                    "retained_messages": shard.bus.retained_count,
                    "pending_invocations": shard.ledger.pending_count,
                    "dead_letters": shard.ledger.dead_letter_count,
                    "pending_forwards": len(shard.outbox),
                    "views": {
                        "applied_seq": shard.views.applied_seq,
                        "lag": shard.dispatch_log.seq - shard.views.applied_seq,
                    },
                }
                per_shard.append(entry)
        return {
            "shards": self.shard_count,
            "pending_forwards": sum(
                entry["pending_forwards"] for entry in per_shard
            ),
            "per_shard": per_shard,
            "workers": (
                self.workers.status() if self.workers is not None else None
            ),
        }
