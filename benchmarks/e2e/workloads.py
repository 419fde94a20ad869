"""The four workloads: how each builds the composed system, what its
client threads do, and how its outputs are checked.

Load shape: closed loop, one process; every client thread issues its next
command only after the previous one returned.  The flush policy is fixed:
``commit_interval=1``, ``DurableKV(sync_writes=True)``,
``dispatch_log_retention=256`` (so views drain every 64 seqs),
``VirtualClock(0)``, ``ShortestQueueAllocator``.  The measured unit is an
*epoch*: a fixed number of mix blocks on a freshly set-up cluster, so
every epoch sees the same history and the same work.
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import itertools
import os
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import models
from tracing import SpanRecorder, TracingKV

from repro.clock import VirtualClock
from repro.cluster import ShardedEngine
from repro.engine.instance import InstanceState, ProcessInstance
from repro.obs import InMemorySpanExporter, Observability
from repro.services.registry import ServiceRegistry
from repro.storage.kvstore import DurableKV, KeyValueStore, MemoryKV
from repro.storage.serializers import json_encode
from repro.workers import WorkerPool
from repro.worklist.allocation import ShortestQueueAllocator
from repro.worklist.items import WorkItemState
from repro.worklist.resources import OrganizationalModel

#: client command types, timed separately and pooled into ``cmd_*``
KINDS = ("start", "correlate", "start_item", "complete", "compensate", "suspend")
#: an operation that has not finished after this long has failed
TIMEOUT_S = 5.0
#: how often a client looks again while a worker thread finishes its task
POLL_S = 0.0001
#: simulated customs-gateway round trip of ``send_customs_declaration``
GATEWAY_S = 0.001
#: committed batches each traced store keeps for the storage replays
CAPTURED_BATCHES = 400
#: ``ops_mixed``: cases preloaded by set-up, and reader rounds per second.
#: A round holds the GIL for two or three milliseconds with no I/O to yield
#: at, so the writer returning from an fsync waits for it, and more so when
#: the host is slow.  Over 25 minutes of single epochs the writer's rate
#: spread (interquartile range / median) 21 % at 25 rounds/s and 15 % with
#: no reader, as much as ``saga_cross_shard`` (16 %); the first version
#: saw 24-38 % at 100 rounds/s.
PRELOAD_CASES = 320
READER_HZ = 10.0


@dataclass(frozen=True)
class Spec:
    name: str
    why: str
    durable: bool
    pooled: bool
    clients: int
    definitions: tuple[Callable[[], Any], ...]
    #: mix blocks (``models.BLOCK`` cases or ``models.COMPENSATE_EVERY``
    #: sagas, each block the same work) a client runs to warm up, and in
    #: one measured epoch
    warmup_blocks: int
    epoch_blocks: int
    #: definition whose instances count the cases a cluster has seen
    root_key: str
    #: a start that parks on a receive: the write before a first-read probe
    probe_start: tuple[str, dict[str, Any]]


_PORT = {
    "root_key": "container_handling",
    "probe_start": ("carrier_pickup", {"container_id": "probe"}),
}

SPECS = {
    spec.name: spec
    for spec in (
        Spec(
            "port_durable",
            "every layer on: durable 4-shard cluster, worker pool, outbox, views; "
            "journal, encode, fsync and group-commit work must show here",
            durable=True, pooled=True, clients=2,
            definitions=models.PORT_DEFINITIONS, warmup_blocks=1,
            epoch_blocks=15, **_PORT,
        ),
        Spec(
            "port_memory",
            "same cases on MemoryKV with inline services: the interpreter does nearly "
            "all the work, so a storage change predicts no change here",
            durable=False, pooled=False, clients=1,
            definitions=models.PORT_DEFINITIONS, warmup_blocks=2,
            epoch_blocks=120, **_PORT,
        ),
        Spec(
            "saga_cross_shard",
            "router, outbox, dedup window and two-shard commits do the work, the "
            "interpreter little; put+delete pairs use storage unlike port_durable",
            durable=True, pooled=False, clients=2,
            definitions=models.SAGA_DEFINITIONS, warmup_blocks=3, epoch_blocks=100,
            root_key="waiter", probe_start=("waiter", {"key": "probe"}),
        ),
        Spec(
            "ops_mixed",
            "dashboard reads beside writes on a preloaded durable cluster, then a "
            "restart: view read side, write-behind drain and recovery together",
            durable=True, pooled=False, clients=2,
            definitions=models.PORT_DEFINITIONS, warmup_blocks=1,
            epoch_blocks=30, **_PORT,
        ),
    )
}


class CaseFailed(Exception):
    """A case timed out or produced the wrong output."""


_NO_SPAN = contextlib.nullcontext()


# ----------------------------------------------------------------- the system


class System:
    """The composed BPMS under test, built only through public API."""

    def __init__(
        self,
        spec: Spec,
        directory: str,
        recorder: SpanRecorder | None = None,
        reopen: list[KeyValueStore] | None = None,
    ) -> None:
        self.spec = spec
        self.directory = directory
        self.recorder = recorder
        self.stores: list[KeyValueStore] = []
        self._reopen = reopen
        organization = OrganizationalModel()
        for resource_id, role in models.RESOURCES:
            organization.add(resource_id, roles=[role])
        services = ServiceRegistry()
        gateway = models.customs_gateway(GATEWAY_S if spec.pooled else 0.0)
        services.register("parse_manifest", self._traced_service(models.parse_manifest))
        services.register("send_customs_declaration", self._traced_service(gateway))
        traced = recorder is not None
        self.obs = Observability(
            enabled=traced, exporters=[InMemorySpanExporter()] if traced else None
        )
        self.pool = WorkerPool(workers=2) if spec.pooled else None
        self.cluster = ShardedEngine(
            models.SHARDS,
            store_factory=self._store,
            clock=VirtualClock(0),
            organization=organization,
            allocator=ShortestQueueAllocator(),
            services=services,
            obs=self.obs,
            commit_interval=1,
            dispatch_log_retention=256,
            workers=self.pool,
        )

    def _store(self, index: int) -> KeyValueStore:
        if self._reopen is not None:
            store = self._reopen[index]
        elif self.spec.durable:
            store = DurableKV(
                os.path.join(self.directory, f"shard-{index}"), sync_writes=True
            )
        else:
            store = MemoryKV()
        if self.recorder is not None:
            store = TracingKV(store, self.recorder, capture=CAPTURED_BATCHES)
        self.stores.append(store)
        return store

    def _traced_service(self, call: Callable[..., Any]) -> Callable[..., Any]:
        recorder = self.recorder
        if recorder is None:
            return call
        name = f"service.{call.__name__}"

        def traced(**arguments: Any) -> Any:
            with recorder.span(name):
                return call(**arguments)

        return traced

    def deploy(self) -> float:
        """Deploy the workload's definitions; returns the seconds it took."""
        started = time.perf_counter()
        for build in self.spec.definitions:
            self.cluster.deploy(build())
        return time.perf_counter() - started

    def quiesce(self) -> None:
        if self.pool is not None and not self.pool.wait_idle(TIMEOUT_S):
            raise CaseFailed("worker pool did not go idle")

    def journal_bytes(self) -> int:
        return sum(getattr(store, "journal_size", 0) for store in self.stores)

    def close(self) -> list[KeyValueStore] | None:
        """Close the cluster; returns what survives the process — nothing
        to hand over for durable stores (their directories do), the
        volatile stores themselves otherwise."""
        self.cluster.close()
        if self.spec.durable:
            return None
        return [getattr(store, "inner", store) for store in self.stores]


def restart(
    spec: Spec, directory: str, survivors: list[KeyValueStore] | None
) -> tuple[System, float, float]:
    """Reopen the stores of a closed system and ``recover()``.

    Returns the recovered system, the seconds the stores took to open
    (journal replay) and the seconds ``recover()`` took.  Volatile stores
    stand in for themselves: their restart is the engine's part alone.
    """
    started = time.perf_counter()
    stores = survivors or [
        DurableKV(os.path.join(directory, f"shard-{i}"), sync_writes=True)
        for i in range(models.SHARDS)
    ]
    opened = time.perf_counter()
    recovered = System(spec, directory, reopen=stores)
    recovered.cluster.recover()
    return recovered, opened - started, time.perf_counter() - opened


def state_digest(cluster: ShardedEngine) -> str:
    """Digest of instances, work items, jobs and outbox of a quiet cluster."""
    digest = hashlib.sha256()
    for shard in cluster.shards:
        digest.update(
            json_encode(
                {
                    "instances": [i.to_dict() for i in shard.instances()],
                    # by id: a recovered worklist iterates in key order,
                    # a live one in creation order
                    "items": sorted(
                        (i.to_dict() for i in shard.worklist.items()),
                        key=lambda raw: raw["id"],
                    ),
                    "jobs": shard.scheduler.export(),
                    "outbox": [r.to_dict() for r in shard.outbox_records()],
                }
            )
        )
    return digest.hexdigest()


# ----------------------------------------------------------------- one client


class Client:
    """One closed-loop client thread: timed commands, waits, outcomes."""

    def __init__(self, system: System, index: int) -> None:
        self.index = index
        self.cluster = system.cluster
        self.recorder = system.recorder
        #: measured seconds, one entry per timed command, unit of work,
        #: outbox round trip, reader round and reader start delay
        self.commands: dict[str, list[float]] = {kind: [] for kind in KINDS}
        self.units: list[float] = []
        self.roundtrips: list[float] = []
        self.rounds: list[float] = []
        self.late: list[float] = []
        self.wait_seconds = 0.0
        self.attempted = 0
        self.failed = 0
        self.first_error = ""

    def _span(self, name: str, case: Any = None):
        if self.recorder is None:
            return _NO_SPAN
        return self.recorder.span(name, case)

    def command(self, kind: str, call: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        with self._span(f"cmd.{kind}"):
            started = time.perf_counter()
            result = call(*args, **kwargs)
            ended = time.perf_counter()
        self.commands[kind].append(ended - started)
        return result

    def wait(self, ready: Callable[[], Any]) -> Any:
        """Poll until ``ready()`` is truthy — the driver-side wait for work
        a worker thread (or another client's outbox drain) completes."""
        value = ready()
        if value:
            return value
        started = time.perf_counter()
        with self._span("wait"):
            while not value:
                if time.perf_counter() - started > TIMEOUT_S:
                    raise CaseFailed("timed out waiting for the case to move on")
                time.sleep(POLL_S)
                value = ready()
        self.wait_seconds += time.perf_counter() - started
        return value

    def work(self, item_id: str) -> None:
        """A resource starts and completes one allocated work item."""
        self.command("start_item", self.cluster.start_work_item, item_id)
        self.command("complete", self.cluster.complete_work_item, item_id, {"ok": True})

    def unit(self, label: Any, run: Callable[[], None]) -> None:
        """Run one unit of work; time it, count it, absorb its failure."""
        self.attempted += 1
        started = time.perf_counter()
        try:
            with self._span("case", label):
                run()
        except Exception:  # noqa: BLE001 - a failed case is a counted outcome
            self.failed += 1
            self.first_error = self.first_error or traceback.format_exc()
            return
        self.units.append(time.perf_counter() - started)


def _waiting_item(instance: ProcessInstance, node_id: str) -> str | None:
    for token in instance.tokens:
        waiting = token.waiting_on
        if waiting.get("reason") == "user_task" and waiting.get("node_id") == node_id:
            return waiting["work_item_id"]
    return None


def _awaiting_verdict(cluster: ShardedEngine, root: ProcessInstance) -> ProcessInstance | None:
    """The customs child, once it is parked on its event gateway."""
    for token in root.tokens:
        child_id = token.waiting_on.get("child_id")
        if child_id is not None:
            child = cluster.instance(child_id)
            if any(t.waiting_on.get("reason") == "event_race" for t in child.tokens):
                return child
    return None


def _completed(instance: ProcessInstance) -> bool:
    return instance.state is InstanceState.COMPLETED


# ------------------------------------------------------------ port-terminal


@dataclass
class PortRun:
    case: models.PortCase
    root: ProcessInstance
    carrier: ProcessInstance


def advance_to_yard(client: Client, case: models.PortCase) -> PortRun:
    """Start carrier and container, clear dangerous goods and customs;
    leaves the container parked at ``yard_move``."""
    cluster = client.cluster
    carrier = client.command(
        "start", cluster.start_instance, "carrier_pickup",
        {"container_id": case.container_id}, business_key=case.carrier_key,
    )
    root = client.command(
        "start", cluster.start_instance, "container_handling",
        {"manifest": case.manifest}, business_key=case.business_key,
    )
    if case.dangerous:
        client.work(client.wait(lambda: _waiting_item(root, "dg_clearance")))
    child = client.wait(lambda: _awaiting_verdict(cluster, root))
    verdict = "customs_inspection" if case.inspected else "customs_release"
    client.command("correlate", cluster.correlate_message, verdict, case.container_id)
    if case.inspected:
        client.work(client.wait(lambda: _waiting_item(child, "physical_inspection")))
    return PortRun(case, root, carrier)


def finish_yard(client: Client, run: PortRun) -> None:
    """Move the container to its stack; the case ends and the carrier on
    another shard hears of it."""
    client.work(client.wait(lambda: _waiting_item(run.root, "yard_move")))
    client.wait(lambda: _completed(run.root) and _completed(run.carrier))
    check_port_case(run)


def check_port_case(run: PortRun) -> None:
    variables = run.root.variables
    if not _completed(run.root) or not _completed(run.carrier):
        raise CaseFailed(f"{run.case.container_id}: not completed")
    if variables.get("customs_status") != run.case.customs_status:
        raise CaseFailed(f"{run.case.container_id}: customs_status {variables.get('customs_status')!r}")
    if variables.get("dangerous") != run.case.dangerous:
        raise CaseFailed(f"{run.case.container_id}: dangerous {variables.get('dangerous')!r}")


def _port_problems(runs: list[PortRun]) -> list[str]:
    """Every finished case checked again, over the final state."""
    found = []
    for run in runs:
        try:
            check_port_case(run)
        except CaseFailed as exc:
            found.append(str(exc))
    return found


class Workload:
    """Base: a workload preloads, runs client loops and checks outputs."""

    def __init__(self, system: System, seed: int) -> None:
        self.system = system
        self.seed = seed
        self.warmup_failures = 0

    def preload(self) -> None:
        """State the measured region starts from (part of set-up)."""

    def loops(self) -> list[Callable[[Client, int], None]]:
        """One loop per client thread; each is called with its client and
        the number of mix blocks to run."""
        raise NotImplementedError

    def problems(self) -> list[str]:
        """Output checks over the final state; empty when all hold."""
        cluster = self.system.cluster
        found = []
        if self.warmup_failures:
            found.append(f"{self.warmup_failures} warm-up cases failed")
        status = cluster.workers_status()
        for service, counts in status.items():
            settled = counts["completed"] + counts["pending"] + counts["dead_lettered"]
            if settled != counts["enqueued"]:
                found.append(f"invocations of {service} not conserved: {counts}")
        registry = self.system.obs.registry
        if registry.counter("cluster.forward_failures").value:
            found.append("cross-shard forwards failed")
        undelivered = sum(shard.bus.retained_count for shard in cluster.shards)
        if undelivered:
            found.append(f"{undelivered} messages delivered to nobody")
        tables: dict[Any, list[str]] = collections.defaultdict(list)
        for shard in cluster.shards:
            for entity in (*shard.instances(), *shard.worklist.items()):
                tables[entity.state].append(entity.id)
        for state in InstanceState:
            if sorted(i.id for i in cluster.instances(state)) != sorted(tables[state]):
                found.append(f"view of {state.value} instances differs from the shards' tables")
        for state in WorkItemState:
            if sorted(i.id for i in cluster.work_items(state)) != sorted(tables[state]):
                found.append(f"view of {state.value} work items differs from the worklists")
        return found


class PortWorkload(Workload):
    """``port_durable`` and ``port_memory``: whole cases, start to end."""

    def __init__(self, system: System, seed: int) -> None:
        super().__init__(system, seed)
        self.runs: list[PortRun] = []

    def loops(self):
        return [self._loop] * self.system.spec.clients

    def _loop(self, client: Client, blocks: int) -> None:
        cases = models.port_cases(self.seed, client.index)
        for case in itertools.islice(cases, blocks * models.BLOCK):
            client.unit(case.container_id, lambda: self._case(client, case))

    def _case(self, client: Client, case: models.PortCase) -> None:
        run = advance_to_yard(client, case)
        self.runs.append(run)
        finish_yard(client, run)

    def problems(self) -> list[str]:
        return super().problems() + _port_problems(self.runs)


# --------------------------------------------------------- cross-shard sagas


class SagaWorkload(Workload):
    """``saga_cross_shard``: a send that can only arrive through the outbox."""

    def __init__(self, system: System, seed: int) -> None:
        super().__init__(system, seed)
        self.waiters: list[ProcessInstance] = []
        self.trips: list[ProcessInstance] = []

    def loops(self):
        return [self._loop] * self.system.spec.clients

    def _loop(self, client: Client, blocks: int) -> None:
        stream = models.sagas(self.seed, client.index)
        for saga in itertools.islice(stream, blocks * models.COMPENSATE_EVERY):
            client.unit(saga.correlation, lambda: self._saga(client, saga))

    def _saga(self, client: Client, saga: models.Saga) -> None:
        cluster = client.cluster
        waiter = client.command(
            "start", cluster.start_instance, "waiter",
            {"key": saga.correlation}, business_key=saga.waiter_key,
        )
        self.waiters.append(waiter)
        sent = time.perf_counter()
        client.command(
            "start", cluster.start_instance, "sender",
            {"msg": {"correlation": saga.correlation}}, business_key=saga.sender_key,
        )
        client.wait(lambda: _completed(waiter))
        client.roundtrips.append(time.perf_counter() - sent)
        if saga.compensate:
            trip = client.command(
                "start", cluster.start_instance, "trip",
                {"undone": ""}, business_key=saga.sender_key,
            )
            self.trips.append(trip)
            if not _completed(trip):
                raise CaseFailed(f"{saga.correlation}: trip did not end")
            client.command("compensate", cluster.compensate_instance, trip.id)
            if trip.variables.get("undone") != "chf":
                raise CaseFailed(f"{saga.correlation}: undo order {trip.variables.get('undone')!r}")

    def problems(self) -> list[str]:
        found = super().problems()
        pending = sum(not _completed(waiter) for waiter in self.waiters)
        if pending:
            found.append(f"{pending} waiters never received their message")
        wrong = sum(trip.variables.get("undone") != "chf" for trip in self.trips)
        if wrong:
            found.append(f"{wrong} trips were not compensated in reverse order")
        return found


# ---------------------------------------------------------------- ops_mixed


class OpsMixedWorkload(Workload):
    """``ops_mixed``: a writer moving containers through a preloaded
    terminal while a dashboard polls it on a schedule."""

    def __init__(self, system: System, seed: int) -> None:
        super().__init__(system, seed)
        self.parked: collections.deque[PortRun] = collections.deque()
        self.finished: list[PortRun] = []
        self.suspended: list[PortRun] = []
        self.cases: Iterator[models.PortCase] = models.port_cases(seed)
        self.lookups: list[str] = []

    def preload(self) -> None:
        """Half the preloaded cases parked at ``yard_move``, a quarter
        completed, a quarter suspended."""
        client = Client(self.system, 0)
        cluster = self.system.cluster
        for number in range(PRELOAD_CASES):
            run = advance_to_yard(client, next(self.cases))
            self.lookups.append(run.case.business_key)
            if number % 4 == 0:
                finish_yard(client, run)
                self.finished.append(run)
            elif number % 4 == 1:
                client.command("suspend", cluster.suspend_instance, run.root.id)
                self.suspended.append(run)
            else:
                self.parked.append(run)

    def loops(self):
        done = threading.Event()
        return [
            lambda client, blocks: self._writer(client, blocks, done),
            lambda client, blocks: self._reader(client, done),
        ]

    def _writer(self, client: Client, blocks: int, done: threading.Event) -> None:
        try:
            for case in itertools.islice(self.cases, blocks * models.BLOCK):
                client.unit(case.container_id, lambda: self._turnover(client, case))
        finally:
            done.set()

    def _turnover(self, client: Client, case: models.PortCase) -> None:
        """One container leaves the yard and one arrives: the running
        population the dashboard reads stays the size set-up made it."""
        leaving = self.parked.popleft()
        finish_yard(client, leaving)
        self.finished.append(leaving)
        self.parked.append(advance_to_yard(client, case))
        self.lookups.append(case.business_key)

    def _reader(self, client: Client, writer_done: threading.Event) -> None:
        """Open loop, for as long as the writer runs: a round is due every
        1/READER_HZ seconds whether or not the last one is done, and is
        timed from when it was due."""
        cluster = self.system.cluster
        views = cluster.views
        period = 1.0 / READER_HZ
        queries = (
            lambda: cluster.instances(InstanceState.RUNNING),
            lambda: cluster.find_instances(business_key=self.lookups[len(self.lookups) // 2]),
            lambda: cluster.work_items(WorkItemState.ALLOCATED),
            views.definition_stats,
            views.open_work_items,
        )
        due = time.perf_counter() + period
        while not writer_done.wait(due - time.perf_counter()):
            started = time.perf_counter()
            for query in queries:
                query()
            client.rounds.append(time.perf_counter() - due)
            client.late.append(max(0.0, started - due))
            due += period

    def problems(self) -> list[str]:
        found = super().problems() + _port_problems(self.finished)
        cluster = self.system.cluster
        running = {i.id for i in cluster.instances(InstanceState.RUNNING)}
        for run in self.parked:
            if run.root.id not in running or _waiting_item(run.root, "yard_move") is None:
                found.append(f"{run.case.container_id}: not parked at yard_move")
        suspended = {i.id for i in cluster.instances(InstanceState.SUSPENDED)}
        if suspended != {run.root.id for run in self.suspended}:
            found.append("suspended cases changed")
        return found


WORKLOADS = {
    "port_durable": PortWorkload,
    "port_memory": PortWorkload,
    "saga_cross_shard": SagaWorkload,
    "ops_mixed": OpsMixedWorkload,
}


def set_up(
    name: str, directory: str, seed: int, recorder: SpanRecorder | None = None
) -> tuple[Workload, float, float]:
    """Build the cluster, deploy, preload and warm up.

    Returns the workload, the set-up seconds and the deploy seconds.
    """
    started = time.perf_counter()
    system = System(SPECS[name], directory, recorder)
    deploy_seconds = system.deploy()
    workload = WORKLOADS[name](system, seed)
    workload.preload()
    warm = _run_clients(workload, system.spec.warmup_blocks)
    system.quiesce()
    workload.warmup_failures = sum(client.failed for client in warm)
    return workload, time.perf_counter() - started, deploy_seconds


# -------------------------------------------------------- the measured epoch


@dataclass
class Region:
    """What one measured epoch produced."""

    clients: list[Client]
    start: float
    end: float
    before: dict[str, Any]
    after: dict[str, Any]


def observe(system: System) -> dict[str, Any]:
    """Counters read at a region boundary, from public surfaces only."""
    snapshot = system.obs.registry.snapshot()
    with open("/proc/self/statm", encoding="ascii") as handle:
        resident_pages = int(handle.read().split()[1])
    return {
        "counters": snapshot["counters"],
        "gauges": snapshot["gauges"],
        "histograms": {
            name: (data["count"], data["sum"])
            for name, data in snapshot["histograms"].items()
        },
        "history_events": sum(len(shard.history.store) for shard in system.cluster.shards),
        "rss_bytes": resident_pages * os.sysconf("SC_PAGE_SIZE"),
        "stores": [
            (store.puts, store.deletes, store.commits, store.commit_seconds, store.journal_bytes)
            for store in system.stores
            if isinstance(store, TracingKV)
        ],
    }


def _run_clients(
    workload: Workload, blocks: int, begin: Callable[[], None] | None = None
) -> list[Client]:
    """One thread per client loop, each running ``blocks`` mix blocks; all
    start together, after ``begin``.  Returns when the last has ended."""
    loops = workload.loops()
    clients = [Client(workload.system, index) for index in range(len(loops))]
    barrier = threading.Barrier(len(loops), action=begin)

    def body(client: Client, loop) -> None:
        try:
            barrier.wait()
            loop(client, blocks)
        except Exception:  # noqa: BLE001 - a dead client is a failed run, not a hang
            barrier.abort()
            client.attempted += 1
            client.failed += 1
            client.first_error = client.first_error or traceback.format_exc()

    threads = [
        threading.Thread(target=body, args=(client, loop), name=f"client-{client.index}")
        for client, loop in zip(clients, loops)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return clients


def run_epoch(workload: Workload) -> Region:
    """Every client loop of a warmed-up workload runs its epoch's blocks."""
    system = workload.system
    mark: dict[str, Any] = {}

    def begin() -> None:
        mark["before"] = observe(system)
        mark["start"] = time.perf_counter()

    clients = _run_clients(workload, system.spec.epoch_blocks, begin)
    end = time.perf_counter()
    system.quiesce()
    return Region(clients, mark["start"], end, mark["before"], observe(system))
