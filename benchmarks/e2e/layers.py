"""Per-layer measurements taken from outside the program.

Two kinds.  *Replays* feed inputs captured in the traced run (committed
batches, history events, the deployed guards and scripts with the
variables cases ended with) to one layer's public function in isolation.
*Probes* time a public call on the live cluster after the measured region
(idle dispatch, view reads).  ``path_shares`` turns the traced run's spans
into the per-case cost table.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import Any, Callable, Iterable

import models
from tracing import SpanRow, own_times
from workloads import System

from repro.clock import VirtualClock
from repro.engine import commands as cmds
from repro.engine.instance import InstanceState
from repro.expr import ExpressionError, compile_expression, run_script
from repro.history.audit import HistoryService
from repro.history.events import EventTypes
from repro.model.elements import ScriptTask
from repro.storage.eventstore import EventStore
from repro.storage.journal import Journal
from repro.storage.serializers import json_encode
from repro.views import rebuild_store_views
from repro.worklist.allocation import ShortestQueueAllocator
from repro.worklist.items import WorkItemState
from repro.worklist.resources import OrganizationalModel
from repro.worklist.service import WorklistService


def _mean_us(call: Callable[[], Any], repeats: int) -> float:
    started = time.perf_counter()
    for _ in range(repeats):
        call()
    return (time.perf_counter() - started) / repeats * 1e6


# ----------------------------------------------------------------------- expr


def _node_expressions(definition) -> dict[str, tuple[list[str], list[str]]]:
    """``{node id: (expressions, scripts)}`` evaluated when it executes."""
    found: dict[str, tuple[list[str], list[str]]] = {}
    for node in definition.nodes.values():
        expressions = [
            flow.condition
            for flow in definition.outgoing(node.id)
            if flow.condition is not None
        ]
        expressions.extend(getattr(node, "inputs", {}).values())
        for attribute in ("correlation_expression", "payload_expression"):
            source = getattr(node, attribute, None)
            if source is not None:
                expressions.append(source)
        scripts = [node.script] if isinstance(node, ScriptTask) else []
        if expressions or scripts:
            found[node.id] = (expressions, scripts)
    return found


def expr_replay(system: System) -> dict[str, float]:
    """Cost of one guard evaluation and one script run on the variables
    finished cases hold, and how many of each the entered nodes carry."""
    cluster = system.cluster
    per_definition = {d.key: _node_expressions(d) for d in cluster.definitions()}
    samples: dict[str, list[dict[str, Any]]] = {}
    for instance in cluster.instances(InstanceState.COMPLETED)[-200:]:
        samples.setdefault(instance.definition_key, []).append(instance.variables)
    guard_times: list[float] = []
    script_times: list[float] = []
    for key, nodes in per_definition.items():
        for variables in samples.get(key, ())[:20]:
            for expressions, scripts in nodes.values():
                for source in expressions:
                    try:
                        started = time.perf_counter()
                        compile_expression(source).evaluate(variables)
                        guard_times.append(time.perf_counter() - started)
                    except ExpressionError:
                        pass  # a detached handler's inputs this case never set
                for script in scripts:
                    scratch = dict(variables)
                    try:
                        started = time.perf_counter()
                        run_script(script, scratch)
                        script_times.append(time.perf_counter() - started)
                    except ExpressionError:
                        pass
    guards = scripts_run = 0
    for shard in cluster.shards:
        for event in shard.history.store.of_type(EventTypes.NODE_ENTERED):
            nodes = per_definition.get(event.stream.rsplit("-", 2)[0], {})
            expressions, scripts = nodes.get(event.data.get("node_id"), ((), ()))
            guards += len(expressions)
            scripts_run += len(scripts)
    # history covers every case the cluster has seen, warm-up and preload too
    entered_cases = max(
        1,
        sum(i.definition_key == system.spec.root_key for i in cluster.instances()),
    )
    guard_us = statistics.fmean(guard_times) * 1e6 if guard_times else 0.0
    script_us = statistics.fmean(script_times) * 1e6 if script_times else 0.0
    per_case_guards = guards / entered_cases
    per_case_scripts = scripts_run / entered_cases
    return {
        "expr.guard_eval_us": guard_us,
        "expr.script_exec_us": script_us,
        "expr.evals_per_case": per_case_guards + per_case_scripts,
        "expr.us_per_case": per_case_guards * guard_us + per_case_scripts * script_us,
    }


# --------------------------------------------------------------------- engine


def idle_dispatch(system: System) -> dict[str, float]:
    """The middleware-chain floor: a pump with nothing due writes nothing.

    The facade's cost is the difference of two such timings, so each is
    the best of five batches: interference only ever adds time."""
    cluster = system.cluster
    shard = cluster.shards[0]
    direct = min(_mean_us(lambda: shard.dispatch(cmds.RunDueJobs()), 400) for _ in range(5))
    fanned = min(_mean_us(lambda: cluster.dispatch(cmds.RunDueJobs()), 100) for _ in range(5))
    return {
        "engine.idle_dispatch_us": direct,
        "cluster.facade_us": fanned / cluster.shard_count - direct,
    }


def history_append(system: System) -> float:
    """Mean µs of ``EventStore.append`` over the events shard 0 recorded."""
    events = list(system.cluster.shards[0].history.store.all())[:5000]
    store = EventStore()
    started = time.perf_counter()
    for event in events:
        store.append(event.stream, event.type, event.timestamp, event.data)
    elapsed = time.perf_counter() - started
    return elapsed / max(1, len(events)) * 1e6


def worklist_create(population: int) -> float:
    """Median µs of ``create_item`` on a service holding ``population``
    completed items and ten open ones."""
    organization = OrganizationalModel()
    for resource_id, role in models.RESOURCES:
        organization.add(resource_id, roles=[role])
    clock = VirtualClock(0)
    service = WorklistService(
        organization=organization,
        allocator=ShortestQueueAllocator(),
        clock=clock,
        history=HistoryService(clock=clock),
    )

    def create() -> str:
        return service.create_item("case-1", "yard_move", "crane_operator").id

    def finish(item_id: str) -> None:
        service.start(item_id)
        service.complete(item_id, {"ok": True})

    first = create()
    finish(first)
    # the past is loaded through the persistence hook: creating it item by
    # item would pay the very scan this probe measures, once per item
    done = service.item(first).to_dict()
    service.import_items([{**done, "id": f"wi-{n}"} for n in range(2, population + 1)])
    for _ in range(10):
        create()
    times = []
    for _ in range(200):
        started = time.perf_counter()
        item_id = create()
        times.append(time.perf_counter() - started)
        finish(item_id)
    return statistics.median(times) * 1e6


# -------------------------------------------------------------------- storage


def storage_replay(batches: list[list[tuple[str, str, Any]]], directory: str) -> dict[str, float]:
    """Encode, append and fsync the captured batches on a fresh journal."""
    if not batches:
        return {
            "storage.encode_us_per_commit": 0.0,
            "storage.journal_append_us": 0.0,
            "storage.journal_sync_us": 0.0,
        }
    started = time.perf_counter()
    payloads = [json_encode([list(op) for op in ops]) for ops in batches]
    encode = time.perf_counter() - started
    append = sync = 0.0
    with Journal(os.path.join(directory, "replay.journal")) as journal:
        for payload in payloads:
            started = time.perf_counter()
            journal.append(payload, sync=False)
            appended = time.perf_counter()
            journal.sync()
            append += appended - started
            sync += time.perf_counter() - appended
    count = len(payloads)
    return {
        "storage.encode_us_per_commit": encode / count * 1e6,
        "storage.journal_append_us": append / count * 1e6,
        "storage.journal_sync_us": sync / count * 1e6,
    }


def write_amplification(system: System) -> float:
    """Journal bytes per byte of the live records they left behind."""
    journal = system.journal_bytes()
    if not journal:
        return 0.0
    live = sum(len(json_encode(dict(store.scan()))) for store in system.stores)
    return journal / live


def views_rebuild(stores: Iterable[Any]) -> float:
    started = time.perf_counter()
    for store in stores:
        rebuild_store_views(store)
    return time.perf_counter() - started


# ---------------------------------------------------------------------- views


def view_reads(system: System, business_key: str) -> dict[str, float]:
    """Warm view-backed reads, and the first read after a write."""
    cluster = system.cluster
    views = cluster.views
    found = {
        "views.query_instances_us": _mean_us(
            lambda: cluster.instances(InstanceState.RUNNING), 200
        ),
        "views.query_business_key_us": _mean_us(
            lambda: cluster.find_instances(business_key=business_key), 200
        ),
        "views.query_work_items_us": _mean_us(
            lambda: cluster.work_items(WorkItemState.ALLOCATED), 200
        ),
        "views.stats_us": _mean_us(views.definition_stats, 200),
    }
    first = []
    for _ in range(30):
        cluster.start_instance(*system.spec.probe_start)
        started = time.perf_counter()
        cluster.instances(InstanceState.RUNNING)
        first.append(time.perf_counter() - started)
    found["views.first_query_after_write_us"] = statistics.median(first) * 1e6
    return found


# --------------------------------------------------------- the per-case table


def path_shares(rows: list[SpanRow], since: float) -> dict[str, float]:
    """Seconds per layer on the clients' blocking path, plus what ran on
    worker threads beside it.

    A span is on the path when its outermost ancestor is a ``case`` span.
    Self time is split by span name: ``cmd.*`` is the engine (dispatch
    minus the storage and service calls inside it), ``storage.*`` the
    store, ``service.*`` inline services, ``wait`` the time a client
    waited for a worker thread, and ``case`` itself the driver.
    """
    rows = [row for row in rows if row[3] >= since]
    parent_of = {row[0]: row[1] for row in rows}
    name_of = {row[0]: row[2] for row in rows}
    own_of = own_times(rows)
    root_cache: dict[int, int] = {}

    def root(span_id: int) -> int:
        chain = []
        while span_id not in root_cache and parent_of.get(span_id):
            chain.append(span_id)
            span_id = parent_of[span_id]
        top = root_cache.get(span_id, span_id)
        for link in chain:
            root_cache[link] = top
        return top

    shares = dict.fromkeys(
        ("engine", "storage", "services", "wait", "driver", "worker_storage", "worker_services"),
        0.0,
    )
    for span_id, _, name, *_ in rows:
        own = own_of[span_id]
        layer = name.split(".", 1)[0]
        if name_of.get(root(span_id)) == "case":
            if name == "case":
                shares["driver"] += own
            else:
                key = {"cmd": "engine", "storage": "storage", "service": "services"}.get(layer, "wait")
                shares[key] += own
        elif layer == "storage":
            shares["worker_storage"] += own
        elif layer == "service":
            shares["worker_services"] += own
    return shares
