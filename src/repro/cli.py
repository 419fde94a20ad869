"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``validate FILE.bpmn [--soundness]`` — structural (and optionally
  behavioural) verification; exit code 1 on errors.
* ``lint FILE.bpmn [--json] ...``      — full static analysis: structural,
  data-flow, behavioural, and reference rules with fix hints.
* ``lint DIR --deployment``            — deployment-wide analysis: every
  definition in a directory of BPMN files (or a DurableKV store), plus
  the interprocess message/call rules (MSG*/CALL*/CHOR*).
* ``choreography DIR [--json]``        — render the deployment's message
  channels, call edges, and recursion cycles.
* ``info FILE.bpmn``                   — model summary.
* ``run FILE.bpmn [--var k=v ...]``    — deploy and run one instance of a
  fully automated model, printing the outcome and final variables.
* ``mine LOG.json [--threshold X]``    — discovery summary for an event
  log (``EventLog.to_json`` format).
* ``trace FILE.bpmn [--jsonl OUT]``    — run one instance with tracing on
  and print the span tree.
* ``metrics FILE.bpmn [--json]``       — run one instance and print the
  full metrics snapshot.
* ``patterns``                         — the pattern support matrix.
* ``commands [--store DIR]``           — list the registered command types;
  with a store, dump the recent dispatch history (idempotency keys,
  status, depth) recorded by the command pipeline.
* ``cluster status --store DIR``       — per-shard topology and state
  counts for a sharded runtime's ``shard-<n>`` store directories.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import Any, Iterator, Sequence

from repro.bpmn import BpmnParseError, parse_bpmn
from repro.history.log import EventLog
from repro.model.mapping import to_workflow_net
from repro.model.validation import validate as validate_model
from repro.petri.workflow_net import check_soundness


def _load_model(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_bpmn(fh.read(), source=path)
    except FileNotFoundError:
        raise SystemExit(f"error: no such file: {path}")
    except BpmnParseError as exc:
        raise SystemExit(f"error: cannot parse {path}: {exc}")


def _parse_var(raw: str):
    name, sep, value = raw.partition("=")
    if not sep:
        raise SystemExit(f"error: --var expects name=value, got {raw!r}")
    try:
        return name, json.loads(value)
    except json.JSONDecodeError:
        return name, value  # plain string


def cmd_validate(args: argparse.Namespace) -> int:
    model = _load_model(args.file)
    report = validate_model(model)
    for issue in report.issues:
        print(issue)
    if not report.ok:
        print(f"INVALID: {len(report.errors)} error(s)")
        return 1
    print(f"valid: {len(model.nodes)} nodes, {len(model.flows)} flows"
          + (f", {len(report.warnings)} warning(s)" if report.warnings else ""))
    if args.soundness:
        soundness = check_soundness(
            to_workflow_net(model).net, max_states=args.max_states
        )
        if soundness.sound:
            print(f"sound: verified over {soundness.state_count} states")
        else:
            print("UNSOUND:")
            for problem in soundness.problems:
                print(f"  - {problem}")
            return 1
    return 0


def _store_paths(root: str) -> list[tuple[str, str]]:
    """``(label, path)`` per DurableKV under ``root``.

    ``root`` is either a single engine's store directory (one entry,
    labelled ``store``) or a cluster directory holding ``shard-<n>``
    partitions (the bench/test layout), listed in shard-number order.
    """
    try:
        entries = sorted(os.listdir(root))
    except OSError as exc:
        raise SystemExit(f"error: cannot read {root}: {exc}")
    shard_dirs = [
        entry
        for entry in entries
        if entry.startswith("shard-") and os.path.isdir(os.path.join(root, entry))
    ]
    shard_dirs.sort(key=lambda d: int(d[6:]) if d[6:].isdigit() else 0)
    return [(d, os.path.join(root, d)) for d in shard_dirs] or [("store", root)]


@contextlib.contextmanager
def _open_stores(
    paths: list[tuple[str, str]], writable: bool = False
) -> Iterator[list[tuple[str, Any]]]:
    """``(label, DurableKV)`` per ``(label, path)``, every one closed on
    exit, also when the command raises.  Read-only use skips the
    per-write sync."""
    from repro.storage.kvstore import DurableKV

    stores: list[tuple[str, Any]] = []
    try:
        for label, path in paths:
            stores.append((label, DurableKV(path, sync_writes=writable)))
        yield stores
    finally:
        for _, store in stores:
            store.close()


def _load_deployment(path: str):
    """Definitions for ``lint --deployment`` / ``choreography``.

    ``path`` may be a directory of ``*.bpmn`` files (recursive), a
    DurableKV store directory (its ``definition/`` records are read, the
    latest version of each key winning), or a cluster directory of
    ``shard-<n>`` partitions (shard 0 is read — deployments are identical
    on every shard).
    """
    from repro.deploy import Repository

    if not os.path.isdir(path):
        raise SystemExit(f"error: not a directory: {path}")
    path = _store_paths(path)[0][1]
    entries = os.listdir(path)
    if "journal.log" in entries or "snapshot.bin" in entries:
        repository = Repository()
        with _open_stores([("store", path)]) as [(_, store)]:
            repository.load(store)
        definitions = repository.latest()
        if not definitions:
            raise SystemExit(f"error: no definition/ records in store {path}")
        return definitions
    models = []
    for root, _dirs, files in sorted(os.walk(path)):
        for name in sorted(files):
            if name.endswith(".bpmn"):
                models.append(_load_model(os.path.join(root, name)))
    if not models:
        raise SystemExit(f"error: no *.bpmn files under {path}")
    return models


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import (
        AnalysisCache,
        AnalysisContext,
        analyze,
        analyze_deployment,
        exit_code,
        render_console,
        render_deployment_console,
        render_deployment_json,
        render_json,
    )

    use_json = args.json or args.format == "json"
    if args.write_baseline and not args.baseline:
        raise SystemExit("error: --write-baseline requires --baseline FILE")
    context = None
    if args.service or args.role or args.decision or args.process_key:
        context = AnalysisContext(
            services=frozenset(args.service) if args.service else None,
            roles=frozenset(args.role) if args.role else None,
            decisions=frozenset(args.decision) if args.decision else None,
            process_keys=(
                frozenset(args.process_key) if args.process_key else None
            ),
        )

    if args.deployment:
        report = analyze_deployment(
            _load_deployment(args.file),
            context=context,
            behavioral=not args.no_behavioral,
            max_states=args.max_states,
            cache=AnalysisCache(),
        )
        if args.write_baseline:
            _write_baseline(args.baseline, report.fingerprints())
            return 0
        if args.baseline:
            report = report.apply_baseline(_read_baseline(args.baseline))
        print(
            render_deployment_json(report)
            if use_json
            else render_deployment_console(report)
        )
        return exit_code(report, args.fail_on)

    model = _load_model(args.file)
    report = analyze(
        model,
        context=context,
        behavioral=not args.no_behavioral,
        max_states=args.max_states,
    )
    if args.write_baseline:
        _write_baseline(
            args.baseline, sorted(d.fingerprint for d in report.diagnostics)
        )
        return 0
    if args.baseline:
        report = _read_baseline(args.baseline).apply(report)
    print(render_json(report) if use_json else render_console(report))
    return exit_code(report, args.fail_on)


def _read_baseline(path: str):
    from repro.analysis import Baseline

    try:
        return Baseline.load(path)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        raise SystemExit(f"error: cannot read baseline: {exc}")


def _write_baseline(path: str, fingerprints: list) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(fingerprints, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(fingerprints)} fingerprint(s) to {path}")


def cmd_choreography(args: argparse.Namespace) -> int:
    from repro.analysis import (
        DeploymentGraph,
        choreography_summary,
        render_choreography,
    )

    graph = DeploymentGraph.build(_load_deployment(args.path))
    if args.json:
        print(json.dumps(choreography_summary(graph), indent=2, sort_keys=True))
    else:
        print(render_choreography(graph))
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    model = _load_model(args.file)
    print(f"process   : {model.key} (name={model.name!r}, version={model.version})")
    if model.description:
        print(f"docs      : {model.description}")
    by_type: dict[str, int] = {}
    for node in model.nodes.values():
        by_type[node.type_name] = by_type.get(node.type_name, 0) + 1
    print(f"nodes     : {len(model.nodes)}")
    for type_name, count in sorted(by_type.items()):
        print(f"  {type_name:<26} {count}")
    guarded = sum(1 for f in model.flows.values() if f.condition)
    print(f"flows     : {len(model.flows)} ({guarded} guarded)")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    from repro.engine.engine import ProcessEngine
    from repro.model.elements import ReceiveTask, UserTask

    model = _load_model(args.file)
    human = [n.id for n in model.nodes.values() if isinstance(n, (UserTask, ReceiveTask))]
    if human:
        print(f"note: model has waiting nodes {human}; the run may not complete")
    engine = ProcessEngine()
    engine.deploy(model)
    variables = dict(_parse_var(raw) for raw in args.var or [])
    instance = engine.start_instance(model.key, variables)
    print(f"instance  : {instance.id}")
    print(f"state     : {instance.state.value}")
    if instance.failure:
        print(f"failure   : {instance.failure}")
    print("variables :")
    for name in sorted(instance.variables):
        print(f"  {name} = {instance.variables[name]!r}")
    trace = [
        e.data["node_id"]
        for e in engine.history.instance_events(instance.id)
        if e.type == "node.completed" and e.data.get("is_activity")
    ]
    print(f"trace     : {' -> '.join(trace) if trace else '(no activities)'}")
    return 0 if instance.state.value in ("completed", "running") else 1


def _traced_run(args: argparse.Namespace):
    """Shared setup for ``trace``/``metrics``: one observed instance run."""
    from repro.engine.engine import ProcessEngine
    from repro.obs import InMemorySpanExporter, Observability

    model = _load_model(args.file)
    exporter = InMemorySpanExporter()
    obs = Observability(enabled=True, exporters=[exporter])
    engine = ProcessEngine(obs=obs)
    engine.deploy(model)
    variables = dict(_parse_var(raw) for raw in getattr(args, "var", None) or [])
    instance = engine.start_instance(model.key, variables)
    return engine, instance, exporter


def cmd_trace(args: argparse.Namespace) -> int:
    engine, instance, exporter = _traced_run(args)
    print(f"instance  : {instance.id}")
    print(f"state     : {instance.state.value}")
    print("spans     :")
    print(exporter.render_tree())
    if args.jsonl:
        from repro.obs import JsonLinesSpanExporter

        try:
            sink = JsonLinesSpanExporter(args.jsonl)
        except OSError as exc:
            raise SystemExit(f"error: cannot write {args.jsonl}: {exc}")
        for span in exporter.spans:
            sink.export(span)
        sink.close()
        print(f"wrote     : {sink.exported} spans to {args.jsonl}")
    return 0 if instance.state.value in ("completed", "running") else 1


def cmd_metrics(args: argparse.Namespace) -> int:
    engine, instance, _ = _traced_run(args)
    snapshot = engine.obs.registry.snapshot()
    if args.json:
        print(json.dumps(snapshot, indent=2, sort_keys=True))
        return 0
    print(f"instance  : {instance.id} ({instance.state.value})")
    print("counters  :")
    for name, value in snapshot["counters"].items():
        print(f"  {name:<44} {value}")
    print("gauges    :")
    for name, value in snapshot["gauges"].items():
        print(f"  {name:<44} {value}")
    print("histograms:")
    for name, data in snapshot["histograms"].items():
        mean = data["mean"]
        print(
            f"  {name:<44} count={data['count']}"
            + (f" mean={mean * 1000:.3f}ms max={data['max'] * 1000:.3f}ms"
               if data["count"] else "")
        )
    return 0


def cmd_mine(args: argparse.Namespace) -> int:
    from repro.mining.alpha import alpha_miner
    from repro.mining.conformance import token_replay
    from repro.mining.dfg import DirectlyFollowsGraph
    from repro.mining.heuristics import heuristics_miner

    try:
        with open(args.file, encoding="utf-8") as fh:
            payload = fh.read()
    except FileNotFoundError:
        raise SystemExit(f"error: no such file: {args.file}")
    if args.file.endswith(".xes") or payload.lstrip().startswith("<"):
        from repro.history.xes import XesParseError, parse_xes

        try:
            log = parse_xes(payload)
        except XesParseError as exc:
            raise SystemExit(f"error: not an XES file: {exc}")
    else:
        try:
            log = EventLog.from_json(payload)
        except (json.JSONDecodeError, KeyError) as exc:
            raise SystemExit(f"error: not an EventLog JSON file: {exc}")

    print(f"log       : {len(log)} traces, {len(log.variants())} variants, "
          f"{len(log.activities)} activities")
    dfg = DirectlyFollowsGraph.from_log(log)
    print("top edges :")
    for a, b, count in dfg.edges()[:8]:
        print(f"  {a} -> {b}  ({count})")
    net = alpha_miner(log)
    replay = token_replay(net, log)
    print(f"alpha net : |P|={len(net.places)} |T|={len(net.transitions)} "
          f"fitness={replay.fitness:.3f}")
    graph = heuristics_miner(log, dependency_threshold=args.threshold)
    print(f"heuristics: {len(graph.dependencies)} dependencies "
          f"at threshold {args.threshold}")
    if args.footprint:
        from repro.mining.footprint import FootprintMatrix

        print("footprint :")
        print(FootprintMatrix.from_log(log).render())
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    from repro.model.render import to_ascii, to_dot

    model = _load_model(args.file)
    if args.format == "dot":
        print(to_dot(model))
    else:
        print(to_ascii(model))
    return 0


def cmd_commands(args: argparse.Namespace) -> int:
    from repro.engine.commands import COMMAND_TYPES

    registry = [
        {
            "command": name,
            "external": cls.external,
            "fields": [f for f in cls.__dataclass_fields__],
        }
        for name, cls in sorted(COMMAND_TYPES.items())
    ]
    history = None
    if args.store:
        from repro.engine.dispatch import DISPATCH_PREFIX

        with _open_stores([("store", args.store)]) as [(_, store)]:
            history = sorted(
                (raw for _, raw in store.scan(DISPATCH_PREFIX)),
                key=lambda r: r.get("seq", 0),
            )
        if args.limit:
            history = history[-args.limit:]
    if args.json:
        payload = {"commands": registry}
        if history is not None:
            payload["history"] = history
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print("registered command types:")
    for entry in registry:
        kind = "external" if entry["external"] else "internal"
        print(f"  {entry['command']:<22} [{kind}]  "
              f"fields: {', '.join(entry['fields']) or '(none)'}")
    if history is not None:
        print(f"dispatch history ({len(history)} entries):")
        for record in history:
            dedup = record.get("dedup_key")
            print(
                f"  #{record.get('seq', '?'):>4} {record.get('name', '?'):<22} "
                f"status={record.get('status', '?'):<8} "
                f"depth={record.get('depth', '?')} "
                f"at={record.get('at', 0):.3f}"
                + (f" dedup_key={dedup}" if dedup is not None else "")
            )
    return 0


def _view_image(store: Any) -> tuple[Any, int | None]:
    """A ``ProjectionManager`` holding one store's persisted read-model
    image as it stands, and the image's cursor."""
    from repro.views.manager import ProjectionManager

    manager = ProjectionManager()
    cursor, _ = manager.load(store)
    return manager, cursor


def cmd_cluster_status(args: argparse.Namespace) -> int:
    """Offline inspection of a sharded cluster's store directories.

    Expects the bench/test layout: one ``shard-<n>`` DurableKV directory
    per shard under ``--store``.  Reads each partition's persisted
    topology record and per-record state counts without an engine.
    """
    from repro.cluster.outbox import OUTBOX_PREFIX
    from repro.engine.dispatch import DISPATCH_PREFIX
    from repro.engine.instance import INSTANCE_PREFIX
    from repro.engine.jobs import JOBS_PREFIX
    from repro.views.rebuild import stored_dispatch_seq
    from repro.worklist.service import WORKITEM_PREFIX

    shards = _store_paths(args.store)
    if shards == [("store", args.store)]:
        raise SystemExit(f"error: no shard-* store directories under {args.store}")
    rows = []
    with _open_stores(shards) as stores:
        for directory, store in stores:
            # prefer the read models when fresh (the image cursor at the
            # store's dispatch seq): they answer the census without
            # scanning every instance — the CQRS win, offline too
            views, cursor = _view_image(store)
            fresh = cursor == stored_dispatch_seq(store)
            if fresh:
                by_state = views.instance_counts()
            else:
                by_state = {}
                for _, raw in store.scan(INSTANCE_PREFIX):
                    state = raw.get("state", "?")
                    by_state[state] = by_state.get(state, 0) + 1
            row = {
                "directory": directory,
                "topology": store.get("cluster/meta", None),
                "instances": sum(by_state.values()),
                "by_state": by_state,
                "jobs": len(store.keys(JOBS_PREFIX)),
                "workitems": len(store.keys(WORKITEM_PREFIX)),
                "commands": len(store.keys(DISPATCH_PREFIX)),
                # outbox records persisted but not yet drained to their
                # target shard — nonzero after a crash means recovery will
                # redeliver these cross-shard messages
                "pending_forwards": len(store.keys(OUTBOX_PREFIX)),
                # what a restart replays vs what the last checkpoint holds
                # (the store checkpoints itself only from begin(); this
                # command never writes, so it never triggers one)
                "journal_bytes": store.journal_size,
                "snapshot_bytes": store.snapshot_size,
                "live_keys": len(store),
            }
            if fresh:
                row["views"] = {
                    "seq": cursor,
                    "open_work_items": views.open_work_items(),
                }
            rows.append(row)
    widths = {row["topology"]["shards"] for row in rows if row["topology"]}
    consistent = (
        len(widths) == 1
        and len(rows) == next(iter(widths))
        and all(
            row["topology"] and row["topology"].get("shard") == index
            for index, row in enumerate(rows)
        )
    )
    if args.json:
        print(
            json.dumps(
                {"consistent": consistent, "shards": rows},
                indent=2,
                sort_keys=True,
            )
        )
        return 0 if consistent else 1
    print(
        f"cluster   : {len(rows)} shard store(s), topology "
        + ("consistent" if consistent else "INCONSISTENT")
    )
    for index, row in enumerate(rows):
        states = ", ".join(
            f"{state}={count}" for state, count in sorted(row["by_state"].items())
        )
        recorded = row["topology"]
        tag = (
            f"{recorded.get('shard')}/{recorded.get('shards')}"
            if recorded
            else "missing"
        )
        print(
            f"  shard {index} ({row['directory']}, topology {tag}): "
            f"instances={row['instances']}"
            + (f" [{states}]" if states else "")
            + f" jobs={row['jobs']} workitems={row['workitems']}"
            f" commands={row['commands']}"
            f" journal_bytes={row['journal_bytes']}"
            f" snapshot_bytes={row['snapshot_bytes']}"
            f" live_keys={row['live_keys']}"
            + (
                f" pending_forwards={row['pending_forwards']}"
                if row["pending_forwards"]
                else ""
            )
            + (
                f" open_work_items={row['views']['open_work_items']}"
                f" (views@{row['views']['seq']})"
                if "views" in row
                else ""
            )
        )
    return 0 if consistent else 1


def cmd_dlq_list(args: argparse.Namespace) -> int:
    """Offline listing of dead-lettered invocations in one or N stores."""
    from repro.workers.ledger import DLQ_PREFIX

    rows = []
    with _open_stores(_store_paths(args.store)) as stores:
        for label, store in stores:
            for _, raw in store.scan(DLQ_PREFIX):
                entry = dict(raw)
                entry["store"] = label
                rows.append(entry)
    rows.sort(key=lambda r: (r.get("failed_at", 0.0), r.get("id", "")))
    if args.json:
        print(json.dumps({"dead_letters": rows}, indent=2, sort_keys=True))
        return 0
    if not rows:
        print("dead-letter queue is empty")
        return 0
    print(f"{len(rows)} dead-lettered invocation(s):")
    for row in rows:
        print(
            f"  {row.get('id', '?'):<14} service={row.get('service', '?'):<16} "
            f"instance={row.get('instance_id', '?'):<12} "
            f"attempts={row.get('attempts', '?')} "
            f"requeues={row.get('requeues', 0)} "
            f"error={row.get('error', '')!r}"
        )
    return 0


def cmd_dlq_show(args: argparse.Namespace) -> int:
    """Full record of one dead-lettered invocation."""
    from repro.workers.ledger import DLQ_PREFIX

    with _open_stores(_store_paths(args.store)) as stores:
        for label, store in stores:
            raw = store.get(DLQ_PREFIX + args.invocation_id, None)
            if raw is not None:
                payload = dict(raw)
                payload["store"] = label
                print(json.dumps(payload, indent=2, sort_keys=True))
                return 0
    raise SystemExit(
        f"error: no dead-lettered invocation {args.invocation_id!r} "
        f"under {args.store}"
    )


def cmd_dlq_requeue(args: argparse.Namespace) -> int:
    """Move a dead-lettered invocation back to the pending table, offline.

    The record's ``requeues`` counter increments (so its completion dedup
    key is fresh) and the move is one store transaction; the owning
    engine re-enqueues it to the pool on its next ``recover()``.
    """
    from repro.workers.ledger import DLQ_PREFIX, INVOCATION_PREFIX
    from repro.workers.records import InvocationRecord

    with _open_stores(_store_paths(args.store), writable=True) as stores:
        for _label, store in stores:
            raw = store.get(DLQ_PREFIX + args.invocation_id, None)
            if raw is None:
                continue
            record = InvocationRecord.from_dict(raw)
            record.requeues += 1
            with store.transaction():
                store.delete(DLQ_PREFIX + record.id)
                store.put(INVOCATION_PREFIX + record.id, record.to_dict())
            store.sync()
            print(
                f"requeued {record.id} (service={record.service}, "
                f"requeues={record.requeues}); it will run on the owning "
                f"engine's next recovery"
            )
            return 0
    raise SystemExit(
        f"error: no dead-lettered invocation {args.invocation_id!r} "
        f"under {args.store}"
    )


def cmd_views_status(args: argparse.Namespace) -> int:
    """The image cursor, record counts, and lag for one or N stores."""
    from repro.views.rebuild import stored_dispatch_seq

    rows = []
    with _open_stores(_store_paths(args.store)) as stores:
        for label, store in stores:
            dispatch_seq = stored_dispatch_seq(store)
            manager, cursor = _view_image(store)
            rows.append(
                {
                    "store": label,
                    "dispatch_seq": dispatch_seq,
                    "cursor": cursor,
                    "records": manager.status()["projections"],
                    "lag": None if cursor is None else dispatch_seq - cursor,
                }
            )
    if args.json:
        print(json.dumps({"stores": rows}, indent=2, sort_keys=True))
        return 0
    for row in rows:
        if row["cursor"] is None:
            print(
                f"{row['store']}: no view cursor "
                f"(dispatch_seq={row['dispatch_seq']}) — run `repro views "
                f"rebuild` or recover an engine over it"
            )
            continue
        print(
            f"{row['store']}: dispatch_seq={row['dispatch_seq']} "
            f"cursor={row['cursor']} lag={row['lag']}"
        )
        for name, count in row["records"].items():
            print(f"  {name:<10} records={count}")
    return 0


def cmd_views_query(args: argparse.Namespace) -> int:
    """Query persisted view records offline (no engine, no recovery).

    Cross-store results merge exactly like a live cluster's: instance
    lists interleave by creation rank, analytics aggregate across shards.
    """
    from repro.views.cluster import merge_definition_stats
    from repro.views.projections import creation_rank

    if args.view == "by_key" and args.key is None:
        raise SystemExit("error: --key is required for the by_key view")
    with _open_stores(_store_paths(args.store)) as stores:
        # the tables read finished-tier pages from the open stores
        managers = [_view_image(store)[0] for _, store in stores]

        def records(table: str) -> list[dict[str, Any]]:
            found = [
                getattr(manager, table).record(entity_id)
                for manager in managers
                for entity_id in getattr(manager, table).ids(args.state)
            ]
            return sorted(found, key=lambda r: (r["rank"], r["id"]))

        payload: dict[str, Any]
        if args.view == "by_state":
            payload = {"instances": records("by_state")}
        elif args.view == "by_key":
            ids = [i for m in managers for i in m.ids_for_business_key(args.key)]
            ids.sort(key=lambda i: (creation_rank(i), i))
            payload = {"business_key": args.key, "ids": ids}
        elif args.view == "def_stats":
            merged = merge_definition_stats(m.definition_stats() for m in managers)
            payload = {
                "definitions": {
                    name: record
                    for name, record in merged.items()
                    if args.definition in (None, name)
                }
            }
        else:  # worklist
            roles: dict[str, int] = {}
            for manager in managers:
                for role, count in manager.open_by_role().items():
                    roles[role] = roles.get(role, 0) + count
            payload = {
                "open": sum(manager.open_work_items() for manager in managers),
                "roles": {role: roles[role] for role in sorted(roles)},
                "items": records("worklist"),
            }
        print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_views_rebuild(args: argparse.Namespace) -> int:
    """Offline full view rebuild by store replay (linear in size)."""
    from repro.views.rebuild import rebuild_store_views

    with _open_stores(_store_paths(args.store), writable=True) as stores:
        for label, store in stores:
            counts = rebuild_store_views(store)
            print(
                f"{label}: rebuilt {counts['records']} view record(s) from "
                f"{counts['instances']} instance(s) and {counts['work_items']} "
                f"work item(s) at seq {counts['seq']}"
                + (
                    f", deleted {counts['deleted']} stale"
                    if counts["deleted"]
                    else ""
                )
            )
    return 0


def cmd_patterns(args: argparse.Namespace) -> int:
    from repro.patterns.catalog import PATTERNS

    for spec in PATTERNS:
        mark = "yes" if spec.supported else " no"
        print(f"{spec.number:>2} [{mark}] {spec.name:<30} {spec.note}")
    total = sum(1 for p in PATTERNS if p.supported)
    print(f"supported: {total}/20")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="BPMS command-line tools"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="validate a BPMN model")
    p_validate.add_argument("file")
    p_validate.add_argument("--soundness", action="store_true",
                            help="also run the WF-net soundness check")
    p_validate.add_argument("--max-states", type=int, default=100_000)
    p_validate.set_defaults(func=cmd_validate)

    p_lint = sub.add_parser(
        "lint", help="static analysis: data-flow, anti-patterns, references"
    )
    p_lint.add_argument(
        "file",
        help="a BPMN file, or with --deployment a directory of *.bpmn "
             "files / a DurableKV store / a cluster of shard-<n> stores",
    )
    p_lint.add_argument("--json", action="store_true",
                        help="machine-readable report")
    p_lint.add_argument("--format", choices=("console", "json"),
                        default="console",
                        help="output format (--format json == --json)")
    p_lint.add_argument("--deployment", action="store_true",
                        help="lint a whole deployment: per-model rules plus "
                             "interprocess message/call checks (MSG*/CALL*/"
                             "CHOR*) across every definition")
    p_lint.add_argument("--no-behavioral", action="store_true",
                        help="skip the state-space (SND*) rules")
    p_lint.add_argument("--max-states", type=int, default=50_000)
    p_lint.add_argument("--fail-on", default="error",
                        choices=("error", "warning", "info", "never"),
                        help="lowest severity that causes exit code 1")
    p_lint.add_argument("--baseline", metavar="FILE",
                        help="JSON list of known 'RULE:element' fingerprints "
                             "to ignore ('KEY::RULE:element' in deployment "
                             "mode)")
    p_lint.add_argument("--write-baseline", action="store_true",
                        help="regenerate the --baseline file from the "
                             "current findings instead of reporting")
    p_lint.add_argument("--service", action="append", metavar="NAME",
                        help="declare a registered service (enables REF001)")
    p_lint.add_argument("--role", action="append", metavar="NAME",
                        help="declare a staffed role (enables REF002)")
    p_lint.add_argument("--decision", action="append", metavar="NAME",
                        help="declare a decision table (enables REF003)")
    p_lint.add_argument("--process-key", action="append", metavar="KEY",
                        help="declare a deployed process key (enables REF004)")
    p_lint.set_defaults(func=cmd_lint)

    p_info = sub.add_parser("info", help="summarize a BPMN model")
    p_info.add_argument("file")
    p_info.set_defaults(func=cmd_info)

    p_run = sub.add_parser("run", help="run one instance of an automated model")
    p_run.add_argument("file")
    p_run.add_argument("--var", action="append", metavar="NAME=VALUE")
    p_run.set_defaults(func=cmd_run)

    p_trace = sub.add_parser(
        "trace", help="run one instance with tracing on; print the span tree"
    )
    p_trace.add_argument("file")
    p_trace.add_argument("--var", action="append", metavar="NAME=VALUE")
    p_trace.add_argument("--jsonl", metavar="OUT",
                         help="also write the spans as JSON lines")
    p_trace.set_defaults(func=cmd_trace)

    p_metrics = sub.add_parser(
        "metrics", help="run one instance; print the metrics snapshot"
    )
    p_metrics.add_argument("file")
    p_metrics.add_argument("--var", action="append", metavar="NAME=VALUE")
    p_metrics.add_argument("--json", action="store_true",
                           help="print the snapshot as JSON")
    p_metrics.set_defaults(func=cmd_metrics)

    p_mine = sub.add_parser(
        "mine", help="discovery summary for an event log (JSON or XES)"
    )
    p_mine.add_argument("file")
    p_mine.add_argument("--threshold", type=float, default=0.9)
    p_mine.add_argument("--footprint", action="store_true",
                        help="also print the footprint matrix")
    p_mine.set_defaults(func=cmd_mine)

    p_render = sub.add_parser("render", help="render a model (dot/ascii)")
    p_render.add_argument("file")
    p_render.add_argument("--format", choices=("dot", "ascii"), default="ascii")
    p_render.set_defaults(func=cmd_render)

    p_patterns = sub.add_parser("patterns", help="pattern support matrix")
    p_patterns.set_defaults(func=cmd_patterns)

    p_chor = sub.add_parser(
        "choreography",
        help="render a deployment's message/call graph (channels, call "
             "edges, recursion cycles)",
    )
    p_chor.add_argument(
        "path",
        help="directory of *.bpmn files, a DurableKV store, or a cluster "
             "directory of shard-<n> stores",
    )
    p_chor.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    p_chor.set_defaults(func=cmd_choreography)

    p_commands = sub.add_parser(
        "commands",
        help="list command types; with --store, dump dispatch history",
    )
    p_commands.add_argument(
        "--store", metavar="DIR",
        help="DurableKV directory to read the dispatch log from",
    )
    p_commands.add_argument(
        "--limit", type=int, default=0, metavar="N",
        help="show only the last N history entries",
    )
    p_commands.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    p_commands.set_defaults(func=cmd_commands)

    p_cluster = sub.add_parser(
        "cluster", help="sharded-runtime tools (see repro.cluster)"
    )
    cluster_sub = p_cluster.add_subparsers(dest="cluster_command", required=True)
    p_cluster_status = cluster_sub.add_parser(
        "status", help="inspect a cluster's shard-<n> store directories"
    )
    p_cluster_status.add_argument(
        "--store", required=True, metavar="DIR",
        help="directory containing one shard-<n> DurableKV per shard",
    )
    p_cluster_status.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    p_cluster_status.set_defaults(func=cmd_cluster_status)

    p_dlq = sub.add_parser(
        "dlq", help="dead-letter queue tools (see repro.workers)"
    )
    dlq_sub = p_dlq.add_subparsers(dest="dlq_command", required=True)
    p_dlq_list = dlq_sub.add_parser(
        "list", help="list dead-lettered invocations in a store directory"
    )
    p_dlq_list.add_argument(
        "--store", required=True, metavar="DIR",
        help="DurableKV directory, or a cluster directory of shard-<n> stores",
    )
    p_dlq_list.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    p_dlq_list.set_defaults(func=cmd_dlq_list)
    p_dlq_show = dlq_sub.add_parser(
        "show", help="print one dead-lettered invocation record"
    )
    p_dlq_show.add_argument("invocation_id")
    p_dlq_show.add_argument("--store", required=True, metavar="DIR")
    p_dlq_show.set_defaults(func=cmd_dlq_show)
    p_dlq_requeue = dlq_sub.add_parser(
        "requeue",
        help="move a dead-lettered invocation back to pending (offline)",
    )
    p_dlq_requeue.add_argument("invocation_id")
    p_dlq_requeue.add_argument("--store", required=True, metavar="DIR")
    p_dlq_requeue.set_defaults(func=cmd_dlq_requeue)

    p_views = sub.add_parser(
        "views", help="read-model projection tools (see repro.views)"
    )
    views_sub = p_views.add_subparsers(dest="views_command", required=True)
    p_views_status = views_sub.add_parser(
        "status", help="the view image cursor, record counts, and lag"
    )
    p_views_status.add_argument(
        "--store", required=True, metavar="DIR",
        help="DurableKV directory, or a cluster directory of shard-<n> stores",
    )
    p_views_status.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    p_views_status.set_defaults(func=cmd_views_status)
    p_views_query = views_sub.add_parser(
        "query", help="query persisted view records offline"
    )
    p_views_query.add_argument(
        "view", choices=("by_state", "by_key", "def_stats", "worklist"),
    )
    p_views_query.add_argument("--store", required=True, metavar="DIR")
    p_views_query.add_argument(
        "--state", metavar="STATE",
        help="filter by_state/worklist records by state",
    )
    p_views_query.add_argument(
        "--key", metavar="BUSINESS_KEY", help="business key for by_key"
    )
    p_views_query.add_argument(
        "--definition", metavar="KEY", help="filter def_stats by definition"
    )
    p_views_query.set_defaults(func=cmd_views_query)
    p_views_rebuild = views_sub.add_parser(
        "rebuild",
        help="rebuild the view tables by store replay (offline, full scan)",
    )
    p_views_rebuild.add_argument("--store", required=True, metavar="DIR")
    p_views_rebuild.set_defaults(func=cmd_views_rebuild)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
