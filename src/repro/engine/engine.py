"""The process engine: deployment, instances, timers, messages, recovery.

Typical wiring::

    engine = ProcessEngine()                  # volatile, wall clock
    engine.services.register("charge", charge_card)
    engine.organization.add("ana", roles=["clerk"])
    engine.deploy(model)
    instance = engine.start_instance("order", {"amount": 120})

For durability pass a :class:`~repro.storage.kvstore.DurableKV`; after a
crash, construct an engine over the same store (with services re-registered
— code is not persisted, state is) and call :meth:`ProcessEngine.recover`.

Persistence is incremental: the engine and its components record every
changed record in one shared :class:`~repro.storage.writeset.WriteSet`,
a flush commits exactly that set in one transaction, and the commit
policy decides when flushes happen — per call (default), every
``commit_interval`` records, or once per :meth:`ProcessEngine.batch`
block (group commit for bulk traffic).

Every public mutation is a typed :class:`~repro.engine.commands.Command`
executed through :meth:`ProcessEngine.dispatch` — one path carrying the
serialization gate (thread safety), idempotent dedup keys, observability,
the dispatch log, and the commit policy.  The public mutation methods
are the thin command constructors of
:class:`~repro.engine.commands.CommandClient`; node semantics live in
:mod:`repro.engine.executors` and the interpreter core in
:mod:`repro.engine.execution`.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Callable

from repro.clock import Clock, VirtualClock, WallClock
from repro.engine import commands as cmds
from repro.engine import execution as core
from repro.engine.commands import Command, CommandClient
from repro.engine.dispatch import DISPATCH_PREFIX, DispatchLog, Dispatcher
from repro.engine.errors import (
    DefinitionNotFoundError,
    EngineError,
    IllegalInstanceStateError,
    InstanceNotFoundError,
)
from repro.engine.executors import events, gateways, tasks
from repro.engine.executors.subprocesses import on_mi_child_finished
from repro.engine.instance import (
    INSTANCE_PREFIX,
    InstanceState,
    ProcessInstance,
    TokenState,
)
from repro.engine.jobs import JOBS_PREFIX, JobScheduler
from repro.engine.migration import MigrationPlan, apply_migration
from repro.engine.waits import WAIT_PREFIX, MessageWait, MessageWaits
from repro.history.audit import HistoryService
from repro.history.events import EventTypes
from repro.model.process import ProcessDefinition
from repro.model.serialization import definition_from_dict, definition_to_dict
from repro.obs import Observability
from repro.obs.spans import Span
from repro.services.bus import Message, MessageBus
from repro.services.invoker import ServiceInvoker
from repro.services.registry import ServiceRegistry
from repro.storage.kvstore import KeyValueStore, MemoryKV
from repro.storage.writeset import Sequences, WriteSet
from repro.workers.ledger import DLQ_PREFIX, INVOCATION_PREFIX, InvocationLedger
from repro.worklist.allocation import Allocator
from repro.worklist.items import WorkItem
from repro.worklist.resources import OrganizationalModel
from repro.worklist.service import WORKITEM_PREFIX, WorklistService

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.views.manager import ProjectionManager

#: store-key family of deployed definitions (``definition/<key>:<version>``)
DEFINITION_PREFIX = "definition/"
#: store-key family of the engine's singleton records: ``engine/meta``
#: (id sequences) and ``engine/latest_versions``
ENGINE_PREFIX = "engine/"
#: job kind -> what fires it, kept beside the code that schedules that kind
JOB_KINDS = {
    "timer": events.fire_timer,
    "boundary_timer": core.fire_boundary_timer,
    "async_service": tasks.fire_async_service,
    "event_race_timer": gateways.fire_race_timer,
}


class ProcessEngine(CommandClient):
    """The workflow enactment service."""

    def __init__(
        self,
        clock: Clock | None = None,
        store: KeyValueStore | None = None,
        history: HistoryService | None = None,
        organization: OrganizationalModel | None = None,
        allocator: Allocator | None = None,
        services: ServiceRegistry | None = None,
        bus: MessageBus | None = None,
        obs: Observability | None = None,
        strict_references: bool = False,
        commit_interval: int = 1,
        dispatch_log_retention: int = 256,
        shard_tag: str = "",
    ) -> None:
        """``commit_interval`` sets the durable commit policy: ``1``
        (default) flushes dirty state after every public API call
        (autocommit); ``n > 1`` defers until at least ``n`` dirty records
        accumulate — call :meth:`flush` (or use :meth:`batch`) to force a
        commit earlier.  ``dispatch_log_retention`` bounds the persisted
        command log and with it the idempotency (dedup-key) window.
        ``shard_tag`` (e.g. ``"s2"``, set by the cluster layer) namespaces
        generated instance and work-item ids (``order-s2-7``, ``wi-s2-3``)
        so several engines can coexist without id collisions.  The read
        models of :mod:`repro.views` (:attr:`views`) are the engine's one
        instance and work-item index, maintained write-behind: commits
        note touched entity ids, reads materialize them, and the
        ``view/…`` records persist inside the first group commit after
        the stored image lags a quarter of ``dispatch_log_retention``
        dispatch seqs (always within the tail-replay window) — forced
        flushes persist unconditionally.  See DESIGN.md
        §Persistence & commit policies, §Command pipeline, and §Read
        models."""
        # `is None` checks throughout: several of these are container-like
        # (empty store/org would be falsy under `or`)
        self.clock = clock if clock is not None else WallClock()
        self.obs = obs if obs is not None else Observability()
        self.obs.bind_clock(self.clock)
        self.store = store if store is not None else MemoryKV()
        self.history = (
            history if history is not None else HistoryService(clock=self.clock)
        )
        self.organization = (
            organization if organization is not None else OrganizationalModel()
        )
        self.services = services if services is not None else ServiceRegistry()
        self.bus = bus if bus is not None else MessageBus()
        self.strict_references = strict_references
        self.shard_tag = shard_tag
        self._id_ns = f"{shard_tag}-" if shard_tag else ""

        from repro.cluster.outbox import OUTBOX_PREFIX, Outbox  # cycle guard
        from repro.decisions.table import DecisionRegistry
        from repro.views.manager import VIEW_PREFIX, ProjectionManager  # cycle guard

        # every record changed since the last commit, whoever owns it:
        # the components below write into this one set at mutation time
        # and _flush commits it whole (families in this order)
        self._writes = WriteSet(
            (
                DEFINITION_PREFIX,
                INSTANCE_PREFIX,
                JOBS_PREFIX,
                WORKITEM_PREFIX,
                DISPATCH_PREFIX,
                INVOCATION_PREFIX,
                DLQ_PREFIX,
                OUTBOX_PREFIX,
                WAIT_PREFIX,
                ENGINE_PREFIX,
                VIEW_PREFIX,
            )
        )
        self._seqs = Sequences(
            self._writes,
            ENGINE_PREFIX,
            "meta",
            ("instance_seq", "invocation_seq", "outbox_seq"),
        )
        self.decisions = DecisionRegistry()
        self.scheduler = JobScheduler()
        self.scheduler.bind_writes(self._writes)
        self.worklist = WorklistService(
            organization=self.organization,
            allocator=allocator,
            clock=self.clock,
            history=self.history,
            obs=self.obs,
            id_namespace=shard_tag,
        )
        self.worklist.bind_writes(self._writes)
        self.worklist.on_completion(self._on_work_item_completed)
        self.invoker = ServiceInvoker(self.services, clock=self.clock, obs=self.obs)
        # observability wiring: cached instruments for the hot loop, the
        # engine root span, and per-instance spans (ended on finish)
        self._tracer = self.obs.tracer  # hot-loop alias
        counter = self.obs.registry.counter
        self._c_started = counter("engine.instances_started")
        self._c_completed = counter("engine.instances_completed")
        self._c_failed = counter("engine.instances_failed")
        self._c_terminated = counter("engine.instances_terminated")
        self._c_timers_fired = counter("engine.timers_fired")
        self._c_messages_delivered = counter("engine.messages_delivered")
        self._c_migrations = counter("engine.migrations")
        self._c_token_moves = counter("engine.token_moves")
        self._c_lint_warnings = counter("engine.lint.warnings")
        self._c_lint_blocked = counter("engine.lint.deploy_blocked")
        self._c_interproc_warnings = counter("engine.lint.interproc_warnings")
        self._c_interproc_blocked = counter("engine.lint.interproc_blocked")
        # created lazily on first deploy (keeps repro.analysis off the
        # import path of engine construction)
        self._analysis_cache: Any | None = None
        self._g_queue_depth = self.obs.registry.gauge("engine.scheduler.queue_depth")
        self._c_jobs_orphaned = counter("engine.jobs.orphaned")
        self._c_flush_commits = counter("engine.flush.commits")
        self._c_flush_records = counter("engine.flush.records_written")
        self._h_flush_batch = self.obs.registry.histogram(
            "engine.flush.batch_records",
            (1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 1000.0),
        )
        self._c_commands = counter("engine.commands.dispatched")
        self._c_commands_deduped = counter("engine.commands.deduped")
        self._c_inv_duplicates = counter("workers.duplicate_completions")
        self._c_compensations = counter("engine.compensations")
        # per-name counters, created on first use
        self._command_counters: dict[str, Any] = {}
        self._node_counters: dict[str, Any] = {}
        self._instance_spans: dict[str, Span] = {}
        self._engine_span: Span | None = (
            self.obs.tracer.start_span("engine") if self.obs.enabled else None
        )

        self._definitions: dict[str, ProcessDefinition] = {}
        self._latest_version: dict[str, int] = {}
        # every instance object this engine created or read through (one
        # per id): after a restart only the live cases until first use, so
        # a miss on .get() is a finished case — or none — and the lookups
        # that treat both alike (skip / resume nothing) need no read
        self._instances: dict[str, ProcessInstance] = {}
        self.waits = MessageWaits(self._writes)
        self._reach_cache: dict[str, dict[tuple[str, str], bool]] = {}
        self._advancing: set[str] = set()
        # the commit policy and the batch() nesting depth
        self._commit_interval = max(1, int(commit_interval))
        self._batch_depth = 0
        # asynchronous service execution (see repro.workers): the ledger
        # of pending invocations and dead letters, and the attached pool
        self.workers = None  # type: Any
        self.ledger = InvocationLedger(
            self._writes, self._seqs, self.obs.registry, f"inv-{self._id_ns}"
        )
        # cross-shard forwarding outbox (see repro.cluster.outbox): send
        # task messages no local wait took, claimed under this shard's
        # dispatch lock, persisted in the same group commit as the claiming
        # dispatch and deleted only after the target shard's delivery
        # flushed
        self.outbox = Outbox(self._writes, self._seqs, shard_tag, self.clock)
        # its deletes are garbage collection: see has_pending_writes()
        self._gc_family = OUTBOX_PREFIX
        # the command pipeline: a single re-entrant serialization gate
        # shared with the worklist, and the bounded persisted dispatch log
        # with its idempotency window
        self._dispatch_lock = threading.RLock()
        self.worklist.bind_lock(self._dispatch_lock)
        self.dispatch_log = DispatchLog(self._writes, dispatch_log_retention)
        self._dispatcher = Dispatcher(
            self, handlers=self._command_handlers(), lock=self._dispatch_lock
        )
        # the CQRS read side (repro.views) and the one instance and
        # work-item index: write-behind materialized projections whose
        # records persist inside the same store transaction as a group
        # commit, so the read models are never ahead of durable state; the
        # persist cadence is bounded by the tail-replay window (recovery
        # re-applies the stamped log tail)
        self.views: ProjectionManager = ProjectionManager(obs=self.obs)
        self.views.bind(self)
        self.worklist.bind_index(self.store, self.views.work_item_ids)
        self._drain_every = max(1, self.dispatch_log.retention // 4)

    # -- the command pipeline --------------------------------------------------

    def dispatch(self, command: Command) -> Any:
        """Execute a typed command through the dispatch path.

        This is the single mutation path: serialization gate →
        idempotency → observability → handler → dispatch log → commit
        policy.  All public mutation methods below delegate here.
        """
        return self._dispatcher.dispatch(command)

    def _command_handlers(self) -> dict[type[Command], Callable[[Any], Any]]:
        return {
            cmds.DeployDefinition: self._handle_deploy,
            cmds.StartInstance: self._handle_start_instance,
            cmds.TerminateInstance: self._handle_terminate_instance,
            cmds.CompensateInstance: self._handle_compensate_instance,
            cmds.SuspendInstance: self._handle_suspend_instance,
            cmds.ResumeInstance: self._handle_resume_instance,
            cmds.MigrateInstance: self._handle_migrate_instance,
            cmds.ClaimWorkItem: self._handle_claim_work_item,
            cmds.StartWorkItem: self._handle_start_work_item,
            cmds.CompleteWorkItem: self._handle_complete_work_item,
            cmds.CorrelateMessage: self._handle_correlate_message,
            cmds.RunDueJobs: self._handle_run_due_jobs,
            cmds.AdvanceTime: self._handle_advance_time,
            cmds.CompleteServiceInvocation: self._handle_complete_invocation,
            cmds.RequeueDeadLetter: self._handle_requeue_dead_letter,
        }

    def dispatch_history(self, limit: int | None = None) -> list[dict[str, Any]]:
        """Recent dispatch-log entries, oldest first (``repro commands``)."""
        return self.dispatch_log.history(limit)

    def _touch(self, instance: ProcessInstance) -> None:
        """Mark an instance changed: its record joins the next commit."""
        self._writes.put(INSTANCE_PREFIX, instance.id, instance.to_dict)

    # -- deployment -----------------------------------------------------------

    def _handle_deploy(self, cmd: cmds.DeployDefinition) -> str:
        from repro.analysis import AnalysisCache, AnalysisContext, Severity, analyze
        from repro.analysis.deployment import candidate_findings

        definition = cmd.definition
        if cmd.pre_verified:
            return self._register_deployment(definition)
        # unless strict_references, unresolved references (REF00x, and
        # CALL001: call target not deployed) are warnings — registration
        # and deploy order are legitimate workflows
        overrides = interproc_overrides = None
        if not self.strict_references:
            overrides = {
                rule_id: Severity.WARNING
                for rule_id in ("REF001", "REF002", "REF003", "REF004")
            }
            interproc_overrides = {"CALL001": Severity.WARNING}
        report = analyze(
            definition,
            context=AnalysisContext.from_engine(self),
            behavioral=bool(cmd.verify),
            severity_overrides=overrides,
        )
        self._emit_findings("lint.diagnostic", definition, report.diagnostics)
        self._c_lint_warnings.inc(len(report.warnings))
        if self._analysis_cache is None:
            self._analysis_cache = AnalysisCache()
        interproc = candidate_findings(
            definition,
            (
                self._definitions[f"{key}:{version}"]
                for key, version in self._latest_version.items()
            ),
            self._analysis_cache,
            interproc_overrides,
        )
        self._emit_findings("lint.interproc", definition, interproc)
        self._c_interproc_warnings.inc(
            sum(1 for d in interproc if d.severity is Severity.WARNING)
        )
        if not report.ok and not cmd.force:
            behavioural_rules = {"SND001", "SND002", "SND003", "SND005"}
            structural = [
                d for d in report.errors if d.rule not in behavioural_rules
            ]
            self._c_lint_blocked.inc()
            raise EngineError(
                f"definition {definition.key!r} "
                f"{'invalid' if structural else 'unsound'}: "
                + _describe(structural if structural else report.errors)
            )
        interproc_errors = [
            d for d in interproc if d.severity is Severity.ERROR
        ]
        if interproc_errors and not cmd.force:
            self._c_interproc_blocked.inc()
            raise EngineError(
                f"definition {definition.key!r} breaks the deployment: "
                + _describe(interproc_errors)
            )
        return self._register_deployment(definition)

    def _emit_findings(
        self, event: str, definition: ProcessDefinition, diagnostics: list
    ) -> None:
        """One observability event per non-info finding of a deploy."""
        from repro.analysis import Severity

        for diagnostic in diagnostics:
            if diagnostic.severity is Severity.INFO:
                continue
            self.obs.event(
                event,
                process=definition.key,
                rule=diagnostic.rule,
                severity=diagnostic.severity.value,
                element=diagnostic.element_id,
                message=diagnostic.message,
            )

    def _register_deployment(self, definition: ProcessDefinition) -> str:
        version = self._latest_version.get(definition.key, 0) + 1
        deployed = definition.with_version(version)
        self._definitions[deployed.identifier] = deployed
        self._latest_version[definition.key] = version
        # both records join the deploy dispatch's commit: a crash leaves
        # either a findable definition or none, never a stored version
        # the next deploy would re-mint and overwrite
        self._writes.put(
            DEFINITION_PREFIX, deployed.identifier, definition_to_dict(deployed)
        )
        self._writes.put(
            ENGINE_PREFIX, "latest_versions", dict(self._latest_version)
        )
        self.history.record(
            HistoryService.ENGINE_STREAM,
            EventTypes.DEFINITION_DEPLOYED,
            definition_id=deployed.identifier,
        )
        return deployed.identifier

    def definition(self, key: str, version: int | None = None) -> ProcessDefinition:
        """Look up a deployed definition (latest version by default)."""
        if version is None:
            version = self._latest_version.get(key, 0)
        identifier = f"{key}:{version}"
        try:
            return self._definitions[identifier]
        except KeyError:
            raise DefinitionNotFoundError(
                f"no deployed definition {identifier!r}"
            ) from None

    def definitions(self) -> list[ProcessDefinition]:
        """All deployed definitions, sorted by identifier."""
        return [self._definitions[k] for k in sorted(self._definitions)]

    def _definition_of(self, instance: ProcessInstance) -> ProcessDefinition:
        try:
            return self._definitions[instance.definition_id]
        except KeyError:
            raise DefinitionNotFoundError(
                f"instance {instance.id!r} references missing definition "
                f"{instance.definition_id!r}"
            ) from None

    # -- history plumbing ------------------------------------------------------

    def _record(self, instance: ProcessInstance, event_type: str, **data: Any) -> None:
        # history.record() without packing the keywords a second time
        history = self.history
        history.store.append(instance.id, event_type, history.clock.now(), data)

    # -- instances -------------------------------------------------------------

    def _handle_start_instance(self, cmd: cmds.StartInstance) -> ProcessInstance:
        return self._start_instance_internal(
            key=cmd.key,
            version=cmd.version,
            variables=dict(cmd.variables),
            business_key=cmd.business_key,
            parent_instance_id=None,
            parent_token_id=None,
        )

    def _start_instance_internal(
        self,
        key: str,
        version: int | None,
        variables: dict[str, Any],
        business_key: str | None,
        parent_instance_id: str | None,
        parent_token_id: int | None,
    ) -> ProcessInstance:
        definition = self.definition(key, version)
        starts = definition.start_events()
        if len(starts) != 1:
            raise EngineError(f"definition {key!r} needs exactly one start event")
        rank = self._seqs.next("instance_seq")
        instance = ProcessInstance(
            id=f"{key}-{self._id_ns}{rank}",
            definition_id=definition.identifier,
            business_key=business_key,
            variables=variables,
            created_at=self.clock.now(),
            parent_instance_id=parent_instance_id,
            parent_token_id=parent_token_id,
        )
        self._instances[instance.id] = instance
        instance.new_token(starts[0].id)
        self._c_started.inc()
        if self.obs.enabled:
            tracer = self.obs.tracer
            self._instance_spans[instance.id] = tracer.start_span(
                "instance",
                parent=tracer.current() or self._engine_span,
                instance_id=instance.id,
                definition_id=definition.identifier,
            )
        self._record(
            instance,
            EventTypes.INSTANCE_STARTED,
            definition_id=definition.identifier,
            business_key=business_key,
            parent=parent_instance_id,
        )
        core.advance(self, instance)
        return instance

    # -- queries ---------------------------------------------------------------

    def instance(self, instance_id: str) -> ProcessInstance:
        """Look up an instance; raises :class:`InstanceNotFoundError`.

        A stored case not in memory (after a restart: a finished one) is
        read from the store on first use and kept, so an id maps to one
        object."""
        instance = self._find(instance_id)
        if instance is None:
            raise InstanceNotFoundError(f"unknown instance {instance_id!r}")
        return instance

    def _find(self, instance_id: str) -> ProcessInstance | None:
        """The instance object, read through on a miss; ``None`` when the
        store has no such instance either."""
        instance = self._instances.get(instance_id)
        if instance is not None:
            return instance
        with self._dispatch_lock:
            instance = self._instances.get(instance_id)
            if instance is None:
                raw = self.store.get(INSTANCE_PREFIX + instance_id)
                if raw is not None:
                    instance = ProcessInstance.from_dict(raw)
                    self._instances[instance_id] = instance
            return instance

    def instances(self, state: InstanceState | None = None) -> list[ProcessInstance]:
        """All instances (optionally filtered by state), in creation order."""
        return self.find_instances(state=state)

    def find_instances(
        self,
        state: InstanceState | None = None,
        definition_key: str | None = None,
        business_key: str | None = None,
        where: dict[str, Any] | None = None,
        waiting_at: str | None = None,
    ) -> list[ProcessInstance]:
        """Query instances by state, definition, business key, variable
        equality (``where``), and/or the node a token is parked at.

        The read models list the ids matching ``state``,
        ``definition_key`` and ``business_key`` without decoding a case;
        only the remaining predicates look at the instance objects.

        >>> # engine.find_instances(business_key="ORD-7",
        >>> #                       where={"priority": "high"})
        """
        with self._dispatch_lock:
            ids = self.views.instance_ids(
                None if state is None else state.value, definition_key, business_key
            )
            found = [i for i in map(self._find, ids) if i is not None]
        if where is not None:
            found = [
                instance
                for instance in found
                if all(instance.variables.get(k) == v for k, v in where.items())
            ]
        if waiting_at is not None:
            found = [
                instance
                for instance in found
                if any(token.node_id == waiting_at for token in instance.tokens)
            ]
        return found

    # -- instance lifecycle transitions -----------------------------------------

    def _finish_instance_span(self, instance: ProcessInstance, status: str) -> None:
        span = self._instance_spans.pop(instance.id, None)
        if span is not None:
            span.attributes["state"] = instance.state.value
            span.finish(status)

    def _complete_instance(self, instance: ProcessInstance) -> None:
        self._c_completed.inc()
        instance.state = InstanceState.COMPLETED
        instance.ended_at = self.clock.now()
        self._record(instance, EventTypes.INSTANCE_COMPLETED)
        self._finish_instance_span(instance, "ok")
        self._touch(instance)
        self._notify_parent(instance)

    def _terminate_instance(self, instance: ProcessInstance, reason: str) -> None:
        self._c_terminated.inc()
        instance.state = InstanceState.TERMINATED
        instance.ended_at = self.clock.now()
        self._record(instance, EventTypes.INSTANCE_TERMINATED, reason=reason)
        self._finish_instance_span(instance, "ok")
        self._touch(instance)
        self._notify_parent(instance)

    def _terminate_instance_internal(
        self, instance: ProcessInstance, reason: str
    ) -> None:
        for token in list(instance.tokens):
            core.cancel_token(self, instance, token, reason=reason)
        self._terminate_instance(instance, reason)

    def _fail_instance(self, instance: ProcessInstance, reason: str) -> None:
        self._c_failed.inc()
        instance.state = InstanceState.FAILED
        instance.ended_at = self.clock.now()
        instance.failure = reason
        self._record(instance, EventTypes.INSTANCE_FAILED, reason=reason)
        self._finish_instance_span(instance, "error")
        self._touch(instance)
        self._notify_parent(instance, failed=True)

    def _notify_parent(self, child: ProcessInstance, failed: bool = False) -> None:
        """Resume the parent token waiting on a finished child instance."""
        if child.parent_instance_id is None:
            return
        parent = self._instances.get(child.parent_instance_id)
        if parent is None or parent.state.is_finished:
            return
        token = parent.token(child.parent_token_id)
        if token is None:
            return
        reason = token.waiting_on.get("reason")
        if reason == "mi":
            definition = self._definition_of(parent)
            node = definition.node(token.node_id)
            on_mi_child_finished(self, parent, definition, token, node, child, failed)
            return
        if reason != "child":
            return
        definition = self._definition_of(parent)
        node = definition.node(token.node_id)
        core.cancel_boundary_jobs(self, parent, token)
        if failed:
            token.waiting_on = {}
            core.handle_error(
                self,
                parent,
                definition,
                token,
                core.TECHNICAL_ERROR_CODE,
                f"child instance {child.id!r} failed: {child.failure}",
            )
            core.advance(self, parent)
            return
        # map child outputs into parent variables
        from repro.expr import ExpressionError, compile_expression

        mappings = getattr(node, "output_mappings", {})
        try:
            if mappings:
                for name, expr in mappings.items():
                    parent.variables[name] = compile_expression(expr).evaluate(
                        child.variables
                    )
            else:
                parent.variables.update(child.variables)
        except ExpressionError as exc:
            token.waiting_on = {}
            core.handle_error(
                self, parent, definition, token, core.TECHNICAL_ERROR_CODE, str(exc)
            )
            core.advance(self, parent)
            return
        self._record(
            parent,
            EventTypes.NODE_COMPLETED,
            node_id=node.id,
            is_activity=True,
            child_id=child.id,
        )
        flow = core.single_outgoing(definition, node)
        token.resume(flow.target, arrived_via=flow.id)
        core.advance(self, parent)

    def _handle_terminate_instance(self, cmd: cmds.TerminateInstance) -> None:
        instance = self.instance(cmd.instance_id)
        if instance.state.is_finished:
            raise IllegalInstanceStateError(
                f"instance {cmd.instance_id!r} already {instance.state.value}"
            )
        self._terminate_instance_internal(instance, cmd.reason)

    def _handle_compensate_instance(
        self, cmd: cmds.CompensateInstance
    ) -> dict[str, Any]:
        from repro.engine.executors.compensation import run_compensation

        instance = self.instance(cmd.instance_id)
        if instance.state is InstanceState.RUNNING:
            raise IllegalInstanceStateError(
                f"cannot compensate running instance {cmd.instance_id!r}; "
                "terminate or let it finish first"
            )
        definition = self._definition_of(instance)
        compensated = run_compensation(self, instance, definition)
        self._c_compensations.inc(len(compensated))
        return {
            "instance_id": instance.id,
            "compensated": compensated,
            "pending": len(instance.compensations),
        }

    def _handle_suspend_instance(self, cmd: cmds.SuspendInstance) -> None:
        instance = self.instance(cmd.instance_id)
        if instance.state is not InstanceState.RUNNING:
            raise IllegalInstanceStateError(
                f"cannot suspend instance in state {instance.state.value}"
            )
        instance.state = InstanceState.SUSPENDED
        self._record(instance, EventTypes.INSTANCE_SUSPENDED)
        self._touch(instance)

    def _handle_resume_instance(self, cmd: cmds.ResumeInstance) -> None:
        instance = self.instance(cmd.instance_id)
        if instance.state is not InstanceState.SUSPENDED:
            raise IllegalInstanceStateError(
                f"cannot resume instance in state {instance.state.value}"
            )
        instance.state = InstanceState.RUNNING
        self._record(instance, EventTypes.INSTANCE_RESUMED)
        self._touch(instance)
        core.advance(self, instance)
        self._redeliver_retained(instance)

    # -- work items -------------------------------------------------------------

    def _handle_claim_work_item(self, cmd: cmds.ClaimWorkItem) -> WorkItem:
        return self.worklist.claim(cmd.item_id, cmd.resource_id)

    def _handle_start_work_item(self, cmd: cmds.StartWorkItem) -> WorkItem:
        return self.worklist.start(cmd.item_id)

    def _handle_complete_work_item(self, cmd: cmds.CompleteWorkItem) -> WorkItem:
        return self.worklist.complete(cmd.item_id, dict(cmd.result))

    def _on_work_item_completed(self, item: WorkItem) -> None:
        instance = self._instances.get(item.instance_id)
        if instance is None or instance.state.is_finished:
            return
        token = instance.token(item.data.get("token_id"))
        if token is None or token.waiting_on.get("work_item_id") != item.id:
            return
        definition = self._definition_of(instance)
        node = definition.node(token.node_id)
        core.cancel_boundary_jobs(self, instance, token)
        if item.result:
            instance.variables.update(item.result)
            self._record(
                instance,
                EventTypes.VARIABLES_UPDATED,
                node_id=node.id,
                keys=sorted(item.result.keys()),
            )
        self._record(
            instance,
            EventTypes.NODE_COMPLETED,
            node_id=node.id,
            is_activity=True,
            resource=item.allocated_to,
        )
        core.record_compensation(self, instance, node)
        flow = core.single_outgoing(definition, node)
        token.resume(flow.target, arrived_via=flow.id)
        if instance.state is InstanceState.RUNNING:
            core.advance(self, instance)
        else:
            self._touch(instance)

    # -- timers ------------------------------------------------------------------

    def _handle_run_due_jobs(self, cmd: cmds.RunDueJobs) -> int:
        processed = 0
        deferred: list = []
        while True:
            due = self.scheduler.due_jobs(self.clock.now())
            if not due:
                break
            for job in due:
                # read through: a finished case's stale job is processed
                # (and ignored by _dispatch_job), not counted as orphaned
                instance = self._find(job.instance_id)
                if instance is None:
                    self._c_jobs_orphaned.inc()
                    continue
                if instance.state is InstanceState.SUSPENDED:
                    deferred.append(job)
                    continue
                processed += 1
                self._dispatch_job(job)
        for job in deferred:
            self.scheduler.schedule(
                job.due, job.kind, job.instance_id, job.data, job_id=job.id
            )
        self.worklist.check_deadlines()
        self._g_queue_depth.set(len(self.scheduler))
        return processed

    def _handle_advance_time(self, cmd: cmds.AdvanceTime) -> int:
        if not isinstance(self.clock, VirtualClock):
            raise EngineError("advance_time requires a VirtualClock")
        self.clock.advance(cmd.seconds)
        # nested dispatch: re-enters the serialization gate (re-entrant
        # lock) and logs at depth 2 — replay tooling skips nested entries
        return self.dispatch(cmds.RunDueJobs())

    def _dispatch_job(self, job) -> None:
        instance = self._instances.get(job.instance_id)
        if instance is None or instance.state is not InstanceState.RUNNING:
            return
        definition = self._definition_of(instance)
        token = instance.token(job.data.get("token_id"))
        if token is None:
            return
        fire = JOB_KINDS.get(job.kind)
        if fire is None:
            raise EngineError(f"unknown job kind {job.kind!r}")
        fire(self, instance, definition, token, job)

    # -- messages ----------------------------------------------------------------

    def _handle_correlate_message(self, cmd: cmds.CorrelateMessage) -> Message:
        return self.publish_message(
            cmd.message_name, cmd.correlation, cmd.payload, forward=False
        )

    def publish_message(
        self,
        name: str,
        correlation: Any = None,
        payload: dict[str, Any] | None = None,
        forward: bool = True,
    ) -> Message:
        """Correlate a message to the oldest running wait it satisfies.

        Else a send task's message (``forward``) on a cluster partition
        goes to the outbox, for the cluster to re-route after this
        dispatch; anything else is retained on :attr:`bus` (a shard's
        ``CorrelateMessage`` was already routed there by the cluster)."""
        if not name:
            raise ValueError("message name must be non-empty")
        message = self.bus.message(name, correlation, payload)
        receiver = self._walk_waits(name, correlation, prune=True)[1]
        if receiver is not None:
            self._deliver_to_wait(*receiver, message.payload)
        elif forward and self.shard_tag:
            self.outbox.claim(message)
        else:
            self.bus.retain(message)
        return message

    def message_delivery_probe(self, name: str, correlation: Any = None) -> str:
        """``"deliver"`` if a running wait would consume (name,
        correlation) now, ``"wait"`` if only a suspended instance
        subscribes (retain it here for the resume), else ``"none"``.
        Read-only: the cluster router probes before it routes."""
        return self._walk_waits(name, correlation)[0]

    def _walk_waits(
        self, name: str, correlation: Any, prune: bool = False
    ) -> tuple[str, Any]:
        """The probe verdict and the first running receiver
        ``(instance, token, wait)``, from one oldest-first walk; ``prune``
        (delivery only) drops the passed-over waits whose instance
        finished or whose token moved on."""
        verdict = "none"
        for wait in self.waits.matching(name, correlation):
            instance = self._instances.get(wait.instance_id)
            if instance is not None and not instance.state.is_finished:
                if instance.state is not InstanceState.RUNNING:
                    verdict = "wait"  # suspended: retained for its resume
                    continue
                token = instance.token(wait.token_id)
                if token is not None and token.state is TokenState.WAITING:
                    return "deliver", (instance, token, wait)
            if prune:
                self.waits.remove(wait)
        return verdict, None

    def _deliver_to_wait(
        self,
        instance: ProcessInstance,
        token,
        wait: MessageWait,
        payload: dict[str, Any],
    ) -> None:
        definition = self._definition_of(instance)
        self._c_messages_delivered.inc()
        if wait.race_event is not None:
            core.deliver_race_message(self, instance, definition, token, wait, payload)
        else:
            self.waits.remove(wait)
            node = definition.node(wait.node_id)
            core.apply_message(self, instance, node, payload)
            token.waiting_on = {}
            core.move_through(
                self, instance, definition, token, node, is_activity=wait.is_activity
            )
            core.advance(self, instance)

    def _redeliver_retained(self, instance: ProcessInstance) -> None:
        """Match bus-retained messages against this instance's waits
        (used after resume, when deliveries were deferred)."""
        for wait in self.waits.of_instance(instance.id):
            token = instance.token(wait.token_id)
            if token is None or token.state is not TokenState.WAITING:
                continue
            message = self.bus.consume_retained(
                wait.name, wait.correlation, wait.match_any
            )
            if message is not None:
                self._deliver_to_wait(instance, token, wait, message.payload)

    # -- migration ---------------------------------------------------------------

    def _handle_migrate_instance(self, cmd: cmds.MigrateInstance) -> ProcessInstance:
        instance = self.instance(cmd.instance_id)
        target = self.definition(instance.definition_key, cmd.target_version)
        apply_migration(self, instance, target, MigrationPlan(dict(cmd.node_mapping)))
        self._c_migrations.inc()
        self._record(
            instance,
            EventTypes.INSTANCE_MIGRATED,
            to_version=cmd.target_version,
        )
        core.advance(self, instance)
        return instance

    # -- asynchronous service execution (repro.workers) ---------------------------

    def attach_workers(self, pool: Any) -> None:
        """Attach a :class:`~repro.workers.WorkerPool` to this engine.

        From here on, service tasks the pool admits are *enqueued* instead
        of invoked inline (see ``execute_service_task``).  Any pending
        invocations already recovered from the store are submitted now.
        """
        if self.workers is not None and self.workers is not pool:
            raise EngineError("engine already has a worker pool attached")
        self.workers = pool
        pool.bind(self)
        self._submit_pending_invocations()

    def _submit_pending_invocations(self) -> None:
        """Hand durably committed invocation records to the pool."""
        for record in self.ledger.take_unsubmitted():
            self.workers.submit(self, record)

    def _handle_complete_invocation(
        self, cmd: cmds.CompleteServiceInvocation
    ) -> dict[str, Any]:
        """Apply one pooled invocation outcome, exactly once.

        The ledger is the intrinsic idempotency check: a completion whose
        record is already resolved (pool retry after crash, client
        duplicate, post-cancellation straggler) is a recorded no-op.
        """
        record = self.ledger.take(cmd.invocation_id)
        if record is None:
            self._c_inv_duplicates.inc()
            return {"invocation_id": cmd.invocation_id, "status": "duplicate"}
        instance = self._instances.get(record.instance_id)
        token = (
            instance.token(record.token_id)
            if instance is not None and not instance.state.is_finished
            else None
        )
        live = (
            token is not None
            and token.waiting_on.get("reason") == "service"
            and token.waiting_on.get("invocation_id") == cmd.invocation_id
        )
        definition = self._definition_of(instance) if live else None
        node = definition.nodes.get(record.node_id) if live else None
        if node is None:
            # the token moved on (cancelled, boundary-routed, migrated) or
            # the instance finished: the outcome has nowhere to land
            self.ledger.settle(record.service)
            return {"invocation_id": record.id, "status": "orphaned"}
        status = tasks.apply_invocation_outcome(
            self, instance, definition, token, node, record, cmd
        )
        return {"invocation_id": record.id, "status": status}

    def _handle_requeue_dead_letter(
        self, cmd: cmds.RequeueDeadLetter
    ) -> dict[str, Any]:
        record = self.ledger.requeue(cmd.invocation_id)
        if record is None:
            raise EngineError(
                f"no dead-lettered invocation {cmd.invocation_id!r}"
            )
        instance = self._find(record.instance_id)
        if instance is not None:
            self._record(
                instance,
                EventTypes.SERVICE_REQUEUED,
                node_id=record.node_id,
                service=record.service,
                invocation_id=record.id,
                requeues=record.requeues,
            )
        self.obs.event(
            "workers.requeue",
            service=record.service,
            invocation_id=record.id,
            requeues=record.requeues,
        )
        return {
            "invocation_id": record.id,
            "status": "requeued",
            "requeues": record.requeues,
        }

    def dead_letters(self) -> list[dict[str, Any]]:
        """Dead-lettered invocations, oldest first (``repro dlq list``)."""
        return self.ledger.dead_letters()

    def workers_status(self) -> dict[str, dict[str, int]]:
        """Per-service invocation accounting (``enqueued == completed +
        pending + dead_lettered``; see :meth:`InvocationLedger.status`)."""
        return self.ledger.status()

    def outbox_records(self) -> list[Any]:
        """Undrained cross-shard forwards, oldest (lowest seq) first."""
        return self.outbox.records()

    # -- persistence & recovery ---------------------------------------------------

    def batch(self) -> "_EngineBatch":
        """Context manager deferring all flushes to one group commit.

        Inside the block every public API call mutates memory but skips
        persistence; the outermost exit performs a single
        :meth:`_flush` — one store transaction, one journal sync — no
        matter how many calls ran.  Re-entrant (nested batches commit once,
        at the outermost exit).  On an exception the accumulated state is
        still flushed: the in-memory mutations already happened and memory
        is the source of truth.

        >>> # with engine.batch():
        >>> #     for item in engine.worklist.items():
        >>> #         engine.complete_work_item(item.id)
        """
        return _EngineBatch(self)

    def flush(self) -> None:
        """Force-persist all pending writes now, whatever the policy."""
        self._flush(force=True)

    def has_pending_writes(self) -> bool:
        """Whether a forced flush would persist anything beyond outbox GC
        tombstones.

        A lock-free peek for the cluster's delivery fence: before the
        origin may forget a forwarded message, the target's delivery must
        be durable.  When the delivering thread sees nothing pending here
        its own delivery has committed, so it can skip taking the target's
        dispatch lock for a no-op flush.  Outbox deletes are excluded on
        purpose — they never need fencing, because a record that outlives
        its delivery is absorbed by dedup on redelivery.  Racing writers
        can only make this spuriously True (an extra no-op flush), never
        hide the caller's own writes.
        """
        return self._writes.has_pending(ignoring_deletes_of=self._gc_family)

    def _flush(self, force: bool = False) -> None:
        """Commit the write-set in one transaction, per the commit policy.

        Writes nothing — not even an empty transaction — when nothing is
        pending.  Inside :meth:`batch` or below ``commit_interval`` pending
        records the flush is deferred (unless ``force``).  The write-set
        (and the views' differential sets) are cleared only after the
        transaction and sync succeeded, so a failed commit leaves
        everything pending for the next flush to retry.
        """
        if self._batch_depth > 0 and not force:
            return
        writes, views = self._writes, self.views
        records = len(writes)
        if records == 0 and not (force and views.has_pending()):
            # read-only call: zero store writes, zero syncs (a *forced*
            # flush still drains write-behind view dirt noted earlier)
            return
        if not force and records < self._commit_interval:
            return  # defer until the record-count policy is met
        seq = self.dispatch_log.seq
        # write-behind read models: the touched ids are noted now; the
        # view records join this commit only when forced (the group-
        # commit boundary) or when their persisted image lags a quarter
        # of the retained log tail, so a crash between drains recovers by
        # tail replay
        persist = force or seq - views.persisted_seq >= self._drain_every
        views.note_commit(writes, seq, persist)
        if persist:
            records = len(writes)
        span = (
            self._tracer.start_span(
                "engine.flush", parent=self._engine_span, records=records
            )
            if self.obs.enabled
            else None
        )
        writes.commit(self.store)
        views.committed(seq)
        self._c_flush_commits.inc()
        self._c_flush_records.inc(records)
        self._h_flush_batch.observe(records)
        if span is not None:
            span.finish()
        # invocation records reach the pool only after the commit that
        # made them durable
        if self.workers is not None:
            self._submit_pending_invocations()

    def recover(self) -> dict[str, int]:
        """Rebuild engine state from the backing store after a restart.

        Definitions, pending jobs, pending invocations, dead letters, the
        outbox, the dispatch log (with its idempotency keys) and the open
        message waits (``"waits"``, in subscription order — the order
        they are served in) are restored; services and resources must be
        re-registered by the host application (code is not persisted).

        The read models recover first, from the store alone (load, tail
        replay or rebuild — see :meth:`ProjectionManager.recover`); then
        only the instances and work items they list as live are decoded.
        A finished case stays on disk until first use (:meth:`instance`,
        ``worklist.item``).  That is safe because the stored view image is
        never ahead of the base records and nothing leaves a finished
        state.  Returns counts per category (``instances`` and
        ``workitems``: records stored, as the views count them).
        """
        store = self.store
        counts = {"definitions": 0, "instances": 0}
        self._latest_version = dict(
            store.get(ENGINE_PREFIX + "latest_versions", {})
        )
        for _, raw in store.scan(DEFINITION_PREFIX):
            definition = definition_from_dict(raw)
            self._definitions[definition.identifier] = definition
            # a store whose deploy tore before both records were atomic
            # may hold a definition its version table does not know
            if definition.version > self._latest_version.get(definition.key, 0):
                self._latest_version[definition.key] = definition.version
            counts["definitions"] += 1
        self._seqs.load(store)
        commands = self.dispatch_log.load(store)
        views = self.views
        views.recover(store, self.dispatch_log)
        for instance_id in views.by_state.live_ids():
            raw = store.get(INSTANCE_PREFIX + instance_id)
            self._instances[instance_id] = ProcessInstance.from_dict(raw)
        counts["instances"] = views.by_state.record_count()
        counts["jobs"] = self.scheduler.load(store)
        self.worklist.load(store, views.worklist.live_ids(), views.worklist.top_rank())
        counts["workitems"] = views.worklist.record_count()
        counts["invocations"] = self.ledger.load(store)
        counts["dead_letters"] = self.ledger.load_dead_letters(store)
        counts["outbox"] = self.outbox.load(store)
        counts["commands"] = commands
        counts["waits"] = self.waits.load(store)
        if self.workers is not None:
            self._submit_pending_invocations()
        return counts


def _describe(diagnostics: list) -> str:
    return "; ".join(f"[{d.rule}] {d.element_id}: {d.message}" for d in diagnostics)


class _EngineBatch:
    """Re-entrant deferral scope returned by :meth:`ProcessEngine.batch`."""

    def __init__(self, engine: ProcessEngine) -> None:
        self._engine = engine

    def __enter__(self) -> ProcessEngine:
        self._engine._batch_depth += 1
        return self._engine

    def __exit__(self, exc_type: type | None, *exc_info: object) -> None:
        self._engine._batch_depth -= 1
        if self._engine._batch_depth == 0:
            # flush even on exception: memory already mutated and is the
            # source of truth; the store must not lag behind it
            self._engine._flush(force=True)
