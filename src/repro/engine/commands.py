"""Typed engine commands: the only way external clients mutate state.

Every public mutation entry point of :class:`~repro.engine.engine.
ProcessEngine` constructs one of these dataclasses and hands it to
``engine.dispatch(cmd)``; the dispatch pipeline (see :mod:`repro.engine.
dispatch`) supplies serialization, idempotency, observability, history,
and the commit policy uniformly, so the commands themselves are pure
data.

Commands are *serializable*: :meth:`Command.to_dict` /
:func:`command_from_dict` round-trip every command through JSON-safe
dicts, which is what the persisted dispatch log stores and what the
concurrent-dispatch stress tests replay.

Taxonomy
--------

*Externally-originated* commands (``external = True``) come from clients
the engine cannot trust to call exactly once — worklist handlers, message
gateways, admin consoles.  They accept an optional ``dedup_key``: two
dispatches with the same key apply once, the second returning the
recorded result (see :mod:`repro.engine.dispatch`).  *Internal* commands
(``RunDueJobs``, ``AdvanceTime``) originate from the owning driver loop
and carry no dedup key.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, ClassVar

from repro.storage.serializers import from_record, to_record

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.instance import ProcessInstance
    from repro.engine.migration import MigrationPlan
    from repro.model.process import ProcessDefinition
    from repro.services.bus import Message
    from repro.worklist.items import WorkItem

#: name -> command class, populated by :func:`register_command`.
COMMAND_TYPES: dict[str, type["Command"]] = {}


def register_command(cls: type["Command"]) -> type["Command"]:
    """Class decorator adding a command type to the registry."""
    if not cls.name:
        raise ValueError(f"command class {cls.__name__} has no name")
    if cls.name in COMMAND_TYPES:
        raise ValueError(f"duplicate command name {cls.name!r}")
    COMMAND_TYPES[cls.name] = cls
    return cls


@dataclass(frozen=True)
class Command:
    """Base of all engine commands (pure data; no behaviour)."""

    #: wire/registry name, e.g. ``"start_instance"``.
    name: ClassVar[str] = ""
    #: True for client-originated commands that accept a ``dedup_key``.
    external: ClassVar[bool] = False

    # non-external commands have no dedup field; this class attribute is
    # shadowed by a real dataclass field on external command types
    dedup_key = None  # type: str | None

    def loggable(self, result: Any) -> bool:
        """Whether a successful dispatch is worth a dispatch-log entry.

        Default: always.  Pump commands override this so an *idle* pump
        (nothing due, nothing dirty) stays a true read-only call — zero
        store writes, zero history growth.
        """
        return True

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe representation, ``{"command": name, **fields}``.

        ``name`` and ``external`` are written too (logs have always held
        them) and never read back.
        """
        record = to_record(self)
        record["command"] = record["name"] = self.name
        record["external"] = self.external
        return record

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "Command":
        """Rebuild a command of this type from :meth:`to_dict` output."""
        return from_record(cls, raw)


def command_from_dict(raw: dict[str, Any]) -> Command:
    """Rebuild any registered command from its :meth:`Command.to_dict`."""
    try:
        cls = COMMAND_TYPES[raw["command"]]
    except KeyError:
        raise ValueError(f"unknown command type {raw.get('command')!r}") from None
    return cls.from_dict(raw)


# -- deployment ---------------------------------------------------------------


@register_command
@dataclass(frozen=True)
class DeployDefinition(Command):
    """Deploy a process definition (admin-tool interface)."""

    name: ClassVar[str] = "deploy_definition"

    definition: Any = None  # ProcessDefinition
    verify: bool | None = None
    force: bool = False
    #: the definition already passed the full static analysis in this
    #: deployment (set by the cluster layer when fanning a verified deploy
    #: out to its remaining shards); registration skips re-analysis
    pre_verified: bool = False

    # the definition is the one field that is not a plain value
    def to_dict(self) -> dict[str, Any]:
        from repro.model.serialization import definition_to_dict

        record = to_record(self)
        record["definition"] = definition_to_dict(self.definition)
        return {"command": self.name, **record}

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "DeployDefinition":
        from repro.model.serialization import definition_from_dict

        definition = raw.get("definition")
        if isinstance(definition, dict):
            definition = definition_from_dict(definition)
        return from_record(cls, {**raw, "definition": definition})


# -- instance lifecycle -------------------------------------------------------


@register_command
@dataclass(frozen=True)
class StartInstance(Command):
    """Create and advance a new instance of a deployed definition."""

    name: ClassVar[str] = "start_instance"
    external: ClassVar[bool] = True

    key: str = ""
    variables: dict[str, Any] = field(default_factory=dict)
    business_key: str | None = None
    version: int | None = None
    dedup_key: str | None = None


@register_command
@dataclass(frozen=True)
class TerminateInstance(Command):
    """Administratively cancel a running instance."""

    name: ClassVar[str] = "terminate_instance"
    external: ClassVar[bool] = True

    instance_id: str = ""
    reason: str = "user request"
    dedup_key: str | None = None


@register_command
@dataclass(frozen=True)
class CompensateInstance(Command):
    """Run the instance's compensation handlers in reverse order (saga).

    Each completed activity carrying a ``compensation_handler`` pushed an
    entry onto the instance's compensation log; this command pops and runs
    them newest-first, so a half-done business transaction is undone in
    the opposite order it was done.
    """

    name: ClassVar[str] = "compensate_instance"
    external: ClassVar[bool] = True

    instance_id: str = ""
    dedup_key: str | None = None


@register_command
@dataclass(frozen=True)
class SuspendInstance(Command):
    """Pause an instance: waiting triggers defer until resume."""

    name: ClassVar[str] = "suspend_instance"
    external: ClassVar[bool] = True

    instance_id: str = ""
    dedup_key: str | None = None


@register_command
@dataclass(frozen=True)
class ResumeInstance(Command):
    """Resume a suspended instance and advance it."""

    name: ClassVar[str] = "resume_instance"
    external: ClassVar[bool] = True

    instance_id: str = ""
    dedup_key: str | None = None


@register_command
@dataclass(frozen=True)
class MigrateInstance(Command):
    """Move a running instance to another deployed version."""

    name: ClassVar[str] = "migrate_instance"
    external: ClassVar[bool] = True

    instance_id: str = ""
    target_version: int = 0
    #: ``{old_node_id: new_node_id}``; identity mapping when empty
    node_mapping: dict[str, str] = field(default_factory=dict)
    dedup_key: str | None = None


# -- work items (worklist-handler interface) ----------------------------------


@register_command
@dataclass(frozen=True)
class ClaimWorkItem(Command):
    """A resource pulls an offered item from its role queue."""

    name: ClassVar[str] = "claim_work_item"
    external: ClassVar[bool] = True

    item_id: str = ""
    resource_id: str = ""
    dedup_key: str | None = None


@register_command
@dataclass(frozen=True)
class StartWorkItem(Command):
    """The allocated resource begins work on an item."""

    name: ClassVar[str] = "start_work_item"
    external: ClassVar[bool] = True

    item_id: str = ""
    dedup_key: str | None = None


@register_command
@dataclass(frozen=True)
class CompleteWorkItem(Command):
    """Complete a started work item; the owning token advances."""

    name: ClassVar[str] = "complete_work_item"
    external: ClassVar[bool] = True

    item_id: str = ""
    result: dict[str, Any] = field(default_factory=dict)
    dedup_key: str | None = None


# -- messages -----------------------------------------------------------------


@register_command
@dataclass(frozen=True)
class CorrelateMessage(Command):
    """Correlate an external message to the instance waiting for it."""

    name: ClassVar[str] = "correlate_message"
    external: ClassVar[bool] = True

    message_name: str = ""
    correlation: Any = None
    payload: dict[str, Any] = field(default_factory=dict)
    dedup_key: str | None = None

    def loggable(self, result: Any) -> bool:
        # a publish that found no waiting receiver only parks the message
        # in the in-memory retained buffer — no engine record
        # changed, so logging it would turn a miss into a store write.
        # Deliveries leave the advanced instance dirty, and the dispatch
        # log step's dirty-state fallback logs those; a dedup-keyed
        # publish is always logged so the idempotency window survives
        # recovery.
        return self.dedup_key is not None


# -- asynchronous service execution (worker-pool interface) -------------------


@register_command
@dataclass(frozen=True)
class CompleteServiceInvocation(Command):
    """Report a pooled service invocation's outcome.

    Dispatched by worker-pool threads (and by clients retrying on their
    behalf), so it is external and idempotent twice over: the standard
    ``dedup_key`` window, plus the pending-invocation table — a completion
    whose record is already resolved is a recorded no-op, which is what
    makes the enqueue/execute/complete cycle at-least-once in execution
    but exactly-once in effect.
    """

    name: ClassVar[str] = "complete_service_invocation"
    external: ClassVar[bool] = True

    invocation_id: str = ""
    #: ``"success"`` | ``"failure"`` (retries exhausted) | ``"bpmn_error"``
    outcome: str = "success"
    value: Any = None
    error: str | None = None
    error_code: str | None = None
    attempts: int = 0
    dedup_key: str | None = None


@register_command
@dataclass(frozen=True)
class RequeueDeadLetter(Command):
    """Move a dead-lettered invocation back onto its service queue."""

    name: ClassVar[str] = "requeue_dead_letter"
    external: ClassVar[bool] = True

    invocation_id: str = ""
    dedup_key: str | None = None


# -- time (driver-loop interface) ---------------------------------------------


@register_command
@dataclass(frozen=True)
class RunDueJobs(Command):
    """Fire every due job (timer pump)."""

    name: ClassVar[str] = "run_due_jobs"

    def loggable(self, result: Any) -> bool:
        # an idle pump (nothing fired) is a read-only call; logging it
        # would turn every driver tick into a store write.  When the pump
        # *did* change state it leaves pending writes, which the log
        # step also checks (see dispatch module).
        return bool(result)


@register_command
@dataclass(frozen=True)
class AdvanceTime(Command):
    """Advance a virtual clock and fire everything that became due.

    Always logged: even a zero-job advance moves the clock, which a
    sequential replay must reproduce.
    """

    name: ClassVar[str] = "advance_time"

    seconds: float = 0.0


# -- the client surface -------------------------------------------------------


class CommandClient:
    """The command-constructor methods shared by every engine facade.

    Each method only builds a typed command and hands it to
    :meth:`dispatch` — the one abstract method.  :class:`~repro.engine.
    engine.ProcessEngine` dispatches through its one command path;
    :class:`~repro.cluster.sharded.ShardedEngine` routes to a shard (or
    fans out) first.
    """

    def dispatch(self, command: Command) -> Any:
        raise NotImplementedError

    def deploy(
        self,
        definition: ProcessDefinition,
        verify: bool | None = None,
        force: bool = False,
    ) -> str:
        """Deploy a definition; returns its ``key:version`` identifier.

        The full static analysis (:func:`repro.analysis.analyze`) always
        runs.  Structural errors block deployment; behavioural errors
        (deadlock, lack of synchronization, ...) block when ``verify`` is
        true.  Unresolved references (services, roles, decisions) block
        only for engines constructed with ``strict_references=True`` —
        otherwise they are warnings, since registration order is a
        legitimate workflow.
        ``force=True`` deploys despite errors (they are still recorded).
        Every non-info finding is emitted as a ``lint.diagnostic``
        observability event.
        """
        return self.dispatch(
            DeployDefinition(definition=definition, verify=verify, force=force)
        )

    def start_instance(
        self,
        key: str,
        variables: dict[str, Any] | None = None,
        business_key: str | None = None,
        version: int | None = None,
        dedup_key: str | None = None,
    ) -> ProcessInstance:
        """Create and advance a new instance of a deployed definition."""
        return self.dispatch(
            StartInstance(
                key=key,
                variables=dict(variables or {}),
                business_key=business_key,
                version=version,
                dedup_key=dedup_key,
            )
        )

    def terminate_instance(
        self,
        instance_id: str,
        reason: str = "user request",
        dedup_key: str | None = None,
    ) -> None:
        """Administratively cancel a running instance."""
        self.dispatch(
            TerminateInstance(
                instance_id=instance_id, reason=reason, dedup_key=dedup_key
            )
        )

    def compensate_instance(
        self, instance_id: str, dedup_key: str | None = None
    ) -> dict[str, Any]:
        """Run the instance's compensation handlers in reverse order (saga)."""
        result = self.dispatch(
            CompensateInstance(instance_id=instance_id, dedup_key=dedup_key)
        )
        return result  # type: ignore[no-any-return]

    def suspend_instance(self, instance_id: str, dedup_key: str | None = None) -> None:
        """Pause an instance: waiting triggers are deferred until resume."""
        self.dispatch(SuspendInstance(instance_id=instance_id, dedup_key=dedup_key))

    def resume_instance(self, instance_id: str, dedup_key: str | None = None) -> None:
        """Resume a suspended instance and advance it."""
        self.dispatch(ResumeInstance(instance_id=instance_id, dedup_key=dedup_key))

    def migrate_instance(
        self,
        instance_id: str,
        target_version: int,
        plan: MigrationPlan | None = None,
        dedup_key: str | None = None,
    ) -> ProcessInstance:
        """Move a running instance to another deployed version.

        See :mod:`repro.engine.migration` for the compatibility rules.
        """
        return self.dispatch(
            MigrateInstance(
                instance_id=instance_id,
                target_version=target_version,
                node_mapping=dict(plan.node_mapping) if plan is not None else {},
                dedup_key=dedup_key,
            )
        )

    def claim_work_item(
        self, item_id: str, resource_id: str, dedup_key: str | None = None
    ) -> WorkItem:
        """A resource pulls an offered item from its role queue."""
        return self.dispatch(
            ClaimWorkItem(
                item_id=item_id, resource_id=resource_id, dedup_key=dedup_key
            )
        )

    def start_work_item(self, item_id: str, dedup_key: str | None = None) -> WorkItem:
        """The allocated resource begins work on an item."""
        return self.dispatch(StartWorkItem(item_id=item_id, dedup_key=dedup_key))

    def complete_work_item(
        self,
        item_id: str,
        result: dict[str, Any] | None = None,
        dedup_key: str | None = None,
    ) -> WorkItem:
        """Complete a started work item; the owning token advances."""
        return self.dispatch(
            CompleteWorkItem(
                item_id=item_id, result=dict(result or {}), dedup_key=dedup_key
            )
        )

    def correlate_message(
        self,
        name: str,
        correlation: Any = None,
        payload: dict[str, Any] | None = None,
        dedup_key: str | None = None,
    ) -> Message:
        """Correlate a message to a waiting instance (external entry point).

        If a waiting catch matches it is delivered immediately; otherwise
        the message is retained for a future receiver.
        """
        return self.dispatch(
            CorrelateMessage(
                message_name=name,
                correlation=correlation,
                payload=dict(payload or {}),
                dedup_key=dedup_key,
            )
        )

    def requeue_dead_letter(
        self, invocation_id: str, dedup_key: str | None = None
    ) -> dict[str, Any]:
        """Move a dead-lettered invocation back onto its service queue."""
        return self.dispatch(
            RequeueDeadLetter(invocation_id=invocation_id, dedup_key=dedup_key)
        )

    def run_due_jobs(self) -> int:
        """Fire every due job; returns the number processed.

        Jobs whose instance is suspended are *deferred* (re-queued with
        their original due time) so they fire after the instance resumes.
        Jobs whose instance no longer exists are dropped — counted under
        ``engine.jobs.orphaned``, not in the returned total.
        """
        return self.dispatch(RunDueJobs())

    def advance_time(self, seconds: float) -> int:
        """Advance a virtual clock and fire everything that became due."""
        return self.dispatch(AdvanceTime(seconds=seconds))
