"""Typed process-model elements: events, tasks, gateways, and flows.

Every element is a dataclass keyed by a process-unique ``id``.  Elements are
data — behaviour lives in the engine's node handlers
(:mod:`repro.engine.behaviors`) — so that definitions can be persisted,
diffed, versioned, and serialized to BPMN XML without touching code.

Modelling discipline enforced by the validator: activities and events have
at most one incoming and one outgoing sequence flow; all branching and
merging goes through explicit gateways.  This keeps the WF-net mapping (and
hence soundness analysis) exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.model.errors import ModelError


@dataclass
class Node:
    """Base class for every process node."""

    id: str
    name: str = ""

    def __post_init__(self) -> None:
        if not self.id:
            raise ModelError(f"{type(self).__name__} requires a non-empty id")
        if not self.name:
            self.name = self.id

    @property
    def type_name(self) -> str:
        """Stable type tag used by serializers and the history log."""
        return type(self).__name__


@dataclass
class SequenceFlow:
    """A directed flow between two nodes, optionally guarded.

    ``condition`` is an expression-language guard (see :mod:`repro.expr`)
    evaluated against instance variables by exclusive/inclusive gateways.
    ``is_default`` marks the gateway's fallback flow, taken when no guarded
    flow fires.
    """

    id: str
    source: str
    target: str
    condition: str | None = None
    is_default: bool = False

    def __post_init__(self) -> None:
        if not self.id:
            raise ModelError("sequence flow requires a non-empty id")
        if self.source == self.target:
            raise ModelError(f"flow {self.id!r} is a self-loop on {self.source!r}")
        if self.is_default and self.condition is not None:
            raise ModelError(f"default flow {self.id!r} must not carry a condition")


# -- events -------------------------------------------------------------------


@dataclass
class StartEvent(Node):
    """The single entry point of a process."""


@dataclass
class EndEvent(Node):
    """An exit point.  ``terminate=True`` cancels all other tokens."""

    terminate: bool = False


@dataclass
class IntermediateTimerEvent(Node):
    """Catch event that delays the token for ``duration`` clock seconds."""

    duration: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.duration < 0:
            raise ModelError(f"timer {self.id!r} has negative duration")


@dataclass
class IntermediateMessageEvent(Node):
    """Catch event that waits for a correlated message.

    ``correlation_expression`` is evaluated against instance variables to
    produce the correlation value matched against incoming messages.
    """

    message_name: str = ""
    correlation_expression: str | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.message_name:
            raise ModelError(f"message event {self.id!r} requires message_name")


@dataclass
class BoundaryEvent(Node):
    """An event attached to an activity's boundary.

    ``kind`` is ``"error"`` (caught when the host activity raises a matching
    :class:`~repro.engine.errors.BpmnError`) or ``"timer"`` (fires after
    ``duration`` if the activity is still active).  Boundary events are
    always interrupting: the host activity is cancelled when they trigger.
    """

    attached_to: str = ""
    kind: str = "error"
    error_code: str | None = None
    duration: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.attached_to:
            raise ModelError(f"boundary event {self.id!r} requires attached_to")
        if self.kind not in ("error", "timer"):
            raise ModelError(f"boundary event {self.id!r} has unknown kind {self.kind!r}")
        if self.kind == "timer" and self.duration <= 0:
            raise ModelError(f"timer boundary {self.id!r} requires positive duration")


# -- tasks --------------------------------------------------------------------


@dataclass
class UserTask(Node):
    """A task performed by a person via the worklist.

    ``role`` selects eligible resources; ``priority`` orders queues;
    ``due_seconds`` (from activation) drives deadline escalation;
    ``separate_from`` enforces separation of duties (the four-eyes
    principle): whoever completed any of the named user tasks in this
    instance is excluded from performing this one.
    """

    role: str = ""
    priority: int = 0
    due_seconds: float | None = None
    form_fields: tuple[str, ...] = ()
    separate_from: tuple[str, ...] = ()
    #: id of a detached activity run to undo this task's completed work
    #: when the instance is compensated (saga orchestration)
    compensation_handler: str | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.role:
            raise ModelError(f"user task {self.id!r} requires a role")
        if self.due_seconds is not None and self.due_seconds <= 0:
            raise ModelError(f"user task {self.id!r} has non-positive due_seconds")
        if self.id in self.separate_from:
            raise ModelError(f"user task {self.id!r} cannot be separate from itself")


@dataclass
class ManualTask(Node):
    """A task done outside any system; the engine just records it."""


@dataclass
class RetryPolicy:
    """Retry configuration for service invocation."""

    max_attempts: int = 3
    initial_backoff: float = 0.1
    backoff_multiplier: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ModelError("retry policy needs max_attempts >= 1")
        if self.initial_backoff < 0 or self.backoff_multiplier < 1:
            raise ModelError("retry policy backoff parameters invalid")

    def backoff(self, attempt: int) -> float:
        """Delay before the given (1-based) retry attempt."""
        return self.initial_backoff * self.backoff_multiplier ** max(0, attempt - 1)


@dataclass
class ServiceTask(Node):
    """A task that invokes a registered service (see :mod:`repro.services`).

    ``inputs`` maps service-argument names to expressions over instance
    variables; the return value is stored under ``output_variable``.
    ``async_execution=True`` decouples the invocation from the caller's
    transaction: the token parks, a job is scheduled, and the call happens
    on the next ``run_due_jobs`` pump (Camunda's ``asyncBefore``).
    """

    service: str = ""
    inputs: dict[str, str] = field(default_factory=dict)
    output_variable: str | None = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    async_execution: bool = False
    #: id of a detached activity run to undo this task's completed work
    #: when the instance is compensated (saga orchestration)
    compensation_handler: str | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.service:
            raise ModelError(f"service task {self.id!r} requires a service name")


@dataclass
class ScriptTask(Node):
    """A task that runs a restricted script against instance variables."""

    script: str = ""
    #: id of a detached activity run to undo this task's completed work
    #: when the instance is compensated (saga orchestration)
    compensation_handler: str | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.script.strip():
            raise ModelError(f"script task {self.id!r} requires a script")


@dataclass
class BusinessRuleTask(Node):
    """Evaluate a registered decision table against instance variables.

    The table's outputs are merged into the variables (prefixed names via
    ``result_variable``: outputs land in a dict under that name instead).
    """

    decision: str = ""
    result_variable: str | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.decision:
            raise ModelError(f"business rule task {self.id!r} requires a decision")


@dataclass
class SendTask(Node):
    """Publish a message to the message bus (fire and forget)."""

    message_name: str = ""
    payload_expression: str | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.message_name:
            raise ModelError(f"send task {self.id!r} requires message_name")


@dataclass
class ReceiveTask(Node):
    """Wait for a correlated message; payload is merged into variables."""

    message_name: str = ""
    correlation_expression: str | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.message_name:
            raise ModelError(f"receive task {self.id!r} requires message_name")


@dataclass
class CallActivity(Node):
    """Invoke another deployed process and wait for it to complete.

    ``input_mappings`` maps child variable names to expressions over the
    parent's variables; ``output_mappings`` maps parent variable names to
    expressions over the child's final variables.
    """

    process_key: str = ""
    input_mappings: dict[str, str] = field(default_factory=dict)
    output_mappings: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.process_key:
            raise ModelError(f"call activity {self.id!r} requires a process_key")


@dataclass
class MultiInstanceActivity(Node):
    """Spawn N instances of another process, N decided at run time.

    ``cardinality_expression`` is evaluated against the parent's variables
    when the activity activates (workflow pattern 14: MI with a-priori
    *run-time* knowledge).  Each child receives ``input_mappings`` plus the
    special variable ``instance_index`` (0-based).

    * ``wait_for_completion=True`` (default): the parent token waits for
      all children; each child's ``output_mappings`` result dict is
      appended to the parent list variable ``output_collection``.
    * ``wait_for_completion=False``: fire-and-forget (pattern 12) — the
      token moves on immediately and child outcomes are not collected.
    * ``sequential=True``: children run one at a time, in index order.
    """

    process_key: str = ""
    cardinality_expression: str = ""
    input_mappings: dict[str, str] = field(default_factory=dict)
    output_mappings: dict[str, str] = field(default_factory=dict)
    output_collection: str | None = None
    sequential: bool = False
    wait_for_completion: bool = True

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.process_key:
            raise ModelError(f"multi-instance {self.id!r} requires a process_key")
        if not self.cardinality_expression:
            raise ModelError(
                f"multi-instance {self.id!r} requires a cardinality_expression"
            )
        if not self.wait_for_completion and self.sequential:
            raise ModelError(
                f"multi-instance {self.id!r}: sequential execution requires "
                "wait_for_completion"
            )
        if not self.wait_for_completion and self.output_collection:
            raise ModelError(
                f"multi-instance {self.id!r}: cannot collect outputs without "
                "waiting for completion"
            )


# -- gateways -----------------------------------------------------------------


@dataclass
class ExclusiveGateway(Node):
    """XOR: route each token to exactly one outgoing flow (first guard that
    evaluates true, else the default flow)."""


@dataclass
class ParallelGateway(Node):
    """AND: split spawns one token per outgoing flow; join waits for one
    token on every incoming flow."""


@dataclass
class InclusiveGateway(Node):
    """OR: split activates every outgoing flow whose guard is true (default
    flow if none); join waits for all tokens that can still arrive."""


@dataclass
class EventBasedGateway(Node):
    """Race: the first of the following catch events to trigger wins; the
    other branches are cancelled."""


ACTIVITY_TYPES = (
    UserTask,
    ManualTask,
    ServiceTask,
    ScriptTask,
    BusinessRuleTask,
    SendTask,
    ReceiveTask,
    CallActivity,
    MultiInstanceActivity,
)
GATEWAY_TYPES = (ExclusiveGateway, ParallelGateway, InclusiveGateway, EventBasedGateway)
EVENT_TYPES = (
    StartEvent,
    EndEvent,
    IntermediateTimerEvent,
    IntermediateMessageEvent,
    BoundaryEvent,
)

#: type tag -> node class; the definition codec decodes nodes through it
NODE_CLASSES: dict[str, type[Node]] = {
    cls.__name__: cls for cls in (*ACTIVITY_TYPES, *GATEWAY_TYPES, *EVENT_TYPES)
}
