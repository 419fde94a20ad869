"""Canonical history event types.

String constants (not an enum) so events stay trivially JSON-serializable
and extensible by downstream users.
"""


class EventTypes:
    """Namespace of all event types the engine and worklist emit."""

    # instance lifecycle
    INSTANCE_STARTED = "instance.started"
    INSTANCE_COMPLETED = "instance.completed"
    INSTANCE_TERMINATED = "instance.terminated"
    INSTANCE_FAILED = "instance.failed"
    INSTANCE_SUSPENDED = "instance.suspended"
    INSTANCE_RESUMED = "instance.resumed"
    INSTANCE_MIGRATED = "instance.migrated"

    # node lifecycle
    NODE_ENTERED = "node.entered"
    NODE_COMPLETED = "node.completed"
    NODE_CANCELLED = "node.cancelled"

    # variables
    VARIABLES_UPDATED = "variables.updated"

    # work items (human tasks)
    WORKITEM_CREATED = "workitem.created"
    WORKITEM_OFFERED = "workitem.offered"
    WORKITEM_ALLOCATED = "workitem.allocated"
    WORKITEM_STARTED = "workitem.started"
    WORKITEM_COMPLETED = "workitem.completed"
    WORKITEM_CANCELLED = "workitem.cancelled"
    WORKITEM_ESCALATED = "workitem.escalated"

    # timers and messages
    TIMER_SCHEDULED = "timer.scheduled"
    TIMER_FIRED = "timer.fired"
    MESSAGE_SENT = "message.sent"
    MESSAGE_RECEIVED = "message.received"

    # services
    SERVICE_INVOKED = "service.invoked"
    SERVICE_FAILED = "service.failed"
    SERVICE_RETRIED = "service.retried"
    SERVICE_ENQUEUED = "service.enqueued"
    SERVICE_DEAD_LETTERED = "service.dead_lettered"
    SERVICE_REQUEUED = "service.requeued"

    # errors / boundaries
    ERROR_RAISED = "error.raised"
    BOUNDARY_TRIGGERED = "boundary.triggered"

    # compensation (saga orchestration)
    COMPENSATION_TRIGGERED = "compensation.triggered"
    NODE_COMPENSATED = "node.compensated"

    # deployment
    DEFINITION_DEPLOYED = "definition.deployed"
