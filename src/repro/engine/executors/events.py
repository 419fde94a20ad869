"""Executors for event nodes: start, end, timer, message."""

from __future__ import annotations

from repro.engine import execution as core
from repro.engine.executors.registry import executor
from repro.history.events import EventTypes
from repro.model.elements import (
    EndEvent,
    IntermediateMessageEvent,
    IntermediateTimerEvent,
    StartEvent,
)


@executor(StartEvent)
def execute_start(engine, instance, definition, token, node: StartEvent) -> None:
    core.enter(engine, instance, node, is_activity=False)
    core.move_through(engine, instance, definition, token, node, is_activity=False)


@executor(EndEvent)
def execute_end(engine, instance, definition, token, node: EndEvent) -> None:
    core.enter(engine, instance, node, is_activity=False)
    engine._record(
        instance, EventTypes.NODE_COMPLETED, node_id=node.id, is_activity=False
    )
    instance.remove_token(token)
    if node.terminate and instance.tokens:
        for other in list(instance.tokens):
            core.cancel_token(engine, instance, other, reason="terminate end event")
        engine._terminate_instance(instance, f"terminate end event {node.id!r}")
        return
    if not instance.tokens:
        engine._complete_instance(instance)


@executor(IntermediateTimerEvent)
def execute_timer_event(
    engine, instance, definition, token, node: IntermediateTimerEvent
) -> None:
    core.enter(engine, instance, node, is_activity=False)
    due = engine.clock.now() + node.duration
    job = engine.scheduler.schedule(
        due,
        "timer",
        instance.id,
        {"token_id": token.id, "node_id": node.id},
    )
    core.park(
        engine, instance, definition, token, node, "timer",
        job_id=job.id, node_id=node.id,
    )
    engine._record(
        instance,
        EventTypes.TIMER_SCHEDULED,
        node_id=node.id,
        due=due,
        job_id=job.id,
    )


def fire_timer(engine, instance, definition, token, job) -> None:
    """A ``timer`` job came due: move the token parked on it onward."""
    if token.waiting_on.get("job_id") != job.id:
        return
    node = definition.node(job.data["node_id"])
    engine._c_timers_fired.inc()
    engine._record(instance, EventTypes.TIMER_FIRED, node_id=node.id, job_id=job.id)
    core.finish(engine, instance, definition, token, node, is_activity=False)


@executor(IntermediateMessageEvent)
def execute_message_event(
    engine, instance, definition, token, node: IntermediateMessageEvent
) -> None:
    core.enter(engine, instance, node, is_activity=False)
    core.await_message(
        engine,
        instance,
        definition,
        token,
        node,
        node.message_name,
        node.correlation_expression,
        is_activity=False,
    )
