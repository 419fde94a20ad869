"""Executors for gateway nodes: exclusive, parallel, inclusive, event-based."""

from __future__ import annotations

from repro.engine import execution as core
from repro.engine.errors import EngineError, NoFlowSelectedError
from repro.engine.executors.registry import executor
from repro.engine.instance import ProcessInstance, Token
from repro.expr import ExpressionError, compile_expression
from repro.history.events import EventTypes
from repro.model.elements import (
    EventBasedGateway,
    ExclusiveGateway,
    InclusiveGateway,
    IntermediateMessageEvent,
    IntermediateTimerEvent,
    Node,
    ParallelGateway,
    ReceiveTask,
)
from repro.model.process import ProcessDefinition


@executor(ExclusiveGateway)
def execute_exclusive(engine, instance, definition, token, node: ExclusiveGateway) -> None:
    core.enter(engine, instance, node, is_activity=False)
    try:
        flow = core._select_exclusive_flow(definition, node, instance.variables)
    except (NoFlowSelectedError, ExpressionError) as exc:
        core.handle_error(engine, instance, definition, token, str(exc))
        return
    engine._record(
        instance, EventTypes.NODE_COMPLETED, node_id=node.id, is_activity=False,
        selected_flow=flow.id,
    )
    token.resume(flow.target, arrived_via=flow.id)


@executor(ParallelGateway)
def execute_parallel(engine, instance, definition, token, node: ParallelGateway) -> None:
    incoming = definition.incoming(node.id)
    outgoing = definition.outgoing(node.id)
    if len(incoming) > 1:
        # join side: wait for one token per incoming flow
        arrived = {
            t.arrived_via
            for t in instance.tokens_at(node.id)
            if t.arrived_via is not None
            and (t is token or t.waiting_on.get("reason") == "join")
        }
        if arrived < {f.id for f in incoming}:
            core.park(
                engine, instance, definition, token, node, "join", node_id=node.id
            )
            return
        # all partners present: consume them, keep this token
        core.enter(engine, instance, node, is_activity=False)
        for other in list(instance.tokens_at(node.id)):
            if other is not token:
                instance.remove_token(other)
    else:
        core.enter(engine, instance, node, is_activity=False)
    engine._record(
        instance, EventTypes.NODE_COMPLETED, node_id=node.id, is_activity=False
    )
    first, *rest = outgoing
    for flow in rest:
        instance.new_token(flow.target, arrived_via=flow.id)
    token.resume(first.target, arrived_via=first.id)


@executor(InclusiveGateway)
def execute_inclusive(engine, instance, definition, token, node: InclusiveGateway) -> None:
    incoming = definition.incoming(node.id)
    outgoing = definition.outgoing(node.id)
    if len(incoming) > 1:
        if not inclusive_join_ready(engine, instance, definition, node, token):
            core.park(
                engine, instance, definition, token, node, "join", node_id=node.id
            )
            return
        core.enter(engine, instance, node, is_activity=False)
        for other in list(instance.tokens_at(node.id)):
            if other is not token:
                instance.remove_token(other)
    else:
        core.enter(engine, instance, node, is_activity=False)
    if len(outgoing) == 1:
        engine._record(
            instance, EventTypes.NODE_COMPLETED, node_id=node.id, is_activity=False
        )
        flow = outgoing[0]
        token.resume(flow.target, arrived_via=flow.id)
        return
    # split: activate every flow whose guard holds; default if none
    try:
        chosen = []
        default = None
        for flow in outgoing:
            if flow.is_default:
                default = flow
                continue
            if flow.condition is None or compile_expression(
                flow.condition
            ).evaluate_bool(instance.variables):
                chosen.append(flow)
        if not chosen:
            if default is None:
                raise NoFlowSelectedError(node.id, instance.variables)
            chosen = [default]
    except (NoFlowSelectedError, ExpressionError) as exc:
        core.handle_error(engine, instance, definition, token, str(exc))
        return
    engine._record(
        instance, EventTypes.NODE_COMPLETED, node_id=node.id, is_activity=False,
        selected_flows=[f.id for f in chosen],
    )
    first, *rest = chosen
    for flow in rest:
        instance.new_token(flow.target, arrived_via=flow.id)
    token.resume(first.target, arrived_via=first.id)


def inclusive_join_ready(
    engine,
    instance: ProcessInstance,
    definition: ProcessDefinition,
    node: Node,
    arriving: Token,
) -> bool:
    """OR-join: ready when no token elsewhere can still reach the join."""
    for other in instance.tokens:
        if other is arriving:
            continue
        if other.node_id == node.id:
            continue  # already here, will be merged
        if core.can_reach(engine, definition, other.node_id, node.id):
            return False
    return True


@executor(EventBasedGateway)
def execute_event_gateway(
    engine, instance, definition, token, node: EventBasedGateway
) -> None:
    core.enter(engine, instance, node, is_activity=False)
    job_ids: list[str] = []
    wait_count = 0
    for flow in definition.outgoing(node.id):
        target = definition.node(flow.target)
        if isinstance(target, IntermediateTimerEvent):
            job = engine.scheduler.schedule(
                engine.clock.now() + target.duration,
                "event_race_timer",
                instance.id,
                {
                    "token_id": token.id,
                    "gateway_id": node.id,
                    "event_id": target.id,
                },
            )
            job_ids.append(job.id)
        elif isinstance(target, (IntermediateMessageEvent, ReceiveTask)):
            correlation, match_any = core.correlation_of(
                target.correlation_expression, instance.variables
            )
            engine.waits.subscribe(
                instance.id,
                token.id,
                target.message_name,
                correlation,
                match_any,
                race_gateway=node.id,
                race_event=target.id,
            )
            wait_count += 1
        else:
            raise EngineError(
                f"event gateway {node.id!r} leads to non-catch node {target.id!r}"
            )
    if not job_ids and not wait_count:
        raise EngineError(f"event gateway {node.id!r} has nothing to wait for")
    core.park(
        engine, instance, definition, token, node, "event_race",
        gateway_id=node.id, job_ids=job_ids,
    )
    # a raced message may already be retained on the bus — try immediately
    waits = engine.waits.of_token(instance.id, token.id)
    core.deliver_retained(engine, instance, waits)


def fire_race_timer(engine, instance, definition, token, job) -> None:
    """An ``event_race_timer`` job came due: its timer event wins the
    race the event-based gateway started, if the race is still open."""
    if token.waiting_on.get("reason") != "event_race":
        return
    event = definition.node(job.data["event_id"])
    engine._c_timers_fired.inc()
    engine._record(instance, EventTypes.TIMER_FIRED, node_id=event.id, job_id=job.id)
    core.enter(engine, instance, event, is_activity=False)
    core.finish(engine, instance, definition, token, event, is_activity=False)
