"""The interpreter core: token-game execution until quiescence.

This module is the shared runtime half of the engine: the advance loop,
token movement, boundary-event routing, message waits, and cancellation.
Node *semantics* live in per-family executor modules under
:mod:`repro.engine.executors`, resolved through the node-type → executor
registry — the old ``ExecutionMixin`` god-class is gone.

Every function takes the engine as its first argument; nothing here
holds state.  All calls happen under the engine's dispatch serialization
gate (see :mod:`repro.engine.dispatch`), so the interpreter remains a
logical single writer even with concurrent clients.
"""

from __future__ import annotations

from typing import Any

from repro.engine.errors import EngineError, NoFlowSelectedError
from repro.engine.executors.registry import EXECUTORS
from repro.engine.instance import InstanceState, ProcessInstance, Token, TokenState
from repro.engine.waits import MessageWait
from repro.expr import compile_expression
from repro.history.events import EventTypes
from repro.model.elements import ACTIVITY_TYPES, BoundaryEvent, Node, SequenceFlow
from repro.model.process import ProcessDefinition

#: error code the engine synthesizes for technical (non-BPMN) failures.
TECHNICAL_ERROR_CODE = "TECHNICAL_FAILURE"


# -- main loop ---------------------------------------------------------------


def advance(engine, instance: ProcessInstance) -> None:
    """Run the instance until quiescence.

    Re-entrant calls (a child completing synchronously, a message
    delivered to the same instance mid-step) are absorbed: the
    outermost frame keeps draining active tokens.
    """
    if instance.state is not InstanceState.RUNNING:
        return
    if instance.id in engine._advancing:
        return
    engine._advancing.add(instance.id)
    try:
        definition = engine._definition_of(instance)
        steps = 0
        while instance.state is InstanceState.RUNNING:
            active = instance.active_tokens()
            if not active:
                break
            steps += 1
            if steps > engine.max_steps:
                engine._fail_instance(
                    instance,
                    f"step budget ({engine.max_steps}) exhausted — livelock?",
                )
                break
            engine._c_token_moves.inc()
            execute_token(engine, instance, definition, active[0])
        if instance.state is InstanceState.RUNNING and not instance.tokens:
            engine._complete_instance(instance)
    finally:
        engine._advancing.discard(instance.id)
    engine._touch(instance)


def execute_token(
    engine, instance: ProcessInstance, definition: ProcessDefinition, token: Token
) -> None:
    """Execute one active token's node via the executor registry."""
    node = definition.node(token.node_id)
    handler = EXECUTORS.get(type(node))
    if handler is None:
        raise EngineError(f"no executor for node type {type(node).__name__}")
    tracer = engine._tracer
    if not tracer.enabled:
        handler(engine, instance, definition, token, node)
        return
    # manual span lifecycle (no context-manager dispatch): this is the
    # hottest instrumented site in the engine
    span = tracer.span(
        "node",
        parent=engine._instance_spans.get(instance.id),
        node_id=node.id,
        node_type=node.type_name,
    )
    stack = tracer._stack
    stack.append(span)
    try:
        handler(engine, instance, definition, token, node)
    except BaseException:
        if stack and stack[-1] is span:
            stack.pop()
        span.finish("error")
        raise
    else:
        if stack and stack[-1] is span:
            stack.pop()
        span.end = tracer._now()
        if span.status == "unset":
            span.status = "ok"
        for exporter in tracer.exporters:
            exporter.export(span)


# -- movement helpers ----------------------------------------------------------


def single_outgoing(definition: ProcessDefinition, node: Node) -> SequenceFlow:
    outgoing = definition.outgoing(node.id)
    if len(outgoing) != 1:
        raise EngineError(
            f"node {node.id!r} needs exactly one outgoing flow, has {len(outgoing)}"
        )
    return outgoing[0]


def move_through(
    engine,
    instance: ProcessInstance,
    definition: ProcessDefinition,
    token: Token,
    node: Node,
    is_activity: bool,
    **event_data: Any,
) -> None:
    """Complete a 1-out node and move the token along its flow."""
    engine._record(
        instance,
        EventTypes.NODE_COMPLETED,
        node_id=node.id,
        is_activity=is_activity,
        **event_data,
    )
    if is_activity:
        record_compensation(engine, instance, node)
    flow = single_outgoing(definition, node)
    token.resume(flow.target, arrived_via=flow.id)


def record_compensation(engine, instance: ProcessInstance, node: Node) -> None:
    """Log a completed activity's compensation handler for later undo.

    The entry joins the instance's persisted ``compensations`` list (same
    record as the token state, same group commit), so the saga log
    survives a crash exactly as far as the completion it describes.
    """
    handler_id = getattr(node, "compensation_handler", None)
    if handler_id is None:
        return
    instance.compensations.append(
        {"node_id": node.id, "handler_id": handler_id}
    )


def enter(
    engine,
    instance: ProcessInstance,
    node: Node,
    is_activity: bool,
    **event_data: Any,
) -> None:
    counter = engine._node_counters.get(node.type_name)
    if counter is None:
        counter = engine._node_counters[node.type_name] = (
            engine.obs.registry.counter("engine.nodes_executed." + node.type_name)
        )
    counter.inc()
    tracer = engine._tracer
    if tracer.enabled:
        stack = tracer._stack
        if stack:
            # direct write, not .set(): this runs once per executed node
            stack[-1].attributes["entered"] = True
    engine._record(
        instance,
        EventTypes.NODE_ENTERED,
        node_id=node.id,
        is_activity=is_activity,
        **event_data,
    )


def performers_of(
    engine, instance: ProcessInstance, node_ids: tuple[str, ...]
) -> set[str]:
    """Resources who completed any of the named nodes in this instance."""
    wanted = set(node_ids)
    return {
        event.data["resource"]
        for event in engine.history.instance_events(instance.id)
        if event.type == EventTypes.NODE_COMPLETED
        and event.data.get("node_id") in wanted
        and event.data.get("resource")
    }


# -- boundary events --------------------------------------------------------------


def schedule_boundary_timers(
    engine, instance: ProcessInstance, definition: ProcessDefinition,
    token: Token, node: Node,
) -> None:
    for boundary in definition.boundary_events_of(node.id):
        if boundary.kind == "timer":
            engine.scheduler.schedule(
                engine.clock.now() + boundary.duration,
                "boundary_timer",
                instance.id,
                {"token_id": token.id, "boundary_id": boundary.id},
            )


def fire_boundary_timer(
    engine, instance: ProcessInstance, definition: ProcessDefinition,
    token: Token, job,
) -> None:
    """A ``boundary_timer`` job came due: interrupt the host activity,
    unless the token already left it (a stale job)."""
    boundary = definition.node(job.data["boundary_id"])
    if token.node_id != boundary.attached_to:
        return
    engine._c_timers_fired.inc()
    engine._record(
        instance, EventTypes.TIMER_FIRED, node_id=boundary.id, job_id=job.id
    )
    trigger_boundary(
        engine, instance, definition, boundary, token, detail="boundary timer"
    )
    advance(engine, instance)


def cancel_boundary_jobs(engine, instance: ProcessInstance, token: Token) -> None:
    engine.scheduler.cancel_where(
        lambda job: job.kind == "boundary_timer"
        and job.instance_id == instance.id
        and job.data.get("token_id") == token.id
    )


def trigger_boundary(
    engine,
    instance: ProcessInstance,
    definition: ProcessDefinition,
    boundary: BoundaryEvent,
    token: Token,
    detail: str = "",
) -> None:
    """Interrupt the host activity and route the token via the boundary."""
    engine._record(
        instance,
        EventTypes.BOUNDARY_TRIGGERED,
        node_id=boundary.id,
        attached_to=boundary.attached_to,
        kind=boundary.kind,
        detail=detail,
    )
    engine._record(
        instance,
        EventTypes.NODE_CANCELLED,
        node_id=boundary.attached_to,
        is_activity=True,
    )
    release_waits(engine, instance, token)
    flow = single_outgoing(definition, boundary)
    token.resume(flow.target, arrived_via=flow.id)


def handle_error(
    engine,
    instance: ProcessInstance,
    definition: ProcessDefinition,
    token: Token,
    code: str,
    detail: str,
) -> None:
    """Route an error to a matching boundary event or fail the instance."""
    node = definition.nodes.get(token.node_id)
    if node is not None:
        boundaries = definition.boundary_events_of(node.id)
        match = next(
            (b for b in boundaries if b.kind == "error" and b.error_code == code),
            None,
        ) or next(
            (b for b in boundaries if b.kind == "error" and b.error_code is None),
            None,
        )
        if match is not None:
            trigger_boundary(engine, instance, definition, match, token, detail=detail)
            return
    engine._fail_instance(instance, f"{code}: {detail}")


# -- messages ------------------------------------------------------------------------------


def correlation_of(
    expression: str | None, variables: dict[str, Any]
) -> tuple[Any, bool]:
    """Evaluate a correlation expression; (value, match_any)."""
    if expression is None:
        return None, True
    return compile_expression(expression).evaluate(variables), False


def await_message(
    engine,
    instance: ProcessInstance,
    token: Token,
    node: Node,
    message_name: str,
    correlation_expression: str | None,
    is_activity: bool,
) -> None:
    correlation, match_any = correlation_of(
        correlation_expression, instance.variables
    )
    retained = engine.bus.consume_retained(message_name, correlation, match_any)
    if retained is not None:
        # a retained message satisfying the wait *is* a delivery — count
        # it like the live-subscription path does
        engine._c_messages_delivered.inc()
        apply_message(engine, instance, node, retained.payload)
        definition = engine._definition_of(instance)
        move_through(engine, instance, definition, token, node, is_activity=is_activity)
        return
    engine.waits.subscribe(
        instance.id,
        token.id,
        message_name,
        correlation,
        match_any,
        node_id=node.id,
        is_activity=is_activity,
    )
    token.wait(
        "message",
        message_name=message_name,
        correlation=correlation,
        node_id=node.id,
    )


def apply_message(
    engine, instance: ProcessInstance, node: Node, payload: dict[str, Any]
) -> None:
    if payload:
        instance.variables.update(payload)
    engine._record(
        instance,
        EventTypes.MESSAGE_RECEIVED,
        node_id=node.id,
        payload_keys=sorted(payload.keys()),
    )


def deliver_race_message(
    engine,
    instance: ProcessInstance,
    definition: ProcessDefinition,
    token: Token,
    wait: MessageWait,
    payload: dict[str, Any],
) -> None:
    """A raced catch event won via message: settle the race."""
    event = definition.node(wait.race_event)
    settle_race(engine, instance, token)
    apply_message(engine, instance, event, payload)
    enter(engine, instance, event, is_activity=False)
    move_through(engine, instance, definition, token, event, is_activity=False)
    advance(engine, instance)


def settle_race(engine, instance: ProcessInstance, token: Token) -> None:
    """Cancel all pending subscriptions of an event race."""
    job_ids = set(token.waiting_on.get("job_ids", ()))
    for job_id in job_ids:
        engine.scheduler.cancel(job_id)
    engine.waits.drop_token(instance.id, token.id)


# -- token cancellation ------------------------------------------------------------------------


def release_waits(engine, instance: ProcessInstance, token: Token) -> None:
    """Cancel everything a waiting token is parked on."""
    reason = token.waiting_on.get("reason")
    if reason == "user_task":
        item_id = token.waiting_on.get("work_item_id")
        if item_id is not None:
            try:
                item = engine.worklist.item(item_id)
            except Exception:  # noqa: BLE001 - already gone is fine
                item = None
            if item is not None and not item.state.is_terminal:
                engine.worklist.cancel(item_id)
    elif reason == "timer":
        job_id = token.waiting_on.get("job_id")
        if job_id is not None:
            engine.scheduler.cancel(job_id)
    elif reason == "message":
        engine.waits.drop_token(instance.id, token.id)
    elif reason == "event_race":
        settle_race(engine, instance, token)
    elif reason == "service":
        # pooled invocation: drop the pending record so its completion
        # (possibly already executing) lands as a counted duplicate
        invocation_id = token.waiting_on.get("invocation_id")
        if invocation_id is not None:
            engine.ledger.cancel(invocation_id)
    elif reason == "child":
        child_id = token.waiting_on.get("child_id")
        # clear the linkage FIRST so the child's completion callback
        # cannot resume the token we are cancelling
        token.waiting_on = {}
        if child_id is not None:
            child = engine._instances.get(child_id)
            if child is not None and not child.state.is_finished:
                engine._terminate_instance_internal(child, "parent cancelled")
    elif reason == "mi":
        children = list(token.waiting_on.get("children", ()))
        token.waiting_on = {}
        for child_id in children:
            child = engine._instances.get(child_id)
            if child is not None and not child.state.is_finished:
                engine._terminate_instance_internal(child, "parent cancelled")
    cancel_boundary_jobs(engine, instance, token)
    token.waiting_on = {}


def cancel_token(
    engine, instance: ProcessInstance, token: Token, reason: str
) -> None:
    release_waits(engine, instance, token)
    engine._record(
        instance,
        EventTypes.NODE_CANCELLED,
        node_id=token.node_id,
        is_activity=isinstance(
            engine._definition_of(instance).nodes.get(token.node_id), ACTIVITY_TYPES
        ),
        detail=reason,
    )
    instance.remove_token(token)


# -- static reachability cache ---------------------------------------------------------------------


def can_reach(
    engine, definition: ProcessDefinition, source: str, target: str
) -> bool:
    """Static flow-graph reachability (includes boundary attachments)."""
    cache = engine._reach_cache.setdefault(definition.identifier, {})
    key = (source, target)
    cached = cache.get(key)
    if cached is not None:
        return cached
    seen: set[str] = set()
    stack = [source]
    found = False
    while stack:
        node_id = stack.pop()
        if node_id == target:
            found = True
            break
        if node_id in seen:
            continue
        seen.add(node_id)
        for flow in definition.outgoing(node_id):
            stack.append(flow.target)
        for boundary in definition.boundary_events_of(node_id):
            stack.append(boundary.id)
    cache[key] = found
    return found


def _select_exclusive_flow(
    definition: ProcessDefinition,
    node: Node,
    variables: dict[str, Any],
) -> SequenceFlow:
    """XOR flow selection (shared with migration sanity checks/tests)."""
    outgoing = definition.outgoing(node.id)
    if len(outgoing) == 1:
        return outgoing[0]
    default = None
    for flow in outgoing:
        if flow.is_default:
            default = flow
            continue
        if flow.condition is None:
            return flow  # unguarded: always true (validator warns)
        if compile_expression(flow.condition).evaluate_bool(variables):
            return flow
    if default is not None:
        return default
    raise NoFlowSelectedError(node.id, variables)
