"""The interpreter core: token-game execution until quiescence.

This module is the shared runtime half of the engine: the advance loop,
token movement, waits, boundary-event routing, message delivery, and
cancellation.  Node *semantics* live in per-family executor modules under
:mod:`repro.engine.executors`, resolved through the node-type → executor
registry — the old ``ExecutionMixin`` god-class is gone.

Every wait enters and leaves here.  :func:`park` parks a token and
schedules the node's timed continuations (timer boundaries, a user
task's deadline); :func:`finish` and :func:`fail` end a wait that its
trigger resolved, and :func:`release_waits` one that an interrupt
withdraws.  No executor parks a token or schedules or cancels those jobs
itself.

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

#: token moves one advance may make before the instance fails as a livelock
MAX_STEPS = 100_000


# -- main loop ---------------------------------------------------------------


def advance(engine, instance: ProcessInstance) -> None:
    """Run the instance until quiescence.

    Re-entrant calls (a child completing synchronously, a message
    delivered to the same instance mid-step) are absorbed: the
    outermost frame keeps draining active tokens.  A case that is not
    running only records its change (a suspended case's moved token or
    migrated version); its resume advances it.
    """
    if instance.state is not InstanceState.RUNNING:
        engine._touch(instance)
        return
    if instance.id in engine._advancing:
        return
    engine._advancing.add(instance.id)
    try:
        definition = engine._definition_of(instance.definition_id)
        steps = 0
        while instance.state is InstanceState.RUNNING:
            active = instance.active_tokens()
            if not active:
                break
            steps += 1
            if steps > MAX_STEPS:
                engine._fail_instance(
                    instance, f"step budget ({MAX_STEPS}) exhausted — livelock?"
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


# -- waits: one way in, one way out (DESIGN.md §Command pipeline) ----------------


def park(
    engine, instance: ProcessInstance, definition: ProcessDefinition,
    token: Token, node: Node, reason: str, deadline: float | None = None,
    **details: Any,
) -> None:
    """Park ``token`` at ``node`` (``waiting_on`` = ``{"reason": reason,
    **details}``) and schedule the node's timed continuations: a
    ``boundary_timer`` job per timer boundary and, for a user task due at
    ``deadline``, its ``deadline`` job (id ``due-<item id>``)."""
    token.wait(reason, **details)
    for boundary in timer_boundaries(definition, node.id):
        engine.scheduler.schedule(
            engine.clock.now() + boundary.duration,
            "boundary_timer",
            instance.id,
            {"token_id": token.id, "boundary_id": boundary.id},
        )
    if deadline is not None:
        item_id = details["work_item_id"]
        engine.scheduler.schedule(
            deadline,
            "deadline",
            instance.id,
            {"token_id": token.id, "work_item_id": item_id},
            job_id=f"due-{item_id}",
        )


def timer_boundaries(definition: ProcessDefinition, node_id: str) -> list:
    return [b for b in definition.boundary_events_of(node_id) if b.kind == "timer"]


def leave(
    engine, instance: ProcessInstance, definition: ProcessDefinition, token: Token
) -> None:
    """End a wait: cancel what :func:`park` scheduled for it (and the
    rest of an event race), then clear ``waiting_on``.  A token that is
    not parked (the inline service path) has nothing to leave."""
    waiting = token.waiting_on
    if not waiting:
        return
    reason = waiting["reason"]
    if reason == "user_task":
        engine.scheduler.cancel(f"due-{waiting['work_item_id']}")
    elif reason == "event_race":
        for job_id in waiting["job_ids"]:
            engine.scheduler.cancel(job_id)
        engine.waits.drop_token(instance.id, token.id)
    if timer_boundaries(definition, token.node_id):
        engine.scheduler.cancel_where(
            lambda job: job.kind == "boundary_timer"
            and job.instance_id == instance.id
            and job.data.get("token_id") == token.id
        )
    token.waiting_on = {}


def finish(
    engine, instance: ProcessInstance, definition: ProcessDefinition,
    token: Token, node: Node, is_activity: bool, **event_data: Any,
) -> None:
    """The way out of a wait that completed: leave it, complete ``node``
    along its one flow, and run the case on."""
    leave(engine, instance, definition, token)
    move_through(engine, instance, definition, token, node, is_activity, **event_data)
    advance(engine, instance)


def fail(
    engine, instance: ProcessInstance, definition: ProcessDefinition,
    token: Token, detail: str, code: str = TECHNICAL_ERROR_CODE,
) -> None:
    """The way out of a wait that failed: leave it, route the error to a
    boundary or fail the instance, and run the case on."""
    leave(engine, instance, definition, token)
    handle_error(engine, instance, definition, token, detail, code)
    advance(engine, instance)


def raise_error(
    engine, instance: ProcessInstance, definition: ProcessDefinition,
    token: Token, message: str | None, code: str = TECHNICAL_ERROR_CODE,
) -> None:
    """The token's task raised an error: record it, then :func:`fail`."""
    engine._record(
        instance,
        EventTypes.ERROR_RAISED,
        node_id=token.node_id,
        code=code,
        message=message,
    )
    fail(engine, instance, definition, token, message or "", code)


def release_waits(
    engine, instance: ProcessInstance, definition: ProcessDefinition, token: Token
) -> None:
    """Interrupt a wait: withdraw the trigger it waits for, then leave it."""
    waiting = token.waiting_on
    reason = waiting.get("reason")
    children: tuple = ()
    if reason == "user_task":
        item = engine.worklist.item(waiting["work_item_id"])
        if not item.state.is_terminal:
            engine.worklist.cancel(item.id)
    elif reason == "message":
        engine.waits.drop_token(instance.id, token.id)
    elif reason == "service":
        # pooled invocation: drop the pending record so its completion
        # (possibly already executing) lands as a counted duplicate
        invocation_id = waiting.get("invocation_id")
        if invocation_id is not None:
            engine.ledger.cancel(invocation_id)
    elif reason == "child":
        children = (waiting.get("child_id"),)
    elif reason == "mi":
        children = tuple(waiting.get("children", ()))
    elif "job_id" in waiting:  # timer, async_service
        engine.scheduler.cancel(waiting["job_id"])
    # leave first: a child's termination must not resume this token
    leave(engine, instance, definition, token)
    for child_id in children:
        child = engine._instances.get(child_id)
        if child is not None and not child.state.is_finished:
            engine._terminate_instance_internal(child, "parent cancelled")


def cancel_token(
    engine, instance: ProcessInstance, token: Token, reason: str
) -> None:
    definition = engine._definition_of(instance.definition_id)
    release_waits(engine, instance, definition, token)
    engine._record(
        instance,
        EventTypes.NODE_CANCELLED,
        node_id=token.node_id,
        is_activity=isinstance(definition.nodes.get(token.node_id), ACTIVITY_TYPES),
        detail=reason,
    )
    instance.remove_token(token)


# -- boundary events --------------------------------------------------------------


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
    release_waits(engine, instance, definition, token)
    flow = single_outgoing(definition, boundary)
    token.resume(flow.target, arrived_via=flow.id)


def handle_error(
    engine,
    instance: ProcessInstance,
    definition: ProcessDefinition,
    token: Token,
    detail: str,
    code: str = TECHNICAL_ERROR_CODE,
) -> None:
    """Route an error (a technical failure unless ``code`` says otherwise)
    to a matching boundary event or fail the instance."""
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
    definition: ProcessDefinition,
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
    park(
        engine, instance, definition, token, node, "message",
        message_name=message_name, correlation=correlation, node_id=node.id,
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


def deliver_message(
    engine, instance: ProcessInstance, token: Token, wait: MessageWait,
    payload: dict[str, Any],
) -> None:
    """A message ends ``token``'s wait: a receive task or catch event
    completes, or the raced catch event wins its event race."""
    definition = engine._definition_of(instance.definition_id)
    engine._c_messages_delivered.inc()
    if wait.race_event is not None:
        node = definition.node(wait.race_event)
        apply_message(engine, instance, node, payload)
        enter(engine, instance, node, is_activity=False)
        finish(engine, instance, definition, token, node, is_activity=False)
        return
    engine.waits.remove(wait)
    node = definition.node(wait.node_id)
    apply_message(engine, instance, node, payload)
    finish(engine, instance, definition, token, node, is_activity=wait.is_activity)


def deliver_retained(engine, instance: ProcessInstance, waits: list) -> None:
    """Deliver bus-retained messages to those of ``waits`` whose token
    still waits (after a resume, or as an event race opens)."""
    for wait in waits:
        token = instance.token(wait.token_id)
        if token is None or token.state is not TokenState.WAITING:
            continue
        message = engine.bus.consume_retained(
            wait.name, wait.correlation, wait.match_any
        )
        if message is not None:
            deliver_message(engine, instance, token, wait, message.payload)


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
