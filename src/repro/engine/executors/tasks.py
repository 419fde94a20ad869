"""Executors for task nodes: human, scripted, service, rule, messaging."""

from __future__ import annotations

from typing import Any

from repro.engine import execution as core
from repro.engine.executors.registry import executor
from repro.expr import ExpressionError, compile_expression, run_script
from repro.history.events import EventTypes
from repro.model.elements import (
    BusinessRuleTask,
    ManualTask,
    ReceiveTask,
    ScriptTask,
    SendTask,
    ServiceTask,
    UserTask,
)


@executor(UserTask)
def execute_user_task(engine, instance, definition, token, node: UserTask) -> None:
    core.enter(engine, instance, node, is_activity=True)
    data: dict[str, Any] = {
        "token_id": token.id,
        "form_fields": list(node.form_fields),
    }
    if node.separate_from:
        excluded = core.performers_of(engine, instance, node.separate_from)
        if excluded:
            data["excluded_resources"] = sorted(excluded)
    item = engine.worklist.create_item(
        instance_id=instance.id,
        node_id=node.id,
        role=node.role,
        priority=node.priority,
        due_seconds=node.due_seconds,
        data=data,
    )
    core.park(
        engine, instance, definition, token, node, "user_task",
        deadline=item.due_at, work_item_id=item.id, node_id=node.id,
    )


def complete_user_task(engine, item_id: str, result: dict[str, Any]):
    """Complete a work item and move its waiting token on.

    The item's result joins the case variables before the task completes,
    with the completing resource on ``node.completed``.  Returns the item.
    """
    item = engine.worklist.complete(item_id, result)
    instance = engine._instances.get(item.instance_id)
    if instance is None or instance.state.is_finished:
        return item
    token = instance.token(item.data.get("token_id"))
    if token is None or token.waiting_on.get("work_item_id") != item.id:
        return item
    definition = engine._definition_of(instance.definition_id)
    node = definition.node(token.node_id)
    if item.result:
        instance.variables.update(item.result)
        engine._record(
            instance,
            EventTypes.VARIABLES_UPDATED,
            node_id=node.id,
            keys=sorted(item.result.keys()),
        )
    core.finish(
        engine, instance, definition, token, node, is_activity=True,
        resource=item.allocated_to,
    )
    return item


def fire_deadline(engine, instance, definition, token, job) -> None:
    """A ``deadline`` job came due: escalate the waiting user task's item."""
    item_id = job.data["work_item_id"]
    if token.waiting_on.get("work_item_id") == item_id:
        engine.worklist.escalate(item_id)


@executor(ManualTask)
def execute_manual_task(engine, instance, definition, token, node: ManualTask) -> None:
    # performed entirely outside any system: the engine only records it
    core.enter(engine, instance, node, is_activity=True)
    core.move_through(engine, instance, definition, token, node, is_activity=True)


@executor(ScriptTask)
def execute_script_task(engine, instance, definition, token, node: ScriptTask) -> None:
    core.enter(engine, instance, node, is_activity=True)
    scratch = dict(instance.variables)
    try:
        run_script(node.script, scratch)
    except ExpressionError as exc:
        core.raise_error(engine, instance, definition, token, str(exc))
        return
    instance.variables = scratch
    engine._record(
        instance, EventTypes.VARIABLES_UPDATED, node_id=node.id,
        keys=sorted(scratch.keys()),
    )
    core.move_through(engine, instance, definition, token, node, is_activity=True)


@executor(ServiceTask)
def execute_service_task(engine, instance, definition, token, node: ServiceTask) -> None:
    core.enter(engine, instance, node, is_activity=True)
    if node.async_execution:
        # decouple from the caller: park the token, invoke on the next pump
        job = engine.scheduler.schedule(
            engine.clock.now(),
            "async_service",
            instance.id,
            {"token_id": token.id, "node_id": node.id},
        )
        core.park(
            engine, instance, definition, token, node, "async_service",
            job_id=job.id, node_id=node.id,
        )
        return
    pool = engine.workers
    if pool is not None and pool.admit(node.service):
        enqueue_service_invocation(engine, instance, definition, token, node)
        return
    # no pool, or the service's queue is full: the synchronous inline
    # path doubles as the load-leveling fallback
    perform_service_invocation(engine, instance, definition, token, node)


def fire_async_service(engine, instance, definition, token, job) -> None:
    """An ``async_service`` job came due: invoke the parked service task."""
    if token.waiting_on.get("job_id") != job.id:
        return
    node = definition.node(job.data["node_id"])
    perform_service_invocation(engine, instance, definition, token, node)


def enqueue_service_invocation(
    engine, instance, definition, token, node: ServiceTask
) -> None:
    """Park the token on a durable invocation record for the worker pool.

    Inputs are evaluated *now*, under the lock, against the variables the
    token saw — the pool thread must not read mutable instance state.
    """
    try:
        arguments = {
            name: compile_expression(expr).evaluate(instance.variables)
            for name, expr in node.inputs.items()
        }
    except ExpressionError as exc:
        core.handle_error(engine, instance, definition, token, str(exc))
        return
    # the record is persisted by the surrounding dispatch's group commit
    # and submitted to the pool only after that commit — at-least-once
    # from the moment the client call returns
    record = engine.ledger.enqueue(
        instance.id, token.id, node, arguments, engine.clock.now()
    )
    core.park(
        engine, instance, definition, token, node, "service",
        invocation_id=record.id, node_id=node.id,
    )
    engine._record(
        instance,
        EventTypes.SERVICE_ENQUEUED,
        node_id=node.id,
        service=node.service,
        invocation_id=record.id,
    )
    engine._touch(instance)


def apply_invocation_outcome(
    engine, instance, definition, token, node: ServiceTask, record, cmd
) -> str:
    """Land a pooled invocation's outcome on its (still waiting) token.

    The asynchronous twin of :func:`perform_service_invocation`'s tail:
    ``cmd`` is the ``CompleteServiceInvocation`` carrying what the pool
    produced for ``record``, already taken off the ledger.  Returns the
    completion status.
    """
    if cmd.outcome == "failure":
        # poison invocation: retries exhausted — park it in the DLQ with
        # the token still waiting, so an operator requeue (or a boundary
        # timer on the activity) can still resolve the token
        engine.ledger.dead_letter(
            record, cmd.error, cmd.attempts, engine.clock.now()
        )
        engine._record(
            instance,
            EventTypes.SERVICE_FAILED,
            node_id=node.id,
            service=record.service,
            attempts=cmd.attempts,
            error=cmd.error,
        )
        engine._record(
            instance,
            EventTypes.SERVICE_DEAD_LETTERED,
            node_id=node.id,
            service=record.service,
            invocation_id=record.id,
            error=cmd.error,
        )
        engine.obs.event(
            "workers.dead_letter",
            service=record.service,
            invocation_id=record.id,
            error=cmd.error,
        )
        engine._touch(instance)
        return "dead_lettered"
    engine.ledger.settle(record.service)
    engine._record(
        instance,
        EventTypes.SERVICE_INVOKED,
        node_id=node.id,
        service=record.service,
        invocation_id=record.id,
    )
    if cmd.outcome == "bpmn_error":
        code = cmd.error_code or core.TECHNICAL_ERROR_CODE
        core.raise_error(engine, instance, definition, token, cmd.error, code)
        return "error_routed"
    finish_service(engine, instance, definition, token, node, cmd.value, cmd.attempts)
    return "completed"


def perform_service_invocation(
    engine, instance, definition, token, node: ServiceTask
) -> None:
    """Invoke the bound service and route success/failure.

    Also the landing point for ``async_service`` jobs (see
    :func:`fire_async_service`), hence a module function rather than a
    closure.  Its exits, :func:`core.finish` and :func:`core.fail`, end
    that job's ``async_service`` wait; inline, nothing is parked.
    """
    from repro.engine.errors import BpmnError  # cycle guard

    try:
        arguments = {
            name: compile_expression(expr).evaluate(instance.variables)
            for name, expr in node.inputs.items()
        }
    except ExpressionError as exc:
        core.fail(engine, instance, definition, token, str(exc))
        return
    engine._record(
        instance, EventTypes.SERVICE_INVOKED, node_id=node.id, service=node.service
    )
    try:
        result = engine.invoker.invoke(node.service, arguments, retry=node.retry)
    except BpmnError as exc:
        core.raise_error(engine, instance, definition, token, exc.detail, exc.code)
        return
    if not result.succeeded:
        engine._record(
            instance,
            EventTypes.SERVICE_FAILED,
            node_id=node.id,
            service=node.service,
            attempts=result.attempts,
            error=result.error,
        )
        core.fail(
            engine, instance, definition, token, result.error or "service failed"
        )
        return
    finish_service(
        engine, instance, definition, token, node, result.value, result.attempts
    )


def finish_service(
    engine, instance, definition, token, node: ServiceTask, value, attempts: int
) -> None:
    """The service returned ``value``: store it, complete the task."""
    if node.output_variable is not None:
        instance.variables[node.output_variable] = value
        engine._record(
            instance,
            EventTypes.VARIABLES_UPDATED,
            node_id=node.id,
            keys=[node.output_variable],
        )
    core.finish(
        engine, instance, definition, token, node, is_activity=True, attempts=attempts
    )


@executor(BusinessRuleTask)
def execute_business_rule_task(
    engine, instance, definition, token, node: BusinessRuleTask
) -> None:
    from repro.decisions.table import DecisionError

    core.enter(engine, instance, node, is_activity=True)
    try:
        table = engine.decisions.get(node.decision)
        outputs = table.evaluate(instance.variables)
    except DecisionError as exc:
        core.raise_error(engine, instance, definition, token, str(exc))
        return
    if node.result_variable is not None:
        instance.variables[node.result_variable] = outputs
        changed = [node.result_variable]
    else:
        instance.variables.update(outputs)
        changed = sorted(outputs)
    engine._record(
        instance, EventTypes.VARIABLES_UPDATED, node_id=node.id, keys=changed
    )
    core.move_through(
        engine, instance, definition, token, node, is_activity=True,
        decision=node.decision,
    )


@executor(SendTask)
def execute_send_task(engine, instance, definition, token, node: SendTask) -> None:
    core.enter(engine, instance, node, is_activity=True)
    payload: dict[str, Any] = {}
    if node.payload_expression is not None:
        try:
            value = compile_expression(node.payload_expression).evaluate(
                instance.variables
            )
        except ExpressionError as exc:
            core.handle_error(engine, instance, definition, token, str(exc))
            return
        payload = value if isinstance(value, dict) else {"value": value}
    correlation = payload.get("correlation")
    engine._publish_message(node.message_name, correlation, payload)
    engine._record(
        instance,
        EventTypes.MESSAGE_SENT,
        node_id=node.id,
        message_name=node.message_name,
        correlation=correlation,
    )
    core.move_through(engine, instance, definition, token, node, is_activity=True)


@executor(ReceiveTask)
def execute_receive_task(engine, instance, definition, token, node: ReceiveTask) -> None:
    core.enter(engine, instance, node, is_activity=True)
    core.await_message(
        engine,
        instance,
        definition,
        token,
        node,
        node.message_name,
        node.correlation_expression,
        is_activity=True,
    )
