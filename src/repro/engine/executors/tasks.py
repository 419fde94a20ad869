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
    token.wait("user_task", work_item_id=item.id, node_id=node.id)
    core.schedule_boundary_timers(engine, instance, definition, token, node)


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
        engine._record(
            instance,
            EventTypes.ERROR_RAISED,
            node_id=node.id,
            code=core.TECHNICAL_ERROR_CODE,
            message=str(exc),
        )
        core.handle_error(
            engine, instance, definition, token, core.TECHNICAL_ERROR_CODE, str(exc)
        )
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
    core.schedule_boundary_timers(engine, instance, definition, token, node)
    if node.async_execution:
        # decouple from the caller: park the token, invoke on the next pump
        job = engine.scheduler.schedule(
            engine.clock.now(),
            "async_service",
            instance.id,
            {"token_id": token.id, "node_id": node.id},
        )
        token.wait("async_service", job_id=job.id, node_id=node.id)
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
    token.waiting_on = {}
    perform_service_invocation(engine, instance, definition, token, node)
    core.advance(engine, instance)


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
        core.cancel_boundary_jobs(engine, instance, token)
        core.handle_error(
            engine, instance, definition, token, core.TECHNICAL_ERROR_CODE, str(exc)
        )
        return
    # the record is persisted by the surrounding dispatch's group commit
    # and submitted to the pool only after that commit — at-least-once
    # from the moment the client call returns
    record = engine.ledger.enqueue(
        instance.id, token.id, node, arguments, engine.clock.now()
    )
    token.wait("service", invocation_id=record.id, node_id=node.id)
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
    core.cancel_boundary_jobs(engine, instance, token)
    token.waiting_on = {}
    if cmd.outcome == "bpmn_error":
        code = cmd.error_code or core.TECHNICAL_ERROR_CODE
        engine._record(
            instance,
            EventTypes.ERROR_RAISED,
            node_id=node.id,
            code=code,
            message=cmd.error,
        )
        core.handle_error(engine, instance, definition, token, code, cmd.error or "")
        status = "error_routed"
    else:
        if node.output_variable is not None:
            instance.variables[node.output_variable] = cmd.value
            engine._record(
                instance,
                EventTypes.VARIABLES_UPDATED,
                node_id=node.id,
                keys=[node.output_variable],
            )
        core.move_through(
            engine, instance, definition, token, node, is_activity=True,
            attempts=cmd.attempts,
        )
        status = "completed"
    core.advance(engine, instance)
    engine._touch(instance)
    return status


def perform_service_invocation(
    engine, instance, definition, token, node: ServiceTask
) -> None:
    """Invoke the bound service and route success/failure.

    Also the landing point for ``async_service`` jobs (see
    :func:`fire_async_service`), hence a module function rather than a
    closure.
    """
    from repro.engine.errors import BpmnError  # cycle guard

    try:
        arguments = {
            name: compile_expression(expr).evaluate(instance.variables)
            for name, expr in node.inputs.items()
        }
    except ExpressionError as exc:
        core.cancel_boundary_jobs(engine, instance, token)
        core.handle_error(
            engine, instance, definition, token, core.TECHNICAL_ERROR_CODE, str(exc)
        )
        return
    engine._record(
        instance, EventTypes.SERVICE_INVOKED, node_id=node.id, service=node.service
    )
    try:
        result = engine.invoker.invoke(node.service, arguments, retry=node.retry)
    except BpmnError as exc:
        core.cancel_boundary_jobs(engine, instance, token)
        engine._record(
            instance,
            EventTypes.ERROR_RAISED,
            node_id=node.id,
            code=exc.code,
            message=exc.detail,
        )
        core.handle_error(engine, instance, definition, token, exc.code, exc.detail)
        return
    core.cancel_boundary_jobs(engine, instance, token)
    if not result.succeeded:
        engine._record(
            instance,
            EventTypes.SERVICE_FAILED,
            node_id=node.id,
            service=node.service,
            attempts=result.attempts,
            error=result.error,
        )
        core.handle_error(
            engine, instance, definition, token, core.TECHNICAL_ERROR_CODE,
            result.error or "service failed",
        )
        return
    if node.output_variable is not None:
        instance.variables[node.output_variable] = result.value
        engine._record(
            instance,
            EventTypes.VARIABLES_UPDATED,
            node_id=node.id,
            keys=[node.output_variable],
        )
    core.move_through(
        engine, instance, definition, token, node, is_activity=True,
        attempts=result.attempts,
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
        engine._record(
            instance,
            EventTypes.ERROR_RAISED,
            node_id=node.id,
            code=core.TECHNICAL_ERROR_CODE,
            message=str(exc),
        )
        core.handle_error(
            engine, instance, definition, token, core.TECHNICAL_ERROR_CODE, str(exc)
        )
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
            core.handle_error(
                engine, instance, definition, token, core.TECHNICAL_ERROR_CODE, str(exc)
            )
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
        token,
        node,
        node.message_name,
        node.correlation_expression,
        is_activity=True,
    )
