"""Reverse-order execution of compensation handlers (saga orchestration).

Completed activities that declare a ``compensation_handler`` push an
entry onto their instance's compensation log (see
:func:`repro.engine.execution.record_compensation`).  When a
``CompensateInstance`` command arrives, :func:`run_compensation` pops
that log newest-first and runs each handler inline — the business
transaction is undone in the opposite order it was done.

Handlers are *detached* activity nodes: they belong to the definition
but have no sequence flows, so the interpreter never reaches them during
normal execution.  They run here without tokens, work items, or
boundary events — a handler either succeeds (its entry is popped, its
variable effects merged) or raises, leaving the remaining log intact so
a retried command resumes exactly at the failed step.
"""

from __future__ import annotations

from typing import Any

from repro.engine.errors import BpmnError, EngineError
from repro.expr import ExpressionError, compile_expression, run_script
from repro.history.events import EventTypes
from repro.model.elements import ManualTask, Node, ScriptTask, ServiceTask


class CompensationError(EngineError):
    """A compensation handler failed; the log keeps the unfinished tail."""

    def __init__(self, handler_id: str, for_node: str, detail: str) -> None:
        super().__init__(
            f"compensation handler {handler_id!r} (for {for_node!r}) failed: "
            f"{detail}"
        )
        self.handler_id = handler_id
        self.for_node = for_node


def run_compensation(engine: Any, instance: Any, definition: Any) -> list[str]:
    """Run the instance's pending compensation handlers, newest first.

    Entries are popped one at a time *after* their handler succeeds, so a
    crash or handler failure leaves the untouched tail persisted and a
    retry (same ``dedup_key`` or a fresh command) resumes at the failed
    step without re-running already-compensated activities.

    Returns the handler node ids that ran, in execution order.
    """
    compensated: list[str] = []
    if not instance.compensations:
        return compensated
    engine._record(
        instance,
        EventTypes.COMPENSATION_TRIGGERED,
        pending=len(instance.compensations),
    )
    engine._touch(instance)
    while instance.compensations:
        entry = instance.compensations[-1]
        handler_id = entry["handler_id"]
        handler = definition.nodes.get(handler_id)
        if handler is None:
            raise CompensationError(
                handler_id, entry["node_id"], "handler node not in definition"
            )
        _run_handler(engine, instance, handler, entry["node_id"])
        instance.compensations.pop()
        engine._record(
            instance,
            EventTypes.NODE_COMPENSATED,
            node_id=handler.id,
            for_node=entry["node_id"],
        )
        engine._touch(instance)
        compensated.append(handler.id)
    return compensated


def _run_handler(engine: Any, instance: Any, handler: Node, for_node: str) -> None:
    """Execute one detached handler node against the instance variables."""
    if isinstance(handler, ScriptTask):
        scratch = dict(instance.variables)
        try:
            run_script(handler.script, scratch)
        except ExpressionError as exc:
            raise CompensationError(handler.id, for_node, str(exc)) from exc
        instance.variables = scratch
        return
    if isinstance(handler, ServiceTask):
        try:
            arguments = {
                name: compile_expression(expr).evaluate(instance.variables)
                for name, expr in handler.inputs.items()
            }
        except ExpressionError as exc:
            raise CompensationError(handler.id, for_node, str(exc)) from exc
        try:
            result = engine.invoker.invoke(
                handler.service, arguments, retry=handler.retry
            )
        except BpmnError as exc:
            raise CompensationError(handler.id, for_node, str(exc)) from exc
        if not result.succeeded:
            raise CompensationError(
                handler.id, for_node, result.error or "service failed"
            )
        if handler.output_variable is not None:
            # rebound, not written in place: a finished case's stored
            # record may share the dict (ProcessInstance.to_dict)
            instance.variables = {
                **instance.variables,
                handler.output_variable: result.value,
            }
        return
    if isinstance(handler, ManualTask):
        # performed entirely outside any system: recording it suffices
        return
    raise CompensationError(
        handler.id,
        for_node,
        f"unsupported handler node type {type(handler).__name__}",
    )
