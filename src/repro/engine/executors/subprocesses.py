"""Executors for subprocess nodes: call activities and multi-instance."""

from __future__ import annotations

from typing import Any

from repro.engine import execution as core
from repro.engine.executors.registry import executor
from repro.expr import ExpressionError, compile_expression
from repro.history.events import EventTypes
from repro.model.elements import CallActivity, MultiInstanceActivity


@executor(CallActivity)
def execute_call_activity(engine, instance, definition, token, node: CallActivity) -> None:
    core.enter(engine, instance, node, is_activity=True)
    try:
        if node.input_mappings:
            child_variables = {
                name: compile_expression(expr).evaluate(instance.variables)
                for name, expr in node.input_mappings.items()
            }
        else:
            child_variables = dict(instance.variables)
    except ExpressionError as exc:
        core.handle_error(
            engine, instance, definition, token, core.TECHNICAL_ERROR_CODE, str(exc)
        )
        return
    token.wait("child", node_id=node.id)
    core.schedule_boundary_timers(engine, instance, definition, token, node)
    child = engine._start_instance_internal(
        key=node.process_key,
        version=None,
        variables=child_variables,
        business_key=instance.business_key,
        parent_instance_id=instance.id,
        parent_token_id=token.id,
    )
    # record the linkage for recovery and diagnostics — unless the child
    # already completed synchronously and resumed this token
    if token.waiting_on.get("reason") == "child":
        token.waiting_on["child_id"] = child.id


@executor(MultiInstanceActivity)
def execute_multi_instance(
    engine, instance, definition, token, node: MultiInstanceActivity
) -> None:
    core.enter(engine, instance, node, is_activity=True)
    try:
        cardinality = compile_expression(node.cardinality_expression).evaluate(
            instance.variables
        )
    except ExpressionError as exc:
        core.handle_error(
            engine, instance, definition, token, core.TECHNICAL_ERROR_CODE, str(exc)
        )
        return
    if isinstance(cardinality, bool) or not isinstance(cardinality, int) or cardinality < 0:
        core.handle_error(
            engine,
            instance,
            definition,
            token,
            core.TECHNICAL_ERROR_CODE,
            f"multi-instance cardinality must be a non-negative integer, "
            f"got {cardinality!r}",
        )
        return

    if not node.wait_for_completion:
        # pattern 12: fire-and-forget — no parent link, token moves on
        for index in range(cardinality):
            variables = mi_child_variables(
                engine, instance, definition, token, node, index
            )
            if variables is None:
                return
            engine._start_instance_internal(
                key=node.process_key,
                version=None,
                variables=variables,
                business_key=instance.business_key,
                parent_instance_id=None,
                parent_token_id=None,
            )
        core.move_through(
            engine, instance, definition, token, node, is_activity=True,
            spawned=cardinality,
        )
        return

    if cardinality == 0:
        if node.output_collection is not None:
            instance.variables[node.output_collection] = []
        core.move_through(
            engine, instance, definition, token, node, is_activity=True, spawned=0
        )
        return

    token.wait(
        "mi",
        node_id=node.id,
        remaining=cardinality,
        total=cardinality,
        next_index=1 if node.sequential else cardinality,
        children=[],
        collected=[],
    )
    core.schedule_boundary_timers(engine, instance, definition, token, node)
    spawn = 1 if node.sequential else cardinality
    for index in range(spawn):
        if token.waiting_on.get("reason") != "mi":
            return  # all children finished synchronously mid-loop
        spawn_mi_child(engine, instance, definition, token, node, index)


def mi_child_variables(
    engine, instance, definition, token, node: MultiInstanceActivity, index: int
) -> dict[str, Any] | None:
    try:
        if node.input_mappings:
            variables = {
                name: compile_expression(expr).evaluate(
                    {**instance.variables, "instance_index": index}
                )
                for name, expr in node.input_mappings.items()
            }
        else:
            variables = dict(instance.variables)
    except ExpressionError as exc:
        core.handle_error(
            engine, instance, definition, token, core.TECHNICAL_ERROR_CODE, str(exc)
        )
        return None
    variables["instance_index"] = index
    return variables


def spawn_mi_child(
    engine, instance, definition, token, node: MultiInstanceActivity, index: int
) -> None:
    variables = mi_child_variables(engine, instance, definition, token, node, index)
    if variables is None:
        return
    child = engine._start_instance_internal(
        key=node.process_key,
        version=None,
        variables=variables,
        business_key=instance.business_key,
        parent_instance_id=instance.id,
        parent_token_id=token.id,
    )
    if token.waiting_on.get("reason") == "mi":
        # rebound, not appended: the list may be shared with a stored record
        token.waiting_on["children"] = [*token.waiting_on["children"], child.id]


def on_mi_child_finished(
    engine, parent, definition, token, node: MultiInstanceActivity, child, failed: bool
) -> None:
    """One child of a waiting multi-instance activity ended."""
    waiting = token.waiting_on
    if failed:
        children = list(waiting.get("children", ()))
        token.waiting_on = {}
        for child_id in children:
            sibling = engine._instances.get(child_id)
            if sibling is not None and not sibling.state.is_finished:
                engine._terminate_instance_internal(sibling, "mi sibling failed")
        core.cancel_boundary_jobs(engine, parent, token)
        core.handle_error(
            engine,
            parent,
            definition,
            token,
            core.TECHNICAL_ERROR_CODE,
            f"multi-instance child {child.id!r} failed: {child.failure}",
        )
        core.advance(engine, parent)
        return
    try:
        if node.output_mappings:
            result = {
                name: compile_expression(expr).evaluate(child.variables)
                for name, expr in node.output_mappings.items()
            }
        else:
            result = dict(child.variables)
    except ExpressionError as exc:
        token.waiting_on = {}
        core.cancel_boundary_jobs(engine, parent, token)
        core.handle_error(
            engine, parent, definition, token, core.TECHNICAL_ERROR_CODE, str(exc)
        )
        core.advance(engine, parent)
        return
    waiting["collected"] = [*waiting["collected"], result]
    waiting["remaining"] -= 1
    if waiting["remaining"] > 0:
        if node.sequential:
            next_index = waiting["next_index"]
            waiting["next_index"] += 1
            spawn_mi_child(engine, parent, definition, token, node, next_index)
        return
    # all children done
    collected = waiting["collected"]
    token.waiting_on = {}
    core.cancel_boundary_jobs(engine, parent, token)
    if node.output_collection is not None:
        parent.variables[node.output_collection] = collected
    engine._record(
        parent,
        EventTypes.NODE_COMPLETED,
        node_id=node.id,
        is_activity=True,
        children=waiting.get("total"),
    )
    flow = core.single_outgoing(definition, node)
    token.resume(flow.target, arrived_via=flow.id)
    core.advance(engine, parent)
