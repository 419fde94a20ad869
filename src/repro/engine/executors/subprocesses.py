"""Executors for subprocess nodes: call activities and multi-instance."""

from __future__ import annotations

from typing import Any

from repro.engine import execution as core
from repro.engine.executors.registry import executor
from repro.expr import ExpressionError, compile_expression
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
        core.handle_error(engine, instance, definition, token, str(exc))
        return
    core.park(engine, instance, definition, token, node, "child", node_id=node.id)
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
        core.handle_error(engine, instance, definition, token, str(exc))
        return
    if isinstance(cardinality, bool) or not isinstance(cardinality, int) or cardinality < 0:
        core.handle_error(
            engine, instance, definition, token,
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

    core.park(
        engine, instance, definition, token, node, "mi",
        node_id=node.id,
        remaining=cardinality,
        total=cardinality,
        next_index=1 if node.sequential else cardinality,
        children=[],
        collected=[],
    )
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
        core.handle_error(engine, instance, definition, token, str(exc))
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


def on_child_finished(
    engine, parent, definition, token, node: CallActivity, child, failed: bool
) -> None:
    """The child case of a waiting call activity ended: map its outputs
    into the parent and complete the activity, or fail it."""
    if failed:
        detail = f"child instance {child.id!r} failed: {child.failure}"
        core.fail(engine, parent, definition, token, detail)
        return
    try:
        if node.output_mappings:
            for name, expr in node.output_mappings.items():
                parent.variables[name] = compile_expression(expr).evaluate(
                    child.variables
                )
        else:
            parent.variables.update(child.variables)
    except ExpressionError as exc:
        core.fail(engine, parent, definition, token, str(exc))
        return
    core.finish(
        engine, parent, definition, token, node, is_activity=True, child_id=child.id
    )


def on_mi_child_finished(
    engine, parent, definition, token, node: MultiInstanceActivity, child, failed: bool
) -> None:
    """One child of a waiting multi-instance activity ended."""
    waiting = token.waiting_on
    if failed:
        siblings = waiting.get("children", ())
        core.leave(engine, parent, definition, token)
        for child_id in siblings:
            sibling = engine._instances.get(child_id)
            if sibling is not None and not sibling.state.is_finished:
                engine._terminate_instance_internal(sibling, "mi sibling failed")
        detail = f"multi-instance child {child.id!r} failed: {child.failure}"
        core.fail(engine, parent, definition, token, detail)
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
        core.fail(engine, parent, definition, token, str(exc))
        return
    waiting["collected"] = [*waiting["collected"], result]
    waiting["remaining"] -= 1
    if waiting["remaining"] > 0:
        if node.sequential:
            next_index = waiting["next_index"]
            waiting["next_index"] += 1
            spawn_mi_child(engine, parent, definition, token, node, next_index)
        engine._touch(parent)  # the wait itself changed
        return
    if node.output_collection is not None:
        parent.variables[node.output_collection] = waiting["collected"]
    core.finish(
        engine, parent, definition, token, node, is_activity=True,
        children=waiting.get("total"),
    )
