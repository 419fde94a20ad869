"""Node-type → executor dispatch table.

Each executor is a module-level function ``execute(engine, instance,
definition, token, node)`` living in one of the per-node-family modules
(:mod:`~repro.engine.executors.events`, ``tasks``, ``gateways``,
``subprocesses``) and registered here with the :func:`executor`
decorator.  The interpreter core (:mod:`repro.engine.execution`) resolves
the executor for a token's node by a lookup in :data:`EXECUTORS` — there
is no ``_execute_*`` if-ladder and no god-class.

The registry is intentionally dumb: it imports nothing from the engine
or the interpreter, so it can be loaded first and never participates in
an import cycle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.engine import ProcessEngine
    from repro.engine.instance import ProcessInstance, Token
    from repro.model.elements import Node
    from repro.model.process import ProcessDefinition

    Executor = Callable[
        ["ProcessEngine", "ProcessInstance", "ProcessDefinition", "Token", "Node"],
        None,
    ]

#: node type -> executor function.
EXECUTORS: dict[type, "Executor"] = {}


def executor(*node_types: type) -> Callable[["Executor"], "Executor"]:
    """Register a function as the executor for one or more node types."""

    def decorate(fn: "Executor") -> "Executor":
        for node_type in node_types:
            if node_type in EXECUTORS:
                raise ValueError(
                    f"duplicate executor for node type {node_type.__name__}"
                )
            EXECUTORS[node_type] = fn
        return fn

    return decorate
