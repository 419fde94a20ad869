"""Instance migration between process versions.

The T5 flexibility experiment: a BPMS keeps in-flight instances alive
across process change by *migrating* them — re-pointing each token (and its
waiting state) at the corresponding node of the new version.  The rigid
baseline (:mod:`repro.baseline`) has to abort in-flight work instead.

Compatibility rules enforced here:

* every token's current node must exist in the target version (possibly
  under a new id via ``node_mapping``) with the same element type;
* tokens waiting on a user task / timer / message keep waiting — the new
  node must be of the same kind so the wait stays meaningful;
* tokens parked at a join must find a gateway at the target;
* otherwise :class:`~repro.engine.errors.MigrationError` is raised and the
  instance is left untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.errors import MigrationError
from repro.engine.instance import ProcessInstance
from repro.model.process import ProcessDefinition


@dataclass
class MigrationPlan:
    """How to map old node ids to new ones (identity by default)."""

    node_mapping: dict[str, str] = field(default_factory=dict)

    def target_node(self, node_id: str) -> str:
        return self.node_mapping.get(node_id, node_id)


def check_migratable(
    instance: ProcessInstance,
    source: ProcessDefinition,
    target: ProcessDefinition,
    plan: MigrationPlan,
) -> list[str]:
    """Return the list of problems (empty = migratable)."""
    problems: list[str] = []
    for token in instance.tokens:
        new_id = plan.target_node(token.node_id)
        new_node = target.nodes.get(new_id)
        if new_node is None:
            problems.append(
                f"token {token.id} at {token.node_id!r}: no node {new_id!r} in "
                f"target version {target.version}"
            )
            continue
        old_node = source.nodes.get(token.node_id)
        if old_node is not None and type(old_node) is not type(new_node):
            problems.append(
                f"token {token.id} at {token.node_id!r}: type changed "
                f"{type(old_node).__name__} -> {type(new_node).__name__}"
            )
    return problems


def apply_migration(engine, instance: ProcessInstance, target: ProcessDefinition,
                    plan: MigrationPlan) -> None:
    """Re-point an instance at the target version (raises on incompatibility)."""
    if instance.state.is_finished:
        raise MigrationError(f"instance {instance.id!r} is finished")
    if target.key != instance.definition_key:
        raise MigrationError(
            f"cannot migrate across process keys "
            f"({instance.definition_key!r} -> {target.key!r})"
        )
    source = engine.definition(instance.definition_key, instance.definition_version)
    problems = check_migratable(instance, source, target, plan)
    if problems:
        raise MigrationError("; ".join(problems))
    for token in instance.tokens:
        new_id = plan.target_node(token.node_id)
        token.node_id = new_id
        # arrived_via flow ids are version-specific; joins re-resolve laziliy
        if token.arrived_via is not None and token.arrived_via not in target.flows:
            incoming = target.incoming(new_id)
            token.arrived_via = incoming[0].id if len(incoming) == 1 else None
        # a parked token's waiting_on repeats the node it is parked at,
        # and so do its message waits and scheduler jobs (the node a
        # delivery or a firing wakes)
        for key in ("node_id", "gateway_id"):
            if key in token.waiting_on:
                token.waiting_on[key] = plan.target_node(token.waiting_on[key])
    engine.waits.remap_nodes(instance.id, plan.target_node)
    engine.scheduler.remap_nodes(instance.id, plan.target_node)
    instance.definition_id = target.identifier
