"""Dict (JSON-safe) codec for process definitions.

Used by engine persistence (definitions must survive restarts alongside the
instances that reference them) and by the dispatch log's deploy commands.
Nodes and flows go through the shared record codec
(:func:`repro.storage.serializers.to_record`): a node is its dataclass
fields plus a ``type`` tag, decoded through :data:`NODE_CLASSES`, so a new
element type or attribute needs no codec change.  No pickle: the stored
form is plain JSON.
"""

from __future__ import annotations

from typing import Any

from repro.model.elements import NODE_CLASSES, Node, SequenceFlow
from repro.model.errors import ModelError
from repro.model.process import ProcessDefinition
from repro.storage.serializers import from_record, to_record


def node_to_dict(node: Node) -> dict[str, Any]:
    """Serialize one node to a JSON-safe dict with a ``type`` tag."""
    return {"type": node.type_name, **to_record(node)}


def node_from_dict(raw: dict[str, Any]) -> Node:
    """Inverse of :func:`node_to_dict`."""
    cls = NODE_CLASSES.get(raw.get("type"))
    if cls is None:
        raise ModelError(f"unknown node type {raw.get('type')!r}")
    return from_record(cls, raw)


def definition_to_dict(definition: ProcessDefinition) -> dict[str, Any]:
    """Serialize a whole definition."""
    payload: dict[str, Any] = {
        "key": definition.key,
        "name": definition.name,
        "version": definition.version,
        "description": definition.description,
        "nodes": [node_to_dict(n) for n in definition.nodes.values()],
        "flows": [to_record(f) for f in definition.flows.values()],
    }
    if definition.attributes:
        payload["attributes"] = dict(definition.attributes)
    return payload


def definition_from_dict(raw: dict[str, Any]) -> ProcessDefinition:
    """Inverse of :func:`definition_to_dict` (insertion order preserved)."""
    definition = ProcessDefinition(
        key=raw["key"],
        name=raw.get("name", ""),
        version=raw.get("version", 0),
        description=raw.get("description", ""),
        attributes=dict(raw.get("attributes", {})),
    )
    for node_raw in raw.get("nodes", ()):
        definition.add_node(node_from_dict(node_raw))
    for flow_raw in raw.get("flows", ()):
        definition.add_flow(from_record(SequenceFlow, flow_raw))
    return definition
