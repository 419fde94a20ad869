"""Process definitions: the deployable unit of the BPMS."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any

from repro.model.elements import (
    BoundaryEvent,
    EndEvent,
    Node,
    SequenceFlow,
    StartEvent,
)
from repro.model.errors import ModelError


class _ObservedDict(dict):
    """A dict that notifies its owner on mutation.

    Definitions are mutable until deployed, and some tools (and tests)
    edit ``definition.nodes`` directly instead of going through
    ``add_node`` — the node map must stay a live view, so the query
    caches hang off this hook rather than assuming append-only growth.
    """

    __slots__ = ("_on_change",)

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._on_change: Any = None

    def _changed(self) -> None:
        if self._on_change is not None:
            self._on_change()

    def __setitem__(self, key: Any, value: Any) -> None:
        super().__setitem__(key, value)
        self._changed()

    def __delitem__(self, key: Any) -> None:
        super().__delitem__(key)
        self._changed()

    def pop(self, *args: Any) -> Any:
        result = super().pop(*args)
        self._changed()
        return result

    def popitem(self) -> Any:
        result = super().popitem()
        self._changed()
        return result

    def clear(self) -> None:
        super().clear()
        self._changed()

    def update(self, *args: Any, **kwargs: Any) -> None:
        super().update(*args, **kwargs)
        self._changed()

    def setdefault(self, key: Any, default: Any = None) -> Any:
        result = super().setdefault(key, default)
        self._changed()
        return result


@dataclass
class ProcessDefinition:
    """A complete process model: nodes, flows, and metadata.

    Definitions are identified by ``key`` (stable across versions) and
    ``version`` (assigned by the engine at deployment).  They are pure data:
    the same definition object can be analysed, serialized, simulated, and
    executed.
    """

    key: str
    name: str = ""
    version: int = 0
    description: str = ""
    nodes: dict[str, Node] = field(default_factory=dict)
    flows: dict[str, SequenceFlow] = field(default_factory=dict)
    #: free-form model metadata; well-known keys include ``lint.suppress``
    #: ({element_id: [rule ids] or "*"}) consumed by :mod:`repro.analysis`
    attributes: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.key:
            raise ModelError("process definition requires a non-empty key")
        if not self.name:
            self.name = self.key
        self._outgoing: dict[str, list[SequenceFlow]] = {}
        self._incoming: dict[str, list[SequenceFlow]] = {}
        # query caches: definitions are frozen after deploy, so adjacency
        # and per-type lookups are memoized as immutable tuples.  The
        # builder still mutates during construction — add_node/add_flow
        # invalidate whatever the mutation can affect.
        self._outgoing_cache: dict[str, tuple[SequenceFlow, ...]] = {}
        self._incoming_cache: dict[str, tuple[SequenceFlow, ...]] = {}
        self._type_cache: dict[type, tuple[Node, ...]] = {}
        self._boundary_cache: dict[str, tuple[BoundaryEvent, ...]] | None = None
        self._handler_cache: frozenset[str] | None = None
        self.nodes = _ObservedDict(self.nodes)
        self.nodes._on_change = self._invalidate_node_caches
        # source provenance (set by the BPMN reader; not part of equality or
        # the serialized form — it describes where the model came from, not
        # what it is)
        self.source_path: str | None = None
        self.source_lines: dict[str, int] = {}
        for flow in self.flows.values():
            self._index_flow(flow)

    # -- construction -------------------------------------------------------

    def add_node(self, node: Node) -> Node:
        """Add a node; raises on duplicate id."""
        if node.id in self.nodes or node.id in self.flows:
            raise ModelError(f"duplicate element id {node.id!r}")
        self.nodes[node.id] = node  # _ObservedDict invalidates the caches
        return node

    def add_flow(self, flow: SequenceFlow) -> SequenceFlow:
        """Add a sequence flow between existing nodes; raises on duplicates."""
        if flow.id in self.flows or flow.id in self.nodes:
            raise ModelError(f"duplicate element id {flow.id!r}")
        if flow.source not in self.nodes:
            raise ModelError(f"flow {flow.id!r} has unknown source {flow.source!r}")
        if flow.target not in self.nodes:
            raise ModelError(f"flow {flow.id!r} has unknown target {flow.target!r}")
        self.flows[flow.id] = flow
        self._index_flow(flow)
        return flow

    def _invalidate_node_caches(self) -> None:
        self._type_cache.clear()
        self._boundary_cache = None
        self._handler_cache = None

    def _index_flow(self, flow: SequenceFlow) -> None:
        self._outgoing.setdefault(flow.source, []).append(flow)
        self._incoming.setdefault(flow.target, []).append(flow)
        self._outgoing_cache.pop(flow.source, None)
        self._incoming_cache.pop(flow.target, None)

    # -- queries ------------------------------------------------------------

    def node(self, node_id: str) -> Node:
        """Look up a node by id; raises :class:`ModelError` if missing."""
        try:
            return self.nodes[node_id]
        except KeyError:
            raise ModelError(f"unknown node {node_id!r}") from None

    def flow(self, flow_id: str) -> SequenceFlow:
        """Look up a flow by id; raises :class:`ModelError` if missing."""
        try:
            return self.flows[flow_id]
        except KeyError:
            raise ModelError(f"unknown flow {flow_id!r}") from None

    def outgoing(self, node_id: str) -> tuple[SequenceFlow, ...]:
        """Outgoing flows of a node, in insertion order.

        Cached as an immutable tuple: this sits on the interpreter's
        token-move hot path and used to allocate a fresh list per call.
        """
        cached = self._outgoing_cache.get(node_id)
        if cached is None:
            cached = tuple(self._outgoing.get(node_id, ()))
            self._outgoing_cache[node_id] = cached
        return cached

    def incoming(self, node_id: str) -> tuple[SequenceFlow, ...]:
        """Incoming flows of a node, in insertion order (cached tuple)."""
        cached = self._incoming_cache.get(node_id)
        if cached is None:
            cached = tuple(self._incoming.get(node_id, ()))
            self._incoming_cache[node_id] = cached
        return cached

    def start_events(self) -> tuple[StartEvent, ...]:
        """All start events (a valid definition has exactly one)."""
        return self.nodes_of_type(StartEvent)

    def end_events(self) -> tuple[EndEvent, ...]:
        """All end events."""
        return self.nodes_of_type(EndEvent)

    def boundary_events_of(self, activity_id: str) -> tuple[BoundaryEvent, ...]:
        """Boundary events attached to the given activity."""
        cache = self._boundary_cache
        if cache is None:
            cache = {}
            for n in self.nodes.values():
                if isinstance(n, BoundaryEvent):
                    cache.setdefault(n.attached_to, []).append(n)
            cache = {k: tuple(v) for k, v in cache.items()}
            self._boundary_cache = cache
        return cache.get(activity_id, ())

    def compensation_handler_ids(self) -> frozenset[str]:
        """Ids of nodes referenced as a task's ``compensation_handler``.

        Handlers are *detached* activities: part of the definition but
        outside the sequence-flow graph (the structural rules exempt them
        from cardinality/connectivity and check them via STR009 instead),
        executed only by instance compensation.
        """
        cached = self._handler_cache
        if cached is None:
            cached = frozenset(
                handler_id
                for n in self.nodes.values()
                if (handler_id := getattr(n, "compensation_handler", None))
                is not None
            )
            self._handler_cache = cached
        return cached

    def nodes_of_type(self, node_type: type) -> tuple[Node, ...]:
        """Nodes of a given element class (per-definition type index)."""
        cached = self._type_cache.get(node_type)
        if cached is None:
            cached = tuple(
                n for n in self.nodes.values() if isinstance(n, node_type)
            )
            self._type_cache[node_type] = cached
        return cached

    @cached_property
    def identifier(self) -> str:
        """The engine-facing ``key:version`` identifier, one string per
        definition (each instance of it shares it)."""
        return f"{self.key}:{self.version}"

    def reachable_from_start(self) -> set[str]:
        """Node ids reachable from the start event along flows (plus
        boundary-event attachments)."""
        starts = self.start_events()
        if not starts:
            return set()
        seen: set[str] = set()
        stack = [starts[0].id]
        while stack:
            node_id = stack.pop()
            if node_id in seen:
                continue
            seen.add(node_id)
            for flow in self._outgoing.get(node_id, ()):
                stack.append(flow.target)
            # a boundary event is "reachable" when its host activity is
            for boundary in self.boundary_events_of(node_id):
                stack.append(boundary.id)
        return seen

    def __repr__(self) -> str:
        return (
            f"ProcessDefinition({self.identifier!r}, nodes={len(self.nodes)}, "
            f"flows={len(self.flows)})"
        )
