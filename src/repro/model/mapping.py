"""Mapping process definitions onto workflow nets for formal analysis.

The translation follows the classical BPMN→Petri-net scheme:

* every sequence flow becomes a **place**;
* every activity and intermediate event becomes a **transition** consuming
  its single incoming-flow place and producing its single outgoing-flow
  place;
* the start event consumes the net source place ``i``; end events produce
  the sink place ``o``;
* XOR gateways become a central place with silent in/out transitions (any
  incoming token enables exactly one outgoing route);
* AND gateways become a single synchronizing transition;
* OR (inclusive) gateways become one transition per non-empty subset of
  outgoing/incoming flows — this over-approximates the engine's
  can-still-arrive join semantics but is exact for well-structured models;
* boundary events become an alternative transition sharing the host
  activity's input place;
* event-based gateways map like XOR (the race is a free choice in the net).

Deploying with ``verify=True`` runs :func:`repro.analysis.analyze`, whose
behavioural pass (SND rules) classifies this net's state space with
:func:`repro.petri.workflow_net.explore`, the core behind ``check_soundness``.

Caveat documented for model authors: a process with multiple end events on
*parallel* paths completes fine under BPMN implicit-termination semantics
but is reported unsound here (tokens left in ``o``'s siblings).  The engine
follows BPMN; the checker follows van der Aalst.  Use a final AND-join if
you want the strict guarantee.
"""

from __future__ import annotations

from itertools import combinations

from repro.model.elements import (
    BoundaryEvent,
    EndEvent,
    EventBasedGateway,
    ExclusiveGateway,
    InclusiveGateway,
    ParallelGateway,
    StartEvent,
)
from repro.model.errors import ModelError
from repro.model.process import ProcessDefinition
from repro.petri.net import PetriNet
from repro.petri.workflow_net import WorkflowNet

_MAX_INCLUSIVE_FANOUT = 10


def _flow_place(flow_id: str) -> str:
    return f"f:{flow_id}"


def to_workflow_net(definition: ProcessDefinition) -> WorkflowNet:
    """Translate a definition into a WF-net with source ``i`` and sink ``o``."""
    net = PetriNet(name=definition.key)
    net.add_place("i")
    net.add_place("o")
    for flow_id in definition.flows:
        net.add_place(_flow_place(flow_id))

    # compensation handlers are detached activities outside the control
    # flow — they have no flow places to connect and never fire in a run
    handlers = definition.compensation_handler_ids()

    for node in definition.nodes.values():
        if node.id in handlers:
            continue
        incoming = [_flow_place(f.id) for f in definition.incoming(node.id)]
        outgoing = [_flow_place(f.id) for f in definition.outgoing(node.id)]

        if isinstance(node, StartEvent):
            transition = net.add_transition(node.id, label=node.name)
            net.add_arc("i", node.id)
            for place in outgoing:
                net.add_arc(node.id, place)
        elif isinstance(node, EndEvent):
            transition = net.add_transition(node.id, label=node.name)
            for place in incoming:
                net.add_arc(place, node.id)
            net.add_arc(node.id, "o")
        elif isinstance(node, ParallelGateway):
            transition = net.add_transition(node.id, label=node.name, silent=True)
            for place in incoming:
                net.add_arc(place, node.id)
            for place in outgoing:
                net.add_arc(node.id, place)
        elif isinstance(node, (ExclusiveGateway, EventBasedGateway)):
            center = net.add_place(f"g:{node.id}")
            for k, place in enumerate(incoming):
                t_in = net.add_transition(f"{node.id}__in{k}", silent=True)
                net.add_arc(place, t_in.id)
                net.add_arc(t_in.id, center.id)
            for k, place in enumerate(outgoing):
                t_out = net.add_transition(f"{node.id}__out{k}", silent=True)
                net.add_arc(center.id, t_out.id)
                net.add_arc(t_out.id, place)
        elif isinstance(node, InclusiveGateway):
            _map_inclusive(net, node.id, incoming, outgoing)
        elif isinstance(node, BoundaryEvent):
            # handled with the host activity below
            continue
        else:
            # activity or intermediate event: 1-in 1-out transition
            if len(incoming) != 1 or len(outgoing) != 1:
                raise ModelError(
                    f"cannot map {node.id!r}: activities need exactly one "
                    f"incoming and one outgoing flow (validate() first)"
                )
            transition = net.add_transition(node.id, label=node.name)
            net.add_arc(incoming[0], node.id)
            net.add_arc(node.id, outgoing[0])
            for boundary in definition.boundary_events_of(node.id):
                b_out = [_flow_place(f.id) for f in definition.outgoing(boundary.id)]
                if len(b_out) != 1:
                    raise ModelError(
                        f"cannot map boundary {boundary.id!r}: needs one outgoing flow"
                    )
                b_transition = net.add_transition(boundary.id, label=boundary.name)
                net.add_arc(incoming[0], boundary.id)
                net.add_arc(boundary.id, b_out[0])
    return WorkflowNet(net=net, source="i", sink="o")


def _map_inclusive(
    net: PetriNet, node_id: str, incoming: list[str], outgoing: list[str]
) -> None:
    """OR gateway: one silent transition per non-empty subset of flows.

    A pure OR-split/OR-join pair composed this way over-approximates the
    runtime semantics (runtime picks the subset by guards; analysis allows
    any), which is conservative for soundness of well-structured models.
    """
    if len(incoming) > _MAX_INCLUSIVE_FANOUT or len(outgoing) > _MAX_INCLUSIVE_FANOUT:
        raise ModelError(
            f"inclusive gateway {node_id!r} fan-in/out exceeds "
            f"{_MAX_INCLUSIVE_FANOUT}; the subset mapping would explode"
        )
    if len(incoming) == 1 and len(outgoing) > 1:
        counter = 0
        for size in range(1, len(outgoing) + 1):
            for subset in combinations(outgoing, size):
                t = net.add_transition(f"{node_id}__split{counter}", silent=True)
                counter += 1
                net.add_arc(incoming[0], t.id)
                for place in subset:
                    net.add_arc(t.id, place)
    elif len(outgoing) == 1 and len(incoming) > 1:
        counter = 0
        for size in range(1, len(incoming) + 1):
            for subset in combinations(incoming, size):
                t = net.add_transition(f"{node_id}__join{counter}", silent=True)
                counter += 1
                for place in subset:
                    net.add_arc(place, t.id)
                net.add_arc(t.id, outgoing[0])
    else:
        # 1-in/1-out (or n-in/m-out, rare): route any-in to any-out via center
        center = net.add_place(f"g:{node_id}")
        for k, place in enumerate(incoming):
            t_in = net.add_transition(f"{node_id}__in{k}", silent=True)
            net.add_arc(place, t_in.id)
            net.add_arc(t_in.id, center.id)
        for k, place in enumerate(outgoing):
            t_out = net.add_transition(f"{node_id}__out{k}", silent=True)
            net.add_arc(center.id, t_out.id)
            net.add_arc(t_out.id, place)
