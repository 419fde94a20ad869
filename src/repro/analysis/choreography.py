"""Cross-process behavioural analysis: compose definitions over channels.

The per-model behavioural pass (SND*) verifies each definition against its
*own* WF-net; message exchange between definitions is invisible to it.
This module lifts the check to choreography scope: every communicating
definition's WF-net is embedded into one composed Petri net, with one
*channel place* per message name — send transitions produce into the
channel, receive/catch transitions additionally consume from it.  A
marking where some instance can never finish because its channel stays
empty is a cross-process deadlock (**CHOR001**) that no per-model analysis
can see.

Channels with no internal sender are *open*: an external client may
publish the message, so their receive transitions stay unconstrained
(otherwise every externally-triggered wait would be reported as a
deadlock; MSG002 already flags them statically).  Composition is done per
connected component of the closed-channel topology, and its state space
comes from the per-model pass's core (:func:`repro.petri.workflow_net.explore`)
— an exceeded budget yields **CHOR003** (info), never a false verdict.
"""

from __future__ import annotations

from typing import Iterable

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.interproc import DeploymentGraph
from repro.analysis.rules import CHOR001, CHOR003
from repro.model.errors import ModelError
from repro.model.mapping import to_workflow_net
from repro.petri.marking import Marking
from repro.petri.net import PetriNet
from repro.petri.workflow_net import explore

#: separator between a definition key and an embedded node id
_SEP = "::"


def closed_channels(
    graph: DeploymentGraph, keys: Iterable[str] | None = None
) -> set[str]:
    """Message names both sent and received inside the deployment (or the
    given subset of definitions) — the channels composition models."""
    scope = set(graph.interfaces) if keys is None else set(keys)
    sent = {
        e.message_name
        for key in scope
        for e in graph.interfaces[key].sends
    }
    received = {
        e.message_name
        for key in scope
        for e in graph.interfaces[key].receives
    }
    return sent & received


def communicating_components(graph: DeploymentGraph) -> list[tuple[str, ...]]:
    """Connected components of the closed-channel topology.

    Two definitions are connected when one sends a message the other
    receives (and vice versa).  Only components that actually contain a
    closed channel are returned — everything else has nothing to compose.
    """
    channels = closed_channels(graph)
    if not channels:
        return []
    adjacency: dict[str, set[str]] = {key: set() for key in graph.interfaces}
    participants: set[str] = set()
    for message in channels:
        members = {key for key, _ in graph.senders(message)} | {
            key for key, _ in graph.receivers(message)
        }
        participants.update(members)
        for a in members:
            adjacency[a].update(members - {a})
    components: list[tuple[str, ...]] = []
    seen: set[str] = set()
    for key in sorted(participants):
        if key in seen:
            continue
        component = {key}
        stack = [key]
        seen.add(key)
        while stack:
            node = stack.pop()
            for neighbor in adjacency[node]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    component.add(neighbor)
                    stack.append(neighbor)
        if closed_channels(graph, component):
            components.append(tuple(sorted(component)))
    return components


def compose_component(
    graph: DeploymentGraph, keys: tuple[str, ...]
) -> tuple[PetriNet, Marking, Marking]:
    """Embed each definition's WF-net and wire the channel places.

    Returns ``(net, initial marking, completion marking)``.  Raises
    :class:`~repro.model.errors.ModelError` when any member has no WF-net
    translation (the caller reports CHOR003).
    """
    net = PetriNet(name="choreography:" + "+".join(keys))
    initial: dict[str, int] = {}
    final: dict[str, int] = {}
    for key in keys:
        wf = to_workflow_net(graph.definitions[key])
        for place_id, place in wf.net.places.items():
            net.add_place(f"{key}{_SEP}{place_id}", label=place.label)
        for transition_id, transition in wf.net.transitions.items():
            net.add_transition(
                f"{key}{_SEP}{transition_id}",
                label=transition.label,
                silent=transition.silent,
            )
        for arc in wf.net.arcs:
            net.add_arc(
                f"{key}{_SEP}{arc.source}", f"{key}{_SEP}{arc.target}", arc.weight
            )
        initial[f"{key}{_SEP}{wf.source}"] = 1
        final[f"{key}{_SEP}{wf.sink}"] = 1
    for message in sorted(closed_channels(graph, keys)):
        channel = f"chan{_SEP}{message}"
        net.add_place(channel, label=f"message {message!r}")
        for key, endpoint in graph.senders(message):
            if key in keys:
                net.add_arc(f"{key}{_SEP}{endpoint.element_id}", channel)
        for key, endpoint in graph.receivers(message):
            if key in keys:
                net.add_arc(channel, f"{key}{_SEP}{endpoint.element_id}")
    return net, Marking(initial), Marking(final)


def choreography_pass(
    graph: DeploymentGraph, max_states: int = 20_000
) -> dict[str, list[Diagnostic]]:
    """Run the composed-net analysis; diagnostics grouped by definition key.

    Never raises: untranslatable members and budget exhaustion degrade to
    CHOR003 (info) on every member of the affected component.
    """
    results: dict[str, list[Diagnostic]] = {}
    for component in communicating_components(graph):
        for key, diagnostic in _analyze_component(graph, component, max_states):
            results.setdefault(key, []).append(diagnostic)
    return results


def _analyze_component(
    graph: DeploymentGraph, keys: tuple[str, ...], max_states: int
) -> list[tuple[str, Diagnostic]]:
    try:
        net, initial, final = compose_component(graph, keys)
    except ModelError as exc:
        return _skipped(keys, f"a member has no WF-net translation: {exc}")
    space = explore(net, initial, final, max_states)
    if space.skipped is not None:
        return _skipped(keys, space.skipped)
    if space.unbounded:
        return _skipped(
            keys,
            "the composed net is unbounded (a send loop can flood a "
            "channel); cross-process behavioural rules were not decided",
        )

    # deadlocks exclude markings where every instance completed: their
    # leftovers are per-model SND004
    findings: list[tuple[str, Diagnostic]] = []
    reported: set[tuple[str, str]] = set()
    for marking in space.deadlocks:
        for key, element_id, message in _starved_receives(net, marking, keys):
            if (key, element_id) in reported:
                continue
            reported.add((key, element_id))
            findings.append((key, Diagnostic(
                rule=CHOR001.id,
                severity=CHOR001.severity,
                element_id=element_id,
                message=(
                    f"cross-process deadlock: composing "
                    f"{', '.join(keys)} reaches a state where this wait "
                    f"for message {message!r} can never be satisfied by "
                    f"any internal send"
                ),
                hint="check the send side's guards and ordering — the "
                     "sending path is skipped or already past in the "
                     "deadlocking run",
            )))
    return findings


def _starved_receives(
    net: PetriNet, marking: Marking, keys: tuple[str, ...]
) -> list[tuple[str, str, str]]:
    """Receive transitions disabled only (or partly) by an empty channel.

    Returns ``(definition key, element id, message name)`` triples for the
    stuck marking, attributing the deadlock to the waits it starves.
    """
    starved: list[tuple[str, str, str]] = []
    chan_prefix = f"chan{_SEP}"
    for transition_id in net.transitions:
        preset = net.preset(transition_id)
        channels = [p for p in preset if p.startswith(chan_prefix)]
        if not channels:
            continue
        internal = {p: w for p, w in preset.items() if not p.startswith(chan_prefix)}
        if not marking.covers(internal):
            continue  # the instance is not even at the wait yet
        if marking.covers(preset):
            continue  # enabled; not starved
        key, _, element_id = transition_id.partition(_SEP)
        if key in keys:
            starved.append(
                (key, element_id, channels[0][len(chan_prefix):])
            )
    return starved


# -- rendering (repro choreography CLI) ---------------------------------------


def choreography_summary(graph: DeploymentGraph) -> dict[str, object]:
    """A JSON-able description of the deployment's message/call graph."""
    channels: list[dict[str, object]] = []
    for message in sorted(graph.message_names()):
        senders = graph.senders(message)
        receivers = graph.receivers(message)
        channels.append({
            "message": message,
            "senders": [
                {"process": key, "element": e.element_id} for key, e in senders
            ],
            "receivers": [
                {"process": key, "element": e.element_id, "kind": e.kind}
                for key, e in receivers
            ],
            "open": not senders or not receivers,
        })
    calls: list[dict[str, object]] = []
    for key in sorted(graph.interfaces):
        for call in graph.interfaces[key].calls:
            calls.append({
                "caller": key,
                "element": call.element_id,
                "target": call.target_key,
                "deployed": call.target_key in graph.interfaces,
                "multi_instance": call.multi_instance,
            })
    return {
        "definitions": [
            {"key": key, "version": graph.interfaces[key].version}
            for key in sorted(graph.interfaces)
        ],
        "channels": channels,
        "calls": calls,
        "cycles": [list(cycle) for cycle in graph.call_cycles()],
    }


def render_choreography(graph: DeploymentGraph) -> str:
    """Human-readable message/call graph for the terminal."""
    summary = choreography_summary(graph)
    lines: list[str] = []
    definitions = summary["definitions"]
    assert isinstance(definitions, list)
    lines.append(f"deployment: {len(definitions)} definition(s)")
    for entry in definitions:
        assert isinstance(entry, dict)
        lines.append(f"  {entry['key']} (v{entry['version']})")
    channels = summary["channels"]
    assert isinstance(channels, list)
    lines.append(f"channels: {len(channels)}")
    for channel in channels:
        assert isinstance(channel, dict)
        senders = channel["senders"]
        receivers = channel["receivers"]
        assert isinstance(senders, list) and isinstance(receivers, list)
        sender_text = ", ".join(
            f"{s['process']}[{s['element']}]" for s in senders
        ) or "(external)"
        receiver_text = ", ".join(
            f"{r['process']}[{r['element']}]" for r in receivers
        ) or "(nobody)"
        lines.append(
            f"  {channel['message']}: {sender_text} -> {receiver_text}"
        )
    calls = summary["calls"]
    assert isinstance(calls, list)
    lines.append(f"calls: {len(calls)}")
    for call in calls:
        assert isinstance(call, dict)
        marker = "" if call["deployed"] else "  [not deployed]"
        kind = "multi-instance" if call["multi_instance"] else "call"
        lines.append(
            f"  {call['caller']}[{call['element']}] --{kind}--> "
            f"{call['target']}{marker}"
        )
    cycles = summary["cycles"]
    assert isinstance(cycles, list)
    if cycles:
        lines.append(f"call cycles: {len(cycles)}")
        for cycle in cycles:
            assert isinstance(cycle, list)
            lines.append("  " + " -> ".join([*cycle, cycle[0]]))
    return "\n".join(lines)


def _skipped(
    keys: tuple[str, ...], reason: str
) -> list[tuple[str, Diagnostic]]:
    return [
        (key, Diagnostic(
            rule=CHOR003.id,
            severity=CHOR003.severity,
            element_id=key,
            message=f"choreography analysis of {', '.join(keys)} skipped: "
                    f"{reason}",
            hint="raise the state budget, or verify the composition "
                 "manually",
        ))
        for key in keys
    ]
