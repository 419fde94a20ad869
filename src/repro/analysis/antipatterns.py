"""Behavioural anti-pattern rules (SND001–SND006) on the WF-net translation.

The pass reuses the BPMN→Petri mapping (:func:`repro.model.mapping.to_workflow_net`)
and the one state-space core (:func:`repro.petri.workflow_net.explore`), but
maps its classified markings to *model-level* diagnoses instead of net-level
soundness verdicts:

* **SND001 deadlock** — a stuck non-final marking; attributed to the
  parallel join that is partially enabled in it (the XOR-split→AND-join
  mismatch).
* **SND002 lack of synchronization** — duplicate tokens on a flow, or
  duplicate completion, or an unbounded place (the AND-split→XOR-join
  mismatch).
* **SND003 dead activity** — an activity transition that fires in no run.
* **SND004 implicit termination** — completion with tokens left behind
  (multiple end events on parallel paths).  The engine tolerates this;
  strict soundness does not — hence a warning, and only reported when no
  harder defect (SND001/SND002) explains the leftovers.
* **SND005 no option to complete** — markings from which completion is
  unreachable without being stuck (livelock).
* **SND006** — analysis skipped (budget or untranslatable model), info.
"""

from __future__ import annotations

from typing import Iterable

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.rules import SND001, SND002, SND003, SND004, SND005, SND006
from repro.model.elements import ACTIVITY_TYPES, ParallelGateway
from repro.model.errors import ModelError
from repro.model.mapping import to_workflow_net
from repro.model.process import ProcessDefinition
from repro.petri.marking import Marking
from repro.petri.workflow_net import explore


def behavioral_pass(
    definition: ProcessDefinition, max_states: int = 50_000
) -> list[Diagnostic]:
    """Run the anti-pattern rules; never raises.

    Requires a structurally valid model (run the structural pass first and
    skip this one on structural errors — the mapping raises on malformed
    graphs, which is reported here as SND006).
    """
    try:
        wf_net = to_workflow_net(definition)
    except ModelError as exc:
        return [_skipped(definition, f"model has no WF-net translation: {exc}")]
    space = explore(
        wf_net.net, wf_net.initial_marking(), wf_net.final_marking(), max_states
    )
    if space.skipped is not None:
        return [_skipped(definition, space.skipped)]
    if space.unbounded:
        return _unbounded_diagnostics(definition, wf_net.sink, space.unbounded)

    # deadlocks and livelocks exclude markings that already produced a
    # completion token: those are termination states (proper or not),
    # classified by SND002/SND004
    diagnostics: list[Diagnostic] = []
    for marking in space.deadlocks[:3]:
        joins = _partial_joins(definition, marking)
        element = joins[0] if joins else definition.key
        detail = (
            f"parallel join {joins[0]!r} waits for tokens that can never "
            f"arrive" if joins else "no transition is enabled"
        )
        diagnostics.append(Diagnostic(
            rule=SND001.id,
            severity=SND001.severity,
            element_id=element,
            message=f"deadlock: {detail} (stuck marking {marking})",
            hint="an XOR-split routed into an AND-join? Match the split and "
                 "join types on every path",
        ))

    duplicates = _duplicate_token_elements(definition, wf_net.sink, space.markings)
    for element, marking in duplicates[:3]:
        diagnostics.append(Diagnostic(
            rule=SND002.id,
            severity=SND002.severity,
            element_id=element,
            message=(
                f"lack of synchronization: duplicate tokens reach "
                f"{element!r} (marking {marking})"
            ),
            hint="an AND-split merged by an XOR-join? Join parallel branches "
                 "with a parallel gateway",
        ))
    if space.livelocks and not space.deadlocks:
        marking = space.livelocks[0]
        diagnostics.append(Diagnostic(
            rule=SND005.id,
            severity=SND005.severity,
            element_id=definition.key,
            message=(
                f"no option to complete: from marking {marking} completion "
                f"is unreachable"
            ),
            hint="check loop exits: some cycle or branch never leads to an "
                 "end event",
        ))

    if not space.deadlocks and not duplicates:
        for marking in space.improper[:1]:
            leftovers = _token_elements(definition, wf_net.sink, marking)
            if leftovers:
                detail = (
                    f"the process completes while tokens remain at "
                    f"{leftovers} (marking {marking})"
                )
            else:
                detail = (
                    "the process completes more than once (multiple end "
                    "events on parallel paths)"
                )
            diagnostics.append(Diagnostic(
                rule=SND004.id,
                severity=SND004.severity,
                element_id=leftovers[0] if leftovers else definition.key,
                message=f"implicit termination: {detail}",
                hint="merge parallel paths with an AND-join before a single "
                     "end event for the strict completion guarantee",
            ))

    for node_id in space.dead_transitions:
        if not isinstance(definition.nodes.get(node_id), ACTIVITY_TYPES):
            continue
        diagnostics.append(Diagnostic(
            rule=SND003.id,
            severity=SND003.severity,
            element_id=node_id,
            message="dead activity: no run of the process ever executes it",
            hint="its only inflow depends on a join that can never fire, or "
                 "a guard combination that cannot occur",
        ))
    return diagnostics


def _skipped(definition: ProcessDefinition, reason: str) -> Diagnostic:
    return Diagnostic(
        rule=SND006.id,
        severity=SND006.severity,
        element_id=definition.key,
        message=f"behavioural rules not decided: {reason}",
        hint="raise max_states, or simplify the model",
    )


def _unbounded_diagnostics(
    definition: ProcessDefinition, sink: str, places: list[str]
) -> list[Diagnostic]:
    elements = _token_elements(definition, sink, places)
    diagnostics = [
        Diagnostic(
            rule=SND002.id,
            severity=SND002.severity,
            element_id=element,
            message=(
                f"lack of synchronization: tokens accumulate without bound "
                f"at {element!r}"
            ),
            hint="a loop keeps multiplying tokens — usually an AND-split "
                 "whose branches merge through an XOR-join inside a cycle",
        )
        for element in elements[:3]
    ]
    if not diagnostics:
        diagnostics.append(Diagnostic(
            rule=SND002.id,
            severity=SND002.severity,
            element_id=definition.key,
            message="lack of synchronization: the process can complete "
                    "arbitrarily many times",
            hint="join parallel branches with a parallel gateway",
        ))
    return diagnostics


def _place_element(definition: ProcessDefinition, place: str) -> str:
    """Map a net place back to the model element it represents."""
    if place.startswith("f:"):
        flow = definition.flows.get(place[2:])
        return flow.target if flow is not None else place
    if place.startswith("g:"):
        return place[2:]
    return definition.key  # "i"/"o"


def _token_elements(
    definition: ProcessDefinition, sink: str, places: Iterable[str]
) -> list[str]:
    """The model elements the places belong to, the sink excluded (a
    marking iterates over its marked places)."""
    return sorted({_place_element(definition, p) for p in places if p != sink})


def _duplicate_token_elements(
    definition: ProcessDefinition, sink: str, markings: list[Marking]
) -> list[tuple[str, Marking]]:
    seen: dict[str, Marking] = {}
    for marking in markings:
        for place, count in marking.items():
            if count >= 2 and place != sink:
                element = _place_element(definition, place)
                seen.setdefault(element, marking)
    return sorted(seen.items())


def _partial_joins(definition: ProcessDefinition, marking: Marking) -> list[str]:
    """Parallel joins with some but not all input flows marked."""
    joins = []
    for node in definition.nodes.values():
        if not isinstance(node, ParallelGateway):
            continue
        incoming = definition.incoming(node.id)
        if len(incoming) < 2:
            continue
        marked = [f for f in incoming if marking[f"f:{f.id}"] >= 1]
        if marked and len(marked) < len(incoming):
            joins.append(node.id)
    return sorted(joins)
