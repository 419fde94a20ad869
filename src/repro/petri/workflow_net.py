"""Workflow nets (WF-nets) and the classical soundness check.

A WF-net is a Petri net with one source place ``i`` (empty preset), one sink
place ``o`` (empty postset), and every node on a path from ``i`` to ``o``.
Soundness (van der Aalst) requires, from the initial marking [i]:

* **option to complete** — [o] is reachable from every reachable marking;
* **proper completion** — any reachable marking covering ``o`` equals [o];
* **no dead transitions** — every transition fires in some run.

:func:`explore` is the one state-space core behind this check, the deploy
gate's SND rules and the choreography pass: a single Karp–Miller run rules
out unboundedness (an unbounded WF-net is never sound) and, on a bounded
net, is the reachability graph the three properties are decided on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

from repro.petri.coverability import build_coverability_graph
from repro.petri.errors import AnalysisBudgetExceeded, NotAWorkflowNetError
from repro.petri.marking import Marking
from repro.petri.net import PetriNet
from repro.petri.reachability import ReachabilityGraph


@dataclass
class WorkflowNet:
    """A Petri net with designated source and sink places."""

    net: PetriNet
    source: str
    sink: str

    @classmethod
    def detect(cls, net: PetriNet) -> "WorkflowNet":
        """Find the unique source/sink places and verify connectedness."""
        sources = [p for p in net.places if not net.place_inputs(p)]
        sinks = [p for p in net.places if not net.place_outputs(p)]
        if len(sources) != 1:
            raise NotAWorkflowNetError(
                f"expected exactly one source place, found {sorted(sources)}"
            )
        if len(sinks) != 1:
            raise NotAWorkflowNetError(
                f"expected exactly one sink place, found {sorted(sinks)}"
            )
        wf_net = cls(net=net, source=sources[0], sink=sinks[0])
        stranded = wf_net.nodes_off_path()
        if stranded:
            raise NotAWorkflowNetError(
                f"nodes not on a path from source to sink: {sorted(stranded)}"
            )
        return wf_net

    def initial_marking(self) -> Marking:
        """The canonical initial marking [i]."""
        return Marking.single(self.source)

    def final_marking(self) -> Marking:
        """The canonical final marking [o]."""
        return Marking.single(self.sink)

    def _adjacency(self) -> dict[str, set[str]]:
        forward: dict[str, set[str]] = {
            **{p: set() for p in self.net.places},
            **{t: set() for t in self.net.transitions},
        }
        for arc in self.net.arcs:
            forward[arc.source].add(arc.target)
        return forward

    def nodes_off_path(self) -> set[str]:
        """Nodes not on any directed path from source to sink."""
        forward = self._adjacency()
        reverse: dict[str, set[str]] = {n: set() for n in forward}
        for src, targets in forward.items():
            for tgt in targets:
                reverse[tgt].add(src)

        def closure(start: str, adj: dict[str, set[str]]) -> set[str]:
            seen = {start}
            stack = [start]
            while stack:
                node = stack.pop()
                for nxt in adj[node]:
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            return seen

        from_source = closure(self.source, forward)
        to_sink = closure(self.sink, reverse)
        all_nodes = set(forward)
        return all_nodes - (from_source & to_sink)

    def short_circuit(self) -> PetriNet:
        """The short-circuited net: add ``t* : o -> i``.

        The classical theorem: a WF-net is sound iff its short-circuited net
        is live and bounded.  Exposed for tests and the invariant-based
        boundedness shortcut.
        """
        closed = self.net.copy(name=f"{self.net.name}*")
        star = "__short_circuit__"
        closed.add_transition(star, label="t*", silent=True)
        closed.add_arc(self.sink, star)
        closed.add_arc(star, self.source)
        return closed


@dataclass
class StateSpace:
    """A net's state space from ``initial``, classified against ``final``.

    ``stuck`` markings cannot reach ``final``; of those that do not cover
    it, ``deadlocks`` have no successor and ``livelocks`` have one.
    ``improper`` markings cover ``final`` and differ from it.  Every list
    is sorted by ``repr``, so nothing depends on set order.
    """

    skipped: str | None = None
    unbounded: list[str] = field(default_factory=list)
    state_count: int = 0
    markings: list[Marking] = field(default_factory=list)
    stuck: list[Marking] = field(default_factory=list)
    deadlocks: list[Marking] = field(default_factory=list)
    livelocks: list[Marking] = field(default_factory=list)
    improper: list[Marking] = field(default_factory=list)
    dead_transitions: list[str] = field(default_factory=list)
    graph: ReachabilityGraph | None = None


def explore(
    net: PetriNet, initial: Marking, final: Marking, max_states: int
) -> StateSpace:
    """Explore ``net`` once and classify what it reaches; never raises.

    An exceeded budget sets only ``skipped``, an unbounded net only
    ``unbounded`` and ``state_count``.  On a bounded net no Karp–Miller
    acceleration fires, so the coverability graph is ``graph``.
    """
    try:
        coverability = build_coverability_graph(net, initial, max_states=max_states)
    except AnalysisBudgetExceeded as exc:
        return StateSpace(skipped=f"analysis budget exceeded: {exc}")
    if not coverability.is_bounded():
        return StateSpace(
            unbounded=sorted(coverability.unbounded_places()),
            state_count=coverability.size,
        )
    plain = {
        node: Marking((p, c) for p, c in node.items() if isinstance(c, int))
        for node in coverability.nodes
    }
    graph = ReachabilityGraph(
        net=net,
        initial=initial,
        markings=set(plain.values()),
        edges={
            plain[node]: [(t, plain[succ]) for t, succ in successors]
            for node, successors in coverability.edges.items()
        },
    )
    markings = sorted(graph.markings, key=repr)
    reaching_final = graph.markings_reaching(final)
    stuck = [m for m in markings if m not in reaching_final]
    return StateSpace(
        state_count=graph.size,
        markings=markings,
        stuck=stuck,
        deadlocks=[m for m in stuck if not graph.edges[m] and not m.covers(final)],
        livelocks=[m for m in stuck if graph.edges[m] and not m.covers(final)],
        improper=[m for m in markings if m.covers(final) and m != final],
        dead_transitions=sorted(graph.dead_transitions()),
        graph=graph,
    )


@dataclass
class SoundnessReport:
    """Outcome and diagnostics of a soundness check."""

    is_workflow_net: bool
    sound: bool
    bounded: bool | None = None
    option_to_complete: bool | None = None
    proper_completion: bool | None = None
    dead_transitions: set[str] = field(default_factory=set)
    structural_errors: list[str] = field(default_factory=list)
    #: witness against option to complete: a dead end if there is one
    counterexample: Marking | None = None
    #: witness against proper completion: it covers the sink
    improper_marking: Marking | None = None
    state_count: int = 0

    @property
    def problems(self) -> list[str]:
        """Human-readable list of everything that failed."""
        issues: list[str] = list(self.structural_errors)
        if self.bounded is False:
            issues.append("net is unbounded")
        if self.option_to_complete is False:
            issues.append(
                f"option to complete violated (stuck at {self.counterexample})"
            )
        if self.proper_completion is False:
            issues.append(
                f"proper completion violated (tokens left behind in {self.improper_marking})"
            )
        if self.dead_transitions:
            issues.append(f"dead transitions: {sorted(self.dead_transitions)}")
        return issues


def check_soundness(
    net: PetriNet,
    max_states: int = 100_000,
) -> SoundnessReport:
    """Decide classical soundness of a WF-net with diagnostics.

    Never raises for analysable nets: structural violations and budget
    exhaustion are reported in the returned :class:`SoundnessReport`.
    """
    try:
        wf_net = WorkflowNet.detect(net)
    except NotAWorkflowNetError as exc:
        return SoundnessReport(
            is_workflow_net=False, sound=False, structural_errors=[str(exc)]
        )

    space = explore(net, wf_net.initial_marking(), wf_net.final_marking(), max_states)
    if space.skipped is not None:
        return SoundnessReport(
            is_workflow_net=True, sound=False, structural_errors=[space.skipped]
        )
    if space.unbounded:
        return SoundnessReport(
            is_workflow_net=True,
            sound=False,
            bounded=False,
            state_count=space.state_count,
        )
    assert space.graph is not None
    dead_ends = [m for m in space.stuck if not space.graph.edges[m]]
    return SoundnessReport(
        is_workflow_net=True,
        sound=not (space.stuck or space.improper or space.dead_transitions),
        bounded=True,
        option_to_complete=not space.stuck,
        proper_completion=not space.improper,
        dead_transitions=set(space.dead_transitions),
        counterexample=next(chain(dead_ends, space.stuck), None),
        improper_marking=next(iter(space.improper), None),
        state_count=space.state_count,
    )
