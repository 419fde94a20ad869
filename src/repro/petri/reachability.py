"""Reachability analysis: explicit state-space construction and properties.

The reachability graph has one node per reachable marking and one labelled
edge per transition firing.  Construction is breadth-first with an explicit
state budget (experiment F5 shows why: k parallel branches yield 2**k
interleaved markings).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.petri.errors import AnalysisBudgetExceeded
from repro.petri.marking import Marking
from repro.petri.net import PetriNet

DEFAULT_MAX_STATES = 100_000


@dataclass
class ReachabilityGraph:
    """The explicit state space of a net from an initial marking."""

    net: PetriNet
    initial: Marking
    markings: set[Marking] = field(default_factory=set)
    # edges[m] = [(transition_id, m_successor), ...]
    edges: dict[Marking, list[tuple[str, Marking]]] = field(default_factory=dict)

    @property
    def size(self) -> int:
        """Number of reachable markings."""
        return len(self.markings)

    @property
    def edge_count(self) -> int:
        """Number of firing edges."""
        return sum(len(v) for v in self.edges.values())

    def deadlocks(self) -> list[Marking]:
        """Reachable markings with no enabled transition."""
        return [m for m in self.markings if not self.edges.get(m)]

    def dead_transitions(self) -> set[str]:
        """Transitions that never fire anywhere in the state space."""
        fired = {t for succ in self.edges.values() for t, _ in succ}
        return set(self.net.transitions) - fired

    def can_reach(self, source: Marking, target: Marking) -> bool:
        """True if ``target`` is reachable from ``source`` inside the graph."""
        if source == target:
            return True
        seen = {source}
        queue = deque([source])
        while queue:
            current = queue.popleft()
            for _, nxt in self.edges.get(current, ()):
                if nxt == target:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return False

    def markings_reaching(self, target: Marking) -> set[Marking]:
        """All graph nodes from which ``target`` is reachable (incl. itself)."""
        reverse: dict[Marking, list[Marking]] = {}
        for src, succ in self.edges.items():
            for _, dst in succ:
                reverse.setdefault(dst, []).append(src)
        if target not in self.markings:
            return set()
        result = {target}
        queue = deque([target])
        while queue:
            current = queue.popleft()
            for prev in reverse.get(current, ()):
                if prev not in result:
                    result.add(prev)
                    queue.append(prev)
        return result

    def _bottom_components(self) -> list[set[Marking]]:
        """The terminal strongly connected components: markings that reach
        one another and nothing else.  Every marking reaches one of them
        (one iterative Tarjan pass, linear in markings and edges)."""
        successors = {
            m: [n for _, n in self.edges.get(m, ()) if n in self.markings]
            for m in self.markings
        }
        index: dict[Marking, int] = {}
        low: dict[Marking, int] = {}  # its keys: the markings on the stack
        stack: list[Marking] = []
        bottoms: list[set[Marking]] = []
        for root in self.markings:
            if root in index:
                continue
            index[root] = low[root] = len(index)
            stack.append(root)
            work = [(root, iter(successors[root]))]
            while work:
                node, pending = work[-1]
                for nxt in pending:
                    if nxt not in index:
                        index[nxt] = low[nxt] = len(index)
                        stack.append(nxt)
                        work.append((nxt, iter(successors[nxt])))
                        break
                    if nxt in low:
                        low[node] = min(low[node], index[nxt])
                else:
                    work.pop()
                    if low[node] < index[node]:  # not a component's root
                        parent = work[-1][0]
                        low[parent] = min(low[parent], low[node])
                        continue
                    component = set()
                    while node not in component:
                        member = stack.pop()
                        del low[member]
                        component.add(member)
                    if all(n in component for m in component for n in successors[m]):
                        bottoms.append(component)
        return bottoms

    def is_live(self) -> bool:
        """Classical liveness: every transition can fire again from every
        reachable marking (L4-liveness) — so every bottom component, which
        all markings reach and none leaves, enables every transition."""
        transitions = set(self.net.transitions)
        return all(
            {t for m in bottom for t in self.net.enabled(m)} >= transitions
            for bottom in self._bottom_components()
        )

    def home_markings(self) -> set[Marking]:
        """Markings reachable from every reachable marking: the one bottom
        component when there is exactly one, else none."""
        bottoms = self._bottom_components()
        return bottoms[0] if len(bottoms) == 1 else set()

    def max_tokens_per_place(self) -> dict[str, int]:
        """The bound observed for each place over the explored space."""
        bounds: dict[str, int] = {p: 0 for p in self.net.places}
        for marking in self.markings:
            for place, count in marking.items():
                if count > bounds.get(place, 0):
                    bounds[place] = count
        return bounds

    def is_safe(self) -> bool:
        """True if no place ever holds more than one token (1-bounded)."""
        return all(bound <= 1 for bound in self.max_tokens_per_place().values())


def build_reachability_graph(
    net: PetriNet,
    initial: Marking,
    max_states: int = DEFAULT_MAX_STATES,
) -> ReachabilityGraph:
    """Breadth-first construction of the reachability graph.

    Raises :class:`AnalysisBudgetExceeded` when more than ``max_states``
    distinct markings are found — unbounded nets always do.  Use
    :func:`repro.petri.coverability.build_coverability_graph` first when
    boundedness is unknown.
    """
    graph = ReachabilityGraph(net=net, initial=initial)
    graph.markings.add(initial)
    queue: deque[Marking] = deque([initial])
    while queue:
        marking = queue.popleft()
        successors: list[tuple[str, Marking]] = []
        for transition_id in net.enabled(marking):
            nxt = net.fire(marking, transition_id)
            successors.append((transition_id, nxt))
            if nxt not in graph.markings:
                if len(graph.markings) >= max_states:
                    raise AnalysisBudgetExceeded(max_states)
                graph.markings.add(nxt)
                queue.append(nxt)
        graph.edges[marking] = successors
    return graph
