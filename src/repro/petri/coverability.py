"""Coverability analysis (Karp–Miller) for boundedness checking.

Where the reachability graph diverges on unbounded nets, the Karp–Miller
construction accelerates strictly growing token counts to the symbolic value
``OMEGA`` and always terminates.  Its primary use here is the boundedness
pre-check of the WF-net soundness procedure.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from math import inf

from repro.petri.errors import AnalysisBudgetExceeded
from repro.petri.marking import Marking
from repro.petri.net import PetriNet


class _Omega:
    """The symbolic 'arbitrarily many tokens' value; absorbs arithmetic."""

    _instance: "_Omega | None" = None

    def __new__(cls) -> "_Omega":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ω"

    def __hash__(self) -> int:
        return hash("__omega__")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Omega)


OMEGA = _Omega()

# Extended counts: int or OMEGA.
ExtendedCount = int | _Omega


def _ge(a: ExtendedCount, b: ExtendedCount) -> bool:
    if a is OMEGA:
        return True
    if b is OMEGA:
        return False
    return a >= b


def _sub(a: ExtendedCount, b: int) -> ExtendedCount:
    return OMEGA if a is OMEGA else a - b


def _add(a: ExtendedCount, b: int) -> ExtendedCount:
    return OMEGA if a is OMEGA else a + b


class ExtendedMarking:
    """A marking over ``int | OMEGA`` counts; hashable and comparable."""

    __slots__ = ("_counts", "_hash", "total")

    def __init__(self, counts: dict[str, ExtendedCount]) -> None:
        self._counts = {p: c for p, c in counts.items() if c is OMEGA or c > 0}
        self._hash: int | None = None
        #: tokens held, infinite when a place holds ``OMEGA``
        self.total = inf if self.has_omega else sum(self._counts.values())

    @classmethod
    def from_marking(cls, marking: Marking) -> "ExtendedMarking":
        return cls(dict(marking.to_dict()))

    def get(self, place: str) -> ExtendedCount:
        return self._counts.get(place, 0)

    def items(self) -> list[tuple[str, ExtendedCount]]:
        return list(self._counts.items())

    def covers(self, weights: dict[str, int]) -> bool:
        return all(_ge(self.get(p), w) for p, w in weights.items())

    def ge(self, other: "ExtendedMarking") -> bool:
        """Pointwise >= (a place outside ``other``'s support holds 0 there)."""
        return all(_ge(self.get(p), c) for p, c in other._counts.items())

    def strictly_gt(self, other: "ExtendedMarking") -> bool:
        return self.ge(other) and self._counts != other._counts

    def fire(self, pre: dict[str, int], post: dict[str, int]) -> "ExtendedMarking":
        counts = dict(self._counts)
        for place, weight in pre.items():
            counts[place] = _sub(counts.get(place, 0), weight)
        for place, weight in post.items():
            counts[place] = _add(counts.get(place, 0), weight)
        return ExtendedMarking(counts)

    def accelerate(self, ancestor: "ExtendedMarking") -> "ExtendedMarking":
        """Set strictly-grown places to OMEGA relative to ``ancestor``."""
        counts: dict[str, ExtendedCount] = dict(self._counts)
        for place in set(counts) | set(ancestor._counts):
            mine, theirs = self.get(place), ancestor.get(place)
            if mine is not OMEGA and theirs is not OMEGA and mine > theirs:
                counts[place] = OMEGA
        return ExtendedMarking(counts)

    @property
    def has_omega(self) -> bool:
        return any(c is OMEGA for c in self._counts.values())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ExtendedMarking) and self._counts == other._counts

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._counts.items()))
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{p!r}: {c}" for p, c in sorted(self._counts.items(), key=lambda x: x[0]))
        return f"ExtendedMarking({{{inner}}})"


@dataclass
class CoverabilityGraph:
    """Karp–Miller coverability graph."""

    net: PetriNet
    initial: ExtendedMarking
    nodes: set[ExtendedMarking] = field(default_factory=set)
    edges: dict[ExtendedMarking, list[tuple[str, ExtendedMarking]]] = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.nodes)

    def is_bounded(self) -> bool:
        """True iff no reachable extended marking contains OMEGA."""
        return not any(node.has_omega for node in self.nodes)

    def unbounded_places(self) -> set[str]:
        """Places that can accumulate arbitrarily many tokens."""
        result: set[str] = set()
        for node in self.nodes:
            for place, count in node.items():
                if count is OMEGA:
                    result.add(place)
        return result

    def coverable(self, target: dict[str, int]) -> bool:
        """True if some node covers the target sub-marking."""
        return any(node.covers(target) for node in self.nodes)


def build_coverability_graph(
    net: PetriNet,
    initial: Marking,
    max_states: int = 100_000,
) -> CoverabilityGraph:
    """Karp–Miller construction with ancestor-path acceleration.

    A node tries only the transitions its marked places feed (and those
    without inputs) and walks its ancestors through parent links; a finite
    successor holding no more tokens than an ancestor cannot strictly
    cover it, so that pair is not compared place by place."""
    order = {t: index for index, t in enumerate(net.transitions)}
    pre = {t: net.preset(t) for t in net.transitions}
    post = {t: net.postset(t) for t in net.transitions}
    consumers: dict[str, set[str]] = {}
    for transition_id, inputs in pre.items():
        for place in inputs:
            consumers.setdefault(place, set()).add(transition_id)
    sources = {t for t, inputs in pre.items() if not inputs}
    root = ExtendedMarking.from_marking(initial)
    graph = CoverabilityGraph(net=net, initial=root)
    graph.nodes.add(root)
    parents: dict[ExtendedMarking, ExtendedMarking | None] = {root: None}
    queue: deque[ExtendedMarking] = deque([root])
    while queue:
        node = queue.popleft()
        successors = graph.edges.setdefault(node, [])
        path: list[ExtendedMarking] = []
        ancestor: ExtendedMarking | None = node
        while ancestor is not None:
            path.append(ancestor)
            ancestor = parents[ancestor]
        path.reverse()  # root first: acceleration order matters
        enabled = sources.union(*(consumers.get(place, ()) for place in node._counts))
        for transition_id in sorted(enabled, key=order.__getitem__):
            if not node.covers(pre[transition_id]):
                continue
            nxt = node.fire(pre[transition_id], post[transition_id])
            for ancestor in path:
                if (nxt.total > ancestor.total or nxt.total == inf) and nxt.strictly_gt(ancestor):
                    nxt = nxt.accelerate(ancestor)
            successors.append((transition_id, nxt))
            if nxt not in graph.nodes:
                if len(graph.nodes) >= max_states:
                    raise AnalysisBudgetExceeded(max_states)
                graph.nodes.add(nxt)
                parents[nxt] = node
                queue.append(nxt)
    return graph


def is_bounded(net: PetriNet, initial: Marking, max_states: int = 100_000) -> bool:
    """Convenience wrapper: Karp–Miller boundedness verdict."""
    return build_coverability_graph(net, initial, max_states).is_bounded()
