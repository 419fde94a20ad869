"""Home markings and liveness against their brute-force definitions.

``ReachabilityGraph`` answers both from the bottom strongly connected
components in one pass.  Here each is recomputed straight from its
definition — a forward search from every marking — on every builder
family and on drawn bounded nets.
"""

import pytest
from hypothesis import given, settings

from tests.petri import builders
from repro.petri.errors import AnalysisBudgetExceeded
from repro.petri.marking import Marking
from repro.petri.net import PetriNet
from repro.petri.reachability import build_reachability_graph

from tests.petri.test_state_space import BUDGET, small_nets


def forward(graph, source):
    """Every marking reachable from ``source`` (itself included)."""
    seen = {source}
    frontier = [source]
    while frontier:
        for _, nxt in graph.edges.get(frontier.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def assert_matches_definitions(graph):
    reach = {m: forward(graph, m) for m in graph.markings}
    homes = {h for h in graph.markings if all(h in reach[m] for m in graph.markings)}
    live = all(
        any(graph.net.is_enabled(n, t) for n in reach[m])
        for t in graph.net.transitions
        for m in graph.markings
    )
    assert graph.home_markings() == homes
    assert graph.is_live() is live


def cycle_net():
    net = PetriNet("cycle")
    for place in ("p", "q"):
        net.add_place(place)
    for transition in ("t1", "t2"):
        net.add_transition(transition)
    net.add_arc("p", "t1")
    net.add_arc("t1", "q")
    net.add_arc("q", "t2")
    net.add_arc("t2", "p")
    return net


@pytest.mark.parametrize(
    "net, initial",
    [
        (builders.sequence_net(4), {"i": 1}),
        (builders.parallel_net(5), {"i": 1}),
        (builders.choice_net(3), {"i": 1}),
        (builders.loop_net(), {"i": 1}),
        (builders.structured_net(12), {"i": 1}),
        (builders.deadlocking_net(), {"i": 1}),
        (builders.improper_completion_net(), {"i": 1}),
        (builders.dead_transition_net(), {"i": 1}),
        (cycle_net(), {"p": 1}),
        (cycle_net(), {"p": 1, "q": 1}),
    ],
    ids=lambda v: getattr(v, "name", str(v)),
)
def test_builder_families_match_the_definitions(net, initial):
    assert_matches_definitions(build_reachability_graph(net, Marking(initial)))


def test_a_net_with_two_bottom_components_has_no_home_marking():
    net = PetriNet("split")
    for place in ("i", "a", "b"):
        net.add_place(place)
    for transition, target in (("ta", "a"), ("tb", "b")):
        net.add_transition(transition)
        net.add_arc("i", transition)
        net.add_arc(transition, target)
    graph = build_reachability_graph(net, Marking({"i": 1}))
    assert graph.home_markings() == set()
    assert_matches_definitions(graph)


@settings(max_examples=200, deadline=None)
@given(small_nets())
def test_drawn_nets_match_the_definitions(drawn):
    net, initial, _ = drawn
    try:
        graph = build_reachability_graph(net, initial, max_states=BUDGET)
    except AnalysisBudgetExceeded:
        return
    assert_matches_definitions(graph)
