"""The one state-space core against the reference reachability graph.

``explore`` classifies the Karp–Miller graph instead of building the
reachability graph a second time.  That is only sound if, on a bounded
net, the two graphs are the same: same markings, same labelled edges.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.petri import builders
from repro.petri.errors import AnalysisBudgetExceeded
from repro.petri.marking import Marking
from repro.petri.net import PetriNet
from repro.petri.reachability import build_reachability_graph
from repro.petri.workflow_net import explore

BUDGET = 300


def _edges(edges):
    return {(m, t, n) for m, successors in edges.items() for t, n in successors}


def assert_matches_reference(net, initial, final, max_states=BUDGET):
    space = explore(net, initial, final, max_states)
    if space.graph is None:
        # skipped or unbounded: the reference must overrun the same budget
        assert space.skipped or space.unbounded
        with pytest.raises(AnalysisBudgetExceeded):
            build_reachability_graph(net, initial, max_states=max_states)
        return space
    reference = build_reachability_graph(net, initial, max_states=max_states)
    assert space.graph.markings == reference.markings
    assert set(space.graph.edges) == set(reference.edges)
    assert _edges(space.graph.edges) == _edges(reference.edges)

    # the classification, recomputed from the reference graph
    stuck = reference.markings - reference.markings_reaching(final)
    assert space.state_count == reference.size
    assert space.markings == sorted(reference.markings, key=repr)
    assert space.stuck == sorted(stuck, key=repr)
    assert space.deadlocks == sorted(
        (m for m in reference.deadlocks() if not m.covers(final)), key=repr
    )
    assert space.livelocks == sorted(
        (m for m in stuck if reference.edges[m] and not m.covers(final)), key=repr
    )
    assert space.improper == sorted(
        (m for m in reference.markings if m.covers(final) and m != final), key=repr
    )
    assert space.dead_transitions == sorted(reference.dead_transitions())
    return space


@pytest.mark.parametrize(
    "net",
    [
        builders.sequence_net(4),
        builders.parallel_net(4),
        builders.choice_net(3),
        builders.loop_net(),
        builders.structured_net(12),
        builders.deadlocking_net(),
        builders.improper_completion_net(),
        builders.dead_transition_net(),
    ],
    ids=lambda n: n.name,
)
def test_builder_families_match_the_reference(net):
    space = assert_matches_reference(net, Marking({"i": 1}), Marking({"o": 1}))
    assert space.skipped is None and not space.unbounded


def test_unbounded_family_reports_its_places():
    space = assert_matches_reference(
        builders.unbounded_net(), Marking({"i": 1}), Marking({"o": 1})
    )
    assert space.unbounded == ["buffer", "o"]
    assert space.skipped is None


def test_budget_overrun_is_skipped_not_raised():
    space = assert_matches_reference(
        builders.parallel_net(6), Marking({"i": 1}), Marking({"o": 1}), 10
    )
    assert space.skipped.startswith("analysis budget exceeded: ")


@st.composite
def small_nets(draw):
    """Up to five places and five transitions with weighted arcs, an
    initial marking and a final marking over the same places."""
    places = [f"p{k}" for k in range(draw(st.integers(2, 5)))]
    net = PetriNet("drawn")
    for place in places:
        net.add_place(place)
    # mostly unit weights and non-empty presets and postsets, so that
    # many draws are bounded and fire
    weights = st.sampled_from([1, 1, 1, 2])
    for k in range(draw(st.integers(1, 5))):
        transition = f"t{k}"
        net.add_transition(transition)
        for place in draw(st.sets(st.sampled_from(places), min_size=1, max_size=2)):
            net.add_arc(place, transition, draw(weights))
        for place in draw(st.sets(st.sampled_from(places), min_size=1, max_size=2)):
            net.add_arc(transition, place, draw(weights))
    counts = st.dictionaries(st.sampled_from(places), st.integers(0, 2))
    # t0 is enabled in the initial marking
    initial = Marking(draw(counts)).plus(net.preset("t0"))
    return net, initial, Marking(draw(counts))


@settings(max_examples=200, deadline=None)
@given(small_nets())
def test_drawn_nets_match_the_reference(drawn):
    assert_matches_reference(*drawn)
