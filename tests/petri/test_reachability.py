"""Tests for reachability-graph construction and derived properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.petri import builders
from repro.petri.errors import AnalysisBudgetExceeded
from repro.petri.marking import Marking
from repro.petri.net import PetriNet
from repro.petri.reachability import build_reachability_graph


class TestConstruction:
    def test_sequence_net_state_count(self):
        net = builders.sequence_net(5)
        graph = build_reachability_graph(net, Marking({"i": 1}))
        # i, p1..p4, o  -> 6 markings
        assert graph.size == 6
        assert graph.edge_count == 5

    def test_parallel_net_explodes_exponentially(self):
        for k in (2, 3, 4):
            net = builders.parallel_net(k)
            graph = build_reachability_graph(net, Marking({"i": 1}))
            # i, o, plus interleavings: each branch in {before, after} -> 3**? no:
            # split puts one token per branch; each branch is 2-state -> 2**k
            assert graph.size == 2 + 2**k

    def test_budget_exceeded_raises(self):
        net = builders.parallel_net(6)
        with pytest.raises(AnalysisBudgetExceeded):
            build_reachability_graph(net, Marking({"i": 1}), max_states=10)

    def test_unbounded_net_exhausts_budget(self):
        net = builders.unbounded_net()
        with pytest.raises(AnalysisBudgetExceeded):
            build_reachability_graph(net, Marking({"i": 1}), max_states=500)

    def test_initial_marking_always_included(self):
        net = builders.sequence_net(1)
        graph = build_reachability_graph(net, Marking({"i": 1}))
        assert Marking({"i": 1}) in graph.markings


class TestProperties:
    def test_deadlock_detection(self):
        net = builders.deadlocking_net()
        graph = build_reachability_graph(net, Marking({"i": 1}))
        deadlocks = graph.deadlocks()
        # choosing a or b leaves a lone token the AND-join cannot consume
        assert Marking({"pa": 1}) in deadlocks
        assert Marking({"pb": 1}) in deadlocks

    def test_final_marking_counts_as_deadlock(self):
        net = builders.sequence_net(2)
        graph = build_reachability_graph(net, Marking({"i": 1}))
        assert graph.deadlocks() == [Marking({"o": 1})]

    def test_dead_transition_detection(self):
        net = builders.dead_transition_net()
        graph = build_reachability_graph(net, Marking({"i": 1}))
        assert graph.dead_transitions() == {"ghost"}

    def test_no_dead_transitions_in_sound_net(self):
        net = builders.structured_net(10)
        graph = build_reachability_graph(net, Marking({"i": 1}))
        assert graph.dead_transitions() == set()

    def test_can_reach(self):
        net = builders.sequence_net(3)
        graph = build_reachability_graph(net, Marking({"i": 1}))
        assert graph.can_reach(Marking({"i": 1}), Marking({"o": 1}))
        assert not graph.can_reach(Marking({"o": 1}), Marking({"i": 1}))
        assert graph.can_reach(Marking({"p1": 1}), Marking({"p1": 1}))

    def test_markings_reaching_final(self):
        net = builders.sequence_net(2)
        graph = build_reachability_graph(net, Marking({"i": 1}))
        reaching = graph.markings_reaching(Marking({"o": 1}))
        assert reaching == graph.markings

    def test_markings_reaching_unknown_target_is_empty(self):
        net = builders.sequence_net(2)
        graph = build_reachability_graph(net, Marking({"i": 1}))
        assert graph.markings_reaching(Marking({"nowhere": 1})) == set()

    def test_safety(self):
        safe = builders.parallel_net(3)
        graph = build_reachability_graph(safe, Marking({"i": 1}))
        assert graph.is_safe()

        unsafe = PetriNet()
        unsafe.add_place("p")
        unsafe.add_transition("t")
        unsafe.add_place("q")
        unsafe.add_arc("p", "t")
        unsafe.add_arc("t", "q", weight=2)
        g2 = build_reachability_graph(unsafe, Marking({"p": 1}))
        assert not g2.is_safe()
        assert g2.max_tokens_per_place()["q"] == 2

    def test_liveness_of_cyclic_net(self):
        # a simple cycle is live; a WF-net (terminating) is not
        net = PetriNet()
        net.add_place("p")
        net.add_place("q")
        net.add_transition("t1")
        net.add_transition("t2")
        net.add_arc("p", "t1")
        net.add_arc("t1", "q")
        net.add_arc("q", "t2")
        net.add_arc("t2", "p")
        graph = build_reachability_graph(net, Marking({"p": 1}))
        assert graph.is_live()

        seq_graph = build_reachability_graph(builders.sequence_net(2), Marking({"i": 1}))
        assert not seq_graph.is_live()

    def test_home_markings_of_cycle(self):
        net = PetriNet()
        net.add_place("p")
        net.add_place("q")
        net.add_transition("t1")
        net.add_transition("t2")
        net.add_arc("p", "t1")
        net.add_arc("t1", "q")
        net.add_arc("q", "t2")
        net.add_arc("t2", "p")
        graph = build_reachability_graph(net, Marking({"p": 1}))
        assert graph.home_markings() == graph.markings

    def test_home_marking_of_wf_net_is_final_only(self):
        graph = build_reachability_graph(builders.sequence_net(2), Marking({"i": 1}))
        assert graph.home_markings() == {Marking({"o": 1})}


class TestInvariantOverStateSpace:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=8))
    def test_sequence_net_token_conservation(self, n):
        net = builders.sequence_net(n)
        graph = build_reachability_graph(net, Marking({"i": 1}))
        assert all(m.total == 1 for m in graph.markings)
        assert graph.size == n + 1

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=1, max_value=5))
    def test_choice_net_has_two_markings_regardless_of_branches(self, n):
        net = builders.choice_net(n)
        graph = build_reachability_graph(net, Marking({"i": 1}))
        assert graph.size == 2

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=1, max_value=6))
    def test_every_edge_is_a_legal_firing(self, n):
        net = builders.structured_net(n)
        graph = build_reachability_graph(net, Marking({"i": 1}))
        for source, successors in graph.edges.items():
            for transition_id, target in successors:
                assert net.fire(source, transition_id) == target
