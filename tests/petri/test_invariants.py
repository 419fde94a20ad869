"""Tests for incidence matrix and P/T invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.petri import builders
from repro.petri.invariants import (
    incidence_matrix,
    invariant_value,
    p_invariants,
    place_invariant_cover,
    t_invariants,
)
from repro.petri.marking import Marking
from repro.petri.net import PetriNet
from repro.petri.reachability import build_reachability_graph


def cycle_net():
    net = PetriNet("cycle")
    net.add_place("p")
    net.add_place("q")
    net.add_transition("t1")
    net.add_transition("t2")
    net.add_arc("p", "t1")
    net.add_arc("t1", "q")
    net.add_arc("q", "t2")
    net.add_arc("t2", "p")
    return net


class TestIncidenceMatrix:
    def test_sequence_net_matrix(self):
        net = builders.sequence_net(2)
        places, transitions, rows = incidence_matrix(net)
        assert places == ["i", "o", "p1"]
        assert transitions == ["t1", "t2"]
        matrix = {p: dict(zip(transitions, row)) for p, row in zip(places, rows)}
        assert matrix["i"] == {"t1": -1, "t2": 0}
        assert matrix["p1"] == {"t1": 1, "t2": -1}
        assert matrix["o"] == {"t1": 0, "t2": 1}

    def test_self_loop_cancels_in_incidence(self):
        net = PetriNet()
        net.add_place("p")
        net.add_transition("t")
        net.add_arc("p", "t")
        net.add_arc("t", "p")
        _, _, rows = incidence_matrix(net)
        assert rows == [[0]]


class TestPInvariants:
    def test_cycle_has_token_conservation_invariant(self):
        invariants = p_invariants(cycle_net())
        assert {"p": 1, "q": 1} in invariants

    def test_sequence_net_invariant_conserves_single_token(self):
        net = builders.sequence_net(3)
        invariants = p_invariants(net)
        assert any(set(inv) == {"i", "p1", "p2", "o"} for inv in invariants)

    def test_invariant_value_constant_over_state_space(self):
        net = builders.structured_net(8)
        graph = build_reachability_graph(net, Marking({"i": 1}))
        for invariant in p_invariants(net):
            values = {invariant_value(invariant, m) for m in graph.markings}
            assert len(values) == 1, invariant

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=1, max_value=6))
    def test_invariance_property_for_parallel_nets(self, k):
        net = builders.parallel_net(k)
        graph = build_reachability_graph(net, Marking({"i": 1}))
        for invariant in p_invariants(net):
            baseline = invariant_value(invariant, Marking({"i": 1}))
            assert all(
                invariant_value(invariant, m) == baseline for m in graph.markings
            )

    def test_cover_detects_structural_boundedness(self):
        covered, uncovered = place_invariant_cover(builders.sequence_net(4))
        assert covered and not uncovered

    def test_cover_flags_unbounded_place(self):
        covered, uncovered = place_invariant_cover(builders.unbounded_net())
        assert not covered
        assert "buffer" in uncovered


class TestTInvariants:
    def test_cycle_has_t_invariant(self):
        invariants = t_invariants(cycle_net())
        assert {"t1": 1, "t2": 1} in invariants

    def test_acyclic_net_has_no_t_invariant(self):
        assert t_invariants(builders.sequence_net(3)) == []

    def test_loop_net_has_rework_t_invariant(self):
        invariants = t_invariants(builders.loop_net())
        assert any(
            inv.get("do") and inv.get("check") and inv.get("redo") for inv in invariants
        )

    def test_t_invariant_reproduces_marking(self):
        net = cycle_net()
        m = Marking({"p": 1})
        assert net.fire_sequence(m, ["t1", "t2"]) == m
