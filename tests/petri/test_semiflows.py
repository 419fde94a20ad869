"""Tests for Farkas P-semiflows (non-negative place invariants)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.petri import builders
from repro.petri.invariants import (
    invariant_value,
    p_semiflows,
    place_invariant_cover,
)
from repro.petri.marking import Marking
from repro.petri.net import PetriNet
from repro.petri.reachability import build_reachability_graph


class TestSemiflows:
    def test_sequence_net_single_semiflow(self):
        flows = p_semiflows(builders.sequence_net(3))
        assert len(flows) == 1
        assert flows[0] == {"i": 1, "p1": 1, "p2": 1, "o": 1}

    def test_all_weights_non_negative(self):
        for net in (
            builders.parallel_net(4),
            builders.choice_net(3),
            builders.loop_net(),
            builders.structured_net(10),
        ):
            for flow in p_semiflows(net):
                assert all(w > 0 for w in flow.values()), (net.name, flow)

    def test_parallel_net_one_semiflow_per_branch(self):
        flows = p_semiflows(builders.parallel_net(3))
        assert len(flows) == 3
        for flow in flows:
            assert "i" in flow and "o" in flow

    def test_semiflows_are_minimal_support(self):
        flows = p_semiflows(builders.structured_net(8))
        for index, flow in enumerate(flows):
            for other_index, other in enumerate(flows):
                if index != other_index:
                    assert not set(other) < set(flow)

    def test_semiflow_value_constant_on_reachable_markings(self):
        net = builders.structured_net(10)
        graph = build_reachability_graph(net, Marking({"i": 1}))
        for flow in p_semiflows(net):
            values = {invariant_value(flow, m) for m in graph.markings}
            assert len(values) == 1

    def test_weighted_net_semiflow(self):
        # t consumes 2 from p, produces 1 into q; 1*p-weight must be 1, q 2
        net = PetriNet()
        net.add_place("p")
        net.add_place("q")
        net.add_transition("t")
        net.add_transition("back")
        net.add_arc("p", "t", weight=2)
        net.add_arc("t", "q")
        net.add_arc("q", "back")
        net.add_arc("back", "p", weight=2)
        flows = p_semiflows(net)
        assert {"p": 1, "q": 2} in flows

    def test_cover_of_unbounded_net_fails(self):
        covered, uncovered = place_invariant_cover(builders.unbounded_net())
        assert not covered
        assert "buffer" in uncovered

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=1, max_value=12))
    def test_structured_nets_always_covered(self, n):
        covered, uncovered = place_invariant_cover(builders.structured_net(n))
        assert covered, uncovered

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=1, max_value=6))
    def test_semiflow_conservation_under_firing(self, k):
        net = builders.parallel_net(k)
        flows = p_semiflows(net)
        marking = Marking({"i": 1})
        # walk a full execution, checking conservation at every step
        while True:
            enabled = net.enabled(marking)
            if not enabled:
                break
            nxt = net.fire(marking, enabled[0])
            for flow in flows:
                assert invariant_value(flow, nxt) == invariant_value(flow, marking)
            marking = nxt
        assert marking == Marking({"o": 1})
