"""Tests for Karp–Miller coverability and boundedness."""

import pytest

from tests.petri import builders
from repro.petri.coverability import (
    OMEGA,
    ExtendedMarking,
    build_coverability_graph,
    is_bounded,
)
from repro.petri.marking import Marking
from repro.petri.net import PetriNet


class TestExtendedMarking:
    def test_omega_is_singleton_and_absorbing(self):
        m = ExtendedMarking({"p": OMEGA})
        fired = m.fire({"p": 1}, {"p": 1})
        assert fired.get("p") is OMEGA

    def test_covers_with_omega(self):
        m = ExtendedMarking({"p": OMEGA})
        assert m.covers({"p": 1000})

    def test_ge_and_strictly_gt(self):
        a = ExtendedMarking({"p": 2})
        b = ExtendedMarking({"p": 1})
        assert a.ge(b)
        assert a.strictly_gt(b)
        assert not b.ge(a)
        assert not a.strictly_gt(a)

    def test_omega_dominates_int(self):
        a = ExtendedMarking({"p": OMEGA})
        b = ExtendedMarking({"p": 5})
        assert a.ge(b)
        assert not b.ge(a)

    def test_accelerate_sets_grown_places_to_omega(self):
        ancestor = ExtendedMarking({"p": 1})
        current = ExtendedMarking({"p": 2})
        assert current.accelerate(ancestor).get("p") is OMEGA

    def test_hash_equality(self):
        assert ExtendedMarking({"p": OMEGA}) == ExtendedMarking({"p": OMEGA})
        assert hash(ExtendedMarking({"p": 1})) == hash(ExtendedMarking({"p": 1}))

    def test_from_marking(self):
        em = ExtendedMarking.from_marking(Marking({"p": 3}))
        assert em.get("p") == 3


class TestBoundedness:
    def test_bounded_nets_report_bounded(self):
        for net in (
            builders.sequence_net(5),
            builders.parallel_net(4),
            builders.choice_net(3),
            builders.loop_net(),
            builders.structured_net(12),
        ):
            assert is_bounded(net, Marking({"i": 1})), net.name

    def test_unbounded_net_detected(self):
        net = builders.unbounded_net()
        graph = build_coverability_graph(net, Marking({"i": 1}))
        assert not graph.is_bounded()
        assert "buffer" in graph.unbounded_places()

    def test_classic_producer_net_unbounded(self):
        net = PetriNet()
        net.add_place("p")
        net.add_transition("t")
        net.add_arc("p", "t")
        net.add_arc("t", "p", weight=2)
        graph = build_coverability_graph(net, Marking({"p": 1}))
        assert not graph.is_bounded()
        assert graph.unbounded_places() == {"p"}

    def test_coverability_terminates_where_reachability_diverges(self):
        net = builders.unbounded_net()
        graph = build_coverability_graph(net, Marking({"i": 1}), max_states=10_000)
        assert graph.size < 100

    def test_coverable_query(self):
        net = builders.unbounded_net()
        graph = build_coverability_graph(net, Marking({"i": 1}))
        assert graph.coverable({"buffer": 40})
        assert not graph.coverable({"i": 2})

    def test_bounded_graph_matches_reachability_size(self):
        from repro.petri.reachability import build_reachability_graph

        net = builders.sequence_net(4)
        cover = build_coverability_graph(net, Marking({"i": 1}))
        reach = build_reachability_graph(net, Marking({"i": 1}))
        assert cover.size == reach.size
