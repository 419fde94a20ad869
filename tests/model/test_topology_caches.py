"""Topology caches on ProcessDefinition: hits, and every invalidation path.

``outgoing()``/``incoming()``/``nodes_of_type()``/``boundary_events_of()``
sit on the engine's per-token hot path (bench_f2); they return cached
immutable tuples.  The caches must survive reads unchanged and die on any
mutation — including *direct* ``del definition.nodes[...]``, which the
analysis tests perform to fabricate broken models.
"""

from repro.model.builder import ProcessBuilder
from repro.model.elements import (
    BoundaryEvent,
    EndEvent,
    ScriptTask,
    SequenceFlow,
    StartEvent,
    UserTask,
)


def two_task_model():
    return (
        ProcessBuilder("demo")
        .start()
        .script_task("a", script="x = 1")
        .user_task("b", role="clerk")
        .end()
        .build()
    )


class TestCacheHits:
    def test_outgoing_returns_same_tuple_object(self):
        d = two_task_model()
        first = d.outgoing("a")
        assert isinstance(first, tuple)
        assert d.outgoing("a") is first  # cache hit, no rebuild

    def test_incoming_returns_same_tuple_object(self):
        d = two_task_model()
        first = d.incoming("b")
        assert d.incoming("b") is first

    def test_nodes_of_type_returns_same_tuple_object(self):
        d = two_task_model()
        first = d.nodes_of_type(ScriptTask)
        assert isinstance(first, tuple)
        assert d.nodes_of_type(ScriptTask) is first
        assert [n.id for n in first] == ["a"]

    def test_start_and_end_events_use_the_type_cache(self):
        d = two_task_model()
        assert d.start_events() is d.nodes_of_type(StartEvent)
        assert d.end_events() is d.nodes_of_type(EndEvent)

    def test_boundary_index_built_once_for_all_activities(self):
        d = two_task_model()
        d.add_node(
            BoundaryEvent(id="bx", name="", attached_to="a", kind="timer", duration=5.0)
        )
        first = d.boundary_events_of("a")
        assert [e.id for e in first] == ["bx"]
        assert d.boundary_events_of("a") is first
        assert d.boundary_events_of("b") == ()


class TestCacheInvalidation:
    def test_add_flow_invalidates_adjacency(self):
        d = two_task_model()
        before = d.outgoing("a")
        d.add_flow(SequenceFlow(id="extra", source="a", target="end"))
        after = d.outgoing("a")
        assert after is not before
        assert {f.id for f in after} == {f.id for f in before} | {"extra"}
        # the untouched side is a fresh lookup but still correct
        assert {f.source for f in d.incoming("end")} == {"b", "a"}

    def test_add_node_invalidates_type_index(self):
        d = two_task_model()
        assert len(d.nodes_of_type(UserTask)) == 1
        d.add_node(UserTask(id="c", name="", role="clerk"))
        assert [n.id for n in d.nodes_of_type(UserTask)] == ["b", "c"]

    def test_direct_node_deletion_invalidates_type_index(self):
        """The analysis suite fabricates broken models by deleting nodes
        straight out of the dict — the caches must notice."""
        d = two_task_model()
        assert len(d.start_events()) == 1
        del d.nodes["start"]
        assert d.start_events() == ()
        assert d.nodes_of_type(StartEvent) == ()

    def test_dict_mutators_all_invalidate(self):
        d = two_task_model()
        assert len(d.nodes_of_type(ScriptTask)) == 1
        d.nodes.pop("a")
        assert d.nodes_of_type(ScriptTask) == ()
        d.nodes["a2"] = ScriptTask(id="a2", name="", script="x = 2")
        assert [n.id for n in d.nodes_of_type(ScriptTask)] == ["a2"]

    def test_popitem_invalidates(self):
        d = two_task_model()
        assert len(d.end_events()) == 1
        removed, _ = d.nodes.popitem()  # the last node the builder added
        assert removed == "end"
        assert d.end_events() == ()

    def test_clear_invalidates(self):
        d = two_task_model()
        assert len(d.nodes_of_type(ScriptTask)) == 1
        d.nodes["c"] = ScriptTask(
            id="c", name="", script="x = 0", compensation_handler="undo"
        )
        assert d.compensation_handler_ids() == frozenset({"undo"})
        d.nodes.clear()
        assert d.nodes_of_type(ScriptTask) == ()
        assert d.compensation_handler_ids() == frozenset()

    def test_update_invalidates(self):
        d = two_task_model()
        assert d.boundary_events_of("a") == ()
        d.nodes.update(
            bx=BoundaryEvent(id="bx", name="", attached_to="a", kind="timer", duration=5.0)
        )
        assert [e.id for e in d.boundary_events_of("a")] == ["bx"]

    def test_setdefault_invalidates(self):
        d = two_task_model()
        assert len(d.nodes_of_type(UserTask)) == 1
        d.nodes.setdefault("c", UserTask(id="c", name="", role="clerk"))
        assert [n.id for n in d.nodes_of_type(UserTask)] == ["b", "c"]

    def test_boundary_attach_invalidates_boundary_index(self):
        d = two_task_model()
        assert d.boundary_events_of("a") == ()
        d.add_node(
            BoundaryEvent(id="bx", name="", attached_to="a", kind="timer", duration=5.0)
        )
        assert [e.id for e in d.boundary_events_of("a")] == ["bx"]
