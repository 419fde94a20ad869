"""Tests for the fluent builder and ProcessDefinition queries."""

import pytest

from repro.model.builder import ProcessBuilder
from repro.model.elements import EndEvent, ScriptTask, SequenceFlow, StartEvent, UserTask
from repro.model.errors import ModelError, ValidationFailed
from repro.model.process import ProcessDefinition


def linear_model():
    return (
        ProcessBuilder("linear")
        .start()
        .script_task("a", script="x = 1")
        .script_task("b", script="y = x + 1")
        .end()
        .build()
    )


class TestLinearBuilding:
    def test_linear_chain_connects_in_order(self):
        model = linear_model()
        assert [f.target for f in model.outgoing("start")] == ["a"]
        assert [f.target for f in model.outgoing("a")] == ["b"]
        assert [f.target for f in model.outgoing("b")] == ["end"]

    def test_identifier_and_versioning(self):
        model = linear_model()
        assert model.identifier == "linear:0"
        v2 = model.with_version(2)
        assert v2.identifier == "linear:2"
        assert v2.nodes == model.nodes

    def test_start_must_be_first(self):
        builder = ProcessBuilder("p").start()
        with pytest.raises(ModelError):
            builder.start("again")

    def test_flow_ids_are_unique(self):
        model = linear_model()
        assert len(model.flows) == 3
        assert len({f.id for f in model.flows.values()}) == 3


class TestBranching:
    def build_diamond(self):
        return (
            ProcessBuilder("diamond")
            .start()
            .exclusive_gateway("split")
            .branch(condition="amount > 100")
            .user_task("manager_approval", role="manager")
            .exclusive_gateway("join")
            .branch_from("split", default=True)
            .script_task("auto_approve", script="approved = true")
            .connect_to("join")
            .move_to("join")
            .end()
            .build()
        )

    def test_diamond_structure(self):
        model = self.build_diamond()
        split_targets = {f.target for f in model.outgoing("split")}
        assert split_targets == {"manager_approval", "auto_approve"}
        join_sources = {f.source for f in model.incoming("join")}
        assert join_sources == {"manager_approval", "auto_approve"}

    def test_branch_conditions_attached(self):
        model = self.build_diamond()
        guarded = [f for f in model.outgoing("split") if f.condition]
        defaults = [f for f in model.outgoing("split") if f.is_default]
        assert len(guarded) == 1 and guarded[0].condition == "amount > 100"
        assert len(defaults) == 1 and defaults[0].target == "auto_approve"

    def test_condition_and_default_flow_mark_the_next_flow(self):
        model = (
            ProcessBuilder("marked")
            .start()
            .exclusive_gateway("split")
            .condition("amount > 100")
            .user_task("manager_approval", role="manager")
            .exclusive_gateway("join")
            .move_to("split")
            .default_flow()
            .script_task("auto_approve", script="approved = true")
            .connect_to("join")
            .move_to("join")
            .end()
            .build()
        )
        by_target = {f.target: f for f in model.outgoing("split")}
        assert by_target["manager_approval"].condition == "amount > 100"
        assert not by_target["manager_approval"].is_default
        assert by_target["auto_approve"].is_default
        assert by_target["auto_approve"].condition is None
        # each mark applies to one flow only
        assert all(
            f.condition is None and not f.is_default
            for f in model.flows.values()
            if f.source != "split"
        )

    def test_branch_without_gateway_raises(self):
        with pytest.raises(ModelError):
            ProcessBuilder("p").start().branch(condition="x")

    def test_branch_from_unknown_node_raises(self):
        builder = ProcessBuilder("p").start()
        with pytest.raises(ModelError):
            builder.branch_from("ghost")

    def test_connect_to_requires_cursor(self):
        builder = ProcessBuilder("p")
        with pytest.raises(ModelError):
            builder.connect_to("anywhere")

    def test_parallel_block(self):
        model = (
            ProcessBuilder("par")
            .start()
            .parallel_gateway("fork")
            .branch()
            .script_task("left", script="l = 1")
            .parallel_gateway("sync")
            .branch_from("fork")
            .script_task("right", script="r = 1")
            .connect_to("sync")
            .move_to("sync")
            .end()
            .build()
        )
        assert {f.target for f in model.outgoing("fork")} == {"left", "right"}
        assert {f.source for f in model.incoming("sync")} == {"left", "right"}


class TestBuildValidation:
    def test_build_raises_on_invalid(self):
        builder = ProcessBuilder("bad").start().script_task("a", script="x = 1")
        # no end event
        with pytest.raises(ValidationFailed):
            builder.build()

    def test_build_without_validation_permits_invalid(self):
        builder = ProcessBuilder("bad").start().script_task("a", script="x = 1")
        model = builder.build(validate=False)
        assert "a" in model.nodes

    def test_validation_failure_carries_report(self):
        builder = ProcessBuilder("bad").start().script_task("a", script="x = 1")
        with pytest.raises(ValidationFailed) as excinfo:
            builder.build()
        assert excinfo.value.report.errors


class TestProcessDefinition:
    def test_duplicate_node_rejected(self):
        definition = ProcessDefinition("p")
        definition.add_node(StartEvent("start"))
        with pytest.raises(ModelError):
            definition.add_node(StartEvent("start"))

    def test_flow_to_unknown_node_rejected(self):
        definition = ProcessDefinition("p")
        definition.add_node(StartEvent("start"))
        with pytest.raises(ModelError):
            definition.add_flow(SequenceFlow("f", "start", "ghost"))

    def test_node_lookup_raises_for_missing(self):
        with pytest.raises(ModelError):
            ProcessDefinition("p").node("missing")

    def test_flow_lookup_raises_for_missing(self):
        with pytest.raises(ModelError):
            ProcessDefinition("p").flow("missing")

    def test_boundary_events_of(self):
        model = (
            ProcessBuilder("with_boundary")
            .start()
            .service_task("risky", service="svc")
            .end()
            .boundary_error("on_error", attached_to="risky", error_code="E")
            .end("error_end")
            .build()
        )
        boundaries = model.boundary_events_of("risky")
        assert [b.id for b in boundaries] == ["on_error"]

    def test_reachable_from_start_includes_boundary_paths(self):
        model = (
            ProcessBuilder("with_boundary")
            .start()
            .service_task("risky", service="svc")
            .end()
            .boundary_error("on_error", attached_to="risky")
            .end("error_end")
            .build()
        )
        reachable = model.reachable_from_start()
        assert "on_error" in reachable
        assert "error_end" in reachable

    def test_nodes_of_type(self):
        model = linear_model()
        scripts = list(model.nodes_of_type(ScriptTask))
        assert {s.id for s in scripts} == {"a", "b"}
        assert len(list(model.nodes_of_type(EndEvent))) == 1

    def test_empty_key_rejected(self):
        with pytest.raises(ModelError):
            ProcessDefinition("")

    def test_repr(self):
        assert "linear:0" in repr(linear_model())
