"""Engine tests: deployment, linear execution, gateways, failures."""

import pytest

from repro.engine.errors import (
    DefinitionNotFoundError,
    EngineError,
    InstanceNotFoundError,
)
from repro.engine.instance import InstanceState
from repro.history.events import EventTypes
from repro.model.builder import ProcessBuilder


def linear():
    return (
        ProcessBuilder("linear")
        .start()
        .script_task("a", script="x = 1")
        .script_task("b", script="y = x + 1")
        .end()
        .build()
    )


class TestDeployment:
    def test_deploy_assigns_versions(self, engine):
        assert engine.deploy(linear()) == "linear:1"
        assert engine.deploy(linear()) == "linear:2"
        assert engine.definition("linear").version == 2
        assert engine.definition("linear", version=1).version == 1

    def test_deploy_rejects_invalid_model(self, engine):
        broken = ProcessBuilder("broken").start().script_task("a", script="x = 1")
        with pytest.raises(EngineError, match="invalid"):
            engine.deploy(broken.build(validate=False))

    def test_deploy_with_soundness_verification(self, engine):
        assert engine.deploy(linear(), verify=True) == "linear:1"

    def test_deploy_verify_rejects_unsound_model(self, engine):
        # XOR split into AND join: the classic deadlock
        unsound = (
            ProcessBuilder("unsound")
            .start()
            .exclusive_gateway("split")
            .branch(condition="x > 1")
            .script_task("a", script="y = 1")
            .parallel_gateway("sync")
            .branch_from("split", default=True)
            .script_task("b", script="y = 2")
            .connect_to("sync")
            .move_to("sync")
            .end()
            .build()
        )
        with pytest.raises(EngineError, match="unsound"):
            engine.deploy(unsound, verify=True)

    def test_unknown_definition_raises(self, engine):
        with pytest.raises(DefinitionNotFoundError):
            engine.definition("ghost")
        with pytest.raises(DefinitionNotFoundError):
            engine.start_instance("ghost")

    def test_definitions_listing(self, engine):
        engine.deploy(linear())
        other = ProcessBuilder("other").start().manual_task("m").end().build()
        engine.deploy(other)
        assert [d.identifier for d in engine.definitions()] == ["linear:1", "other:1"]

    def test_instances_share_their_definition_identifier(self, engine):
        engine.deploy(linear())
        engine.deploy(linear())
        definition = engine.definition("linear")
        first, second = (engine.start_instance("linear") for _ in range(2))
        assert first.definition_id is definition.identifier
        assert second.definition_id is first.definition_id
        started = engine.history.instance_events(first.id)[0]
        assert started.data["definition_id"] is definition.identifier
        assert engine.definition("linear", version=1).identifier == "linear:1"


class TestLinearExecution:
    def test_straight_through_completion(self, engine):
        engine.deploy(linear())
        instance = engine.start_instance("linear")
        assert instance.state is InstanceState.COMPLETED
        assert instance.variables == {"x": 1, "y": 2}
        assert instance.tokens == []
        assert instance.ended_at is not None

    def test_initial_variables_available(self, engine):
        engine.deploy(linear())
        instance = engine.start_instance("linear", variables={"x": 41})
        # script overwrites x then derives y
        assert instance.variables["y"] == 2

    def test_business_key_recorded(self, engine):
        engine.deploy(linear())
        instance = engine.start_instance("linear", business_key="ORDER-77")
        assert instance.business_key == "ORDER-77"

    def test_instances_lookup(self, engine):
        engine.deploy(linear())
        instance = engine.start_instance("linear")
        assert engine.instance(instance.id) is instance
        with pytest.raises(InstanceNotFoundError):
            engine.instance("nope")
        assert engine.instances(InstanceState.COMPLETED) == [instance]

    def test_each_instance_gets_unique_id(self, engine):
        engine.deploy(linear())
        ids = {engine.start_instance("linear").id for _ in range(5)}
        assert len(ids) == 5

    def test_history_records_full_trace(self, engine):
        engine.deploy(linear())
        instance = engine.start_instance("linear")
        events = engine.history.instance_events(instance.id)
        types = [e.type for e in events]
        assert types[0] == EventTypes.INSTANCE_STARTED
        assert types[-1] == EventTypes.INSTANCE_COMPLETED
        completed_nodes = [
            e.data["node_id"]
            for e in events
            if e.type == EventTypes.NODE_COMPLETED and e.data.get("is_activity")
        ]
        assert completed_nodes == ["a", "b"]

    def test_manual_task_logged_and_passed(self, engine):
        model = ProcessBuilder("manual").start().manual_task("do_it").end().build()
        engine.deploy(model)
        instance = engine.start_instance("manual")
        assert instance.state is InstanceState.COMPLETED

    def test_script_failure_fails_instance(self, engine):
        model = (
            ProcessBuilder("bad_script")
            .start()
            .script_task("boom", script="x = 1 / 0")
            .end()
            .build()
        )
        engine.deploy(model)
        instance = engine.start_instance("bad_script")
        assert instance.state is InstanceState.FAILED
        assert "division by zero" in instance.failure


class TestExclusiveGateway:
    def make_model(self):
        return (
            ProcessBuilder("route")
            .start()
            .exclusive_gateway("decide")
            .branch(condition="amount > 100")
            .script_task("big", script="path = 'big'")
            .exclusive_gateway("join")
            .branch_from("decide", default=True)
            .script_task("small", script="path = 'small'")
            .connect_to("join")
            .move_to("join")
            .end()
            .build()
        )

    def test_condition_routes_true_branch(self, engine):
        engine.deploy(self.make_model())
        instance = engine.start_instance("route", {"amount": 500})
        assert instance.variables["path"] == "big"

    def test_default_taken_when_no_condition_matches(self, engine):
        engine.deploy(self.make_model())
        instance = engine.start_instance("route", {"amount": 50})
        assert instance.variables["path"] == "small"

    def test_no_matching_flow_fails_instance(self, engine):
        model = (
            ProcessBuilder("nodefault")
            .start()
            .exclusive_gateway("decide")
            .branch(condition="x > 10")
            .end("e1")
            .branch(condition="x < 0")
            .end("e2")
            .build()
        )
        engine.deploy(model)
        instance = engine.start_instance("nodefault", {"x": 5})
        assert instance.state is InstanceState.FAILED

    def test_condition_referencing_unknown_variable_fails_instance(self, engine):
        engine.deploy(self.make_model())
        instance = engine.start_instance("route", {})  # no 'amount'
        assert instance.state is InstanceState.FAILED


class TestParallelGateway:
    def make_model(self):
        return (
            ProcessBuilder("par")
            .start()
            .parallel_gateway("fork")
            .branch()
            .script_task("left", script="l = 1")
            .parallel_gateway("sync")
            .branch_from("fork")
            .script_task("right", script="r = 2")
            .connect_to("sync")
            .move_to("sync")
            .script_task("after", script="total = l + r")
            .end()
            .build()
        )

    def test_both_branches_execute_and_join(self, engine):
        engine.deploy(self.make_model())
        instance = engine.start_instance("par")
        assert instance.state is InstanceState.COMPLETED
        assert instance.variables["total"] == 3

    def test_three_way_fork(self, engine):
        builder = ProcessBuilder("par3").start().parallel_gateway("fork")
        for k in range(3):
            builder.branch_from("fork").script_task(f"t{k}", script=f"v{k} = {k}")
            if k == 0:
                builder.parallel_gateway("sync")
            else:
                builder.connect_to("sync")
        model = builder.move_to("sync").end().build()
        engine.deploy(model)
        instance = engine.start_instance("par3")
        assert instance.state is InstanceState.COMPLETED
        assert {instance.variables[f"v{k}"] for k in range(3)} == {0, 1, 2}

    def test_nested_parallel_blocks(self, engine):
        model = (
            ProcessBuilder("nested")
            .start()
            .parallel_gateway("outer_fork")
            .branch()
            .parallel_gateway("inner_fork")
            .branch()
            .script_task("a", script="a = 1")
            .parallel_gateway("inner_sync")
            .branch_from("inner_fork")
            .script_task("b", script="b = 1")
            .connect_to("inner_sync")
            .move_to("inner_sync")
            .parallel_gateway("outer_sync")
            .branch_from("outer_fork")
            .script_task("c", script="c = 1")
            .connect_to("outer_sync")
            .move_to("outer_sync")
            .end()
            .build()
        )
        engine.deploy(model)
        instance = engine.start_instance("nested")
        assert instance.state is InstanceState.COMPLETED
        assert all(instance.variables.get(v) == 1 for v in "abc")


class TestInclusiveGateway:
    def make_model(self):
        return (
            ProcessBuilder("incl")
            .start()
            .inclusive_gateway("or_split")
            .branch(condition="need_a == true")
            .script_task("ta", script="a_done = true")
            .inclusive_gateway("or_join")
            .branch_from("or_split", condition="need_b == true")
            .script_task("tb", script="b_done = true")
            .connect_to("or_join")
            .branch_from("or_split", default=True)
            .script_task("tdefault", script="default_done = true")
            .connect_to("or_join")
            .move_to("or_join")
            .end()
            .build()
        )

    def test_single_branch_activation(self, engine):
        engine.deploy(self.make_model())
        instance = engine.start_instance("incl", {"need_a": True, "need_b": False})
        assert instance.state is InstanceState.COMPLETED
        assert instance.variables.get("a_done") is True
        assert "b_done" not in instance.variables

    def test_multiple_branch_activation_synchronizes(self, engine):
        engine.deploy(self.make_model())
        instance = engine.start_instance("incl", {"need_a": True, "need_b": True})
        assert instance.state is InstanceState.COMPLETED
        assert instance.variables.get("a_done") is True
        assert instance.variables.get("b_done") is True

    def test_default_branch_when_no_condition_holds(self, engine):
        engine.deploy(self.make_model())
        instance = engine.start_instance("incl", {"need_a": False, "need_b": False})
        assert instance.state is InstanceState.COMPLETED
        assert instance.variables.get("default_done") is True


class TestLoops:
    def test_rework_loop_until_condition(self, engine):
        model = (
            ProcessBuilder("loop")
            .start()
            .script_task("init", script="n = 0")
            .exclusive_gateway("again")
            .script_task("work", script="n = n + 1")
            .exclusive_gateway("check")
            .branch(condition="n < 5")
            .connect_to("again")
            .branch_from("check", default=True)
            .end()
            .build()
        )
        engine.deploy(model)
        instance = engine.start_instance("loop")
        assert instance.state is InstanceState.COMPLETED
        assert instance.variables["n"] == 5

    def test_infinite_loop_hits_step_budget(self, clock, monkeypatch):
        from repro.engine import execution
        from repro.engine.engine import ProcessEngine

        monkeypatch.setattr(execution, "MAX_STEPS", 50)
        engine = ProcessEngine(clock=clock)
        model = (
            ProcessBuilder("forever")
            .start()
            .exclusive_gateway("again")
            .script_task("spin", script="x = 1")
            .exclusive_gateway("check")
            .branch(condition="true")
            .connect_to("again")
            .branch_from("check", default=True)
            .end()
            .build()
        )
        engine.deploy(model)
        instance = engine.start_instance("forever")
        assert instance.state is InstanceState.FAILED
        assert "step budget" in instance.failure


class TestTerminateAndAdmin:
    def test_terminate_end_event_cancels_parallel_branch(self, engine):
        model = (
            ProcessBuilder("term")
            .start()
            .parallel_gateway("fork")
            .branch()
            .script_task("quick", script="q = 1")
            .end("kill", terminate=True)
            .branch_from("fork")
            .user_task("slow", role="clerk")
            .end("never")
            .build()
        )
        engine.deploy(model)
        instance = engine.start_instance("term")
        assert instance.state is InstanceState.TERMINATED
        # the user task's work item was withdrawn
        from repro.worklist.items import WorkItemState

        items = engine.worklist.items()
        assert all(i.state is WorkItemState.CANCELLED for i in items)

    def test_admin_terminate_instance(self, engine):
        model = (
            ProcessBuilder("wait")
            .start()
            .user_task("approve", role="clerk")
            .end()
            .build()
        )
        engine.deploy(model)
        instance = engine.start_instance("wait")
        assert instance.state is InstanceState.RUNNING
        engine.terminate_instance(instance.id, reason="testing")
        assert instance.state is InstanceState.TERMINATED

    def test_terminate_cancels_only_its_items(self, engine):
        from repro.worklist.items import WorkItemState

        engine.deploy(
            ProcessBuilder("wait").start().user_task("approve", role="clerk").end().build()
        )
        doomed = engine.start_instance("wait")
        other = engine.start_instance("wait")
        engine.terminate_instance(doomed.id)
        states = {i.instance_id: i.state for i in engine.worklist.items()}
        assert states == {
            doomed.id: WorkItemState.CANCELLED,
            other.id: WorkItemState.ALLOCATED,
        }
        assert engine.worklist.open_count == 1

    def test_suspend_blocks_resume_restores(self, engine):
        model = (
            ProcessBuilder("susp")
            .start()
            .user_task("approve", role="clerk")
            .script_task("after", script="done = true")
            .end()
            .build()
        )
        engine.deploy(model)
        instance = engine.start_instance("susp")
        item = engine.worklist.items()[0]
        engine.suspend_instance(instance.id)
        engine.start_work_item(item.id)
        engine.complete_work_item(item.id, {"approved": True})
        # suspended: the token moved? no — completion handler checks RUNNING
        assert instance.state is InstanceState.SUSPENDED
        assert "done" not in instance.variables
        engine.resume_instance(instance.id)
        assert instance.state is InstanceState.COMPLETED
        assert instance.variables.get("done") is True
