"""Engine tests: call activities (parent/child processes)."""

from repro.engine.instance import InstanceState
from repro.model.builder import ProcessBuilder


def child_model():
    return (
        ProcessBuilder("scoring")
        .start()
        .script_task("score", script="score = amount * 2")
        .end()
        .build()
    )


def parent_model(input_mappings=None, output_mappings=None):
    return (
        ProcessBuilder("application")
        .start()
        .call_activity(
            "run_scoring",
            process_key="scoring",
            input_mappings=input_mappings or {},
            output_mappings=output_mappings or {},
        )
        .script_task("after", script="finished = true")
        .end()
        .build()
    )


class TestSynchronousChild:
    def test_child_runs_and_parent_continues(self, engine):
        engine.deploy(child_model())
        engine.deploy(parent_model())
        instance = engine.start_instance("application", {"amount": 21})
        assert instance.state is InstanceState.COMPLETED
        assert instance.variables["score"] == 42
        assert instance.variables["finished"] is True

    def test_child_instance_recorded_with_parent_link(self, engine):
        engine.deploy(child_model())
        engine.deploy(parent_model())
        parent = engine.start_instance("application", {"amount": 1})
        children = [
            i for i in engine.instances() if i.parent_instance_id == parent.id
        ]
        assert len(children) == 1
        assert children[0].definition_key == "scoring"
        assert children[0].state is InstanceState.COMPLETED

    def test_input_mappings_select_variables(self, engine):
        engine.deploy(child_model())
        engine.deploy(parent_model(input_mappings={"amount": "base + extra"}))
        instance = engine.start_instance("application", {"base": 10, "extra": 5})
        assert instance.variables["score"] == 30

    def test_output_mappings_select_results(self, engine):
        engine.deploy(child_model())
        engine.deploy(
            parent_model(output_mappings={"final_score": "score + 1"})
        )
        instance = engine.start_instance("application", {"amount": 10})
        assert instance.variables["final_score"] == 21
        # unmapped child variables are NOT merged when mappings exist
        assert "score" not in instance.variables


class TestAsynchronousChild:
    def test_parent_waits_for_child_user_task(self, engine):
        child = (
            ProcessBuilder("manual_check")
            .start()
            .user_task("inspect", role="clerk")
            .end()
            .build()
        )
        engine.deploy(child)
        parent = (
            ProcessBuilder("shipment")
            .start()
            .call_activity("check", process_key="manual_check")
            .end()
            .build()
        )
        engine.deploy(parent)
        instance = engine.start_instance("shipment")
        assert instance.state is InstanceState.RUNNING
        token = instance.tokens[0]
        assert token.waiting_on["reason"] == "child"
        item = engine.worklist.items()[0]
        engine.start_work_item(item.id)
        engine.complete_work_item(item.id, {"inspection": "passed"})
        assert instance.state is InstanceState.COMPLETED
        assert instance.variables["inspection"] == "passed"

    def test_failed_child_fails_parent_without_boundary(self, engine):
        child = (
            ProcessBuilder("bad_child")
            .start()
            .script_task("boom", script="x = 1 / 0")
            .end()
            .build()
        )
        engine.deploy(child)
        engine.deploy(
            ProcessBuilder("parent_fails")
            .start()
            .call_activity("call", process_key="bad_child")
            .end()
            .build()
        )
        instance = engine.start_instance("parent_fails")
        assert instance.state is InstanceState.FAILED
        assert "bad_child" in instance.failure

    def test_failed_child_caught_by_parent_boundary(self, engine):
        child = (
            ProcessBuilder("bad_child")
            .start()
            .script_task("boom", script="x = 1 / 0")
            .end()
            .build()
        )
        engine.deploy(child)
        parent = (
            ProcessBuilder("parent_catches")
            .start()
            .call_activity("call", process_key="bad_child")
            .end("done")
            .boundary_error("on_child_failure", attached_to="call")
            .script_task("recover", script="recovered = true")
            .end("recovered_end")
            .build()
        )
        engine.deploy(parent)
        instance = engine.start_instance("parent_catches")
        assert instance.state is InstanceState.COMPLETED
        assert instance.variables["recovered"] is True

    def test_terminating_parent_terminates_waiting_child(self, engine):
        child = (
            ProcessBuilder("long_child")
            .start()
            .user_task("wait", role="clerk")
            .end()
            .build()
        )
        engine.deploy(child)
        engine.deploy(
            ProcessBuilder("parent_term")
            .start()
            .call_activity("call", process_key="long_child")
            .end()
            .build()
        )
        parent = engine.start_instance("parent_term")
        child_instance = [
            i for i in engine.instances() if i.parent_instance_id == parent.id
        ][0]
        engine.terminate_instance(parent.id)
        assert parent.state is InstanceState.TERMINATED
        assert child_instance.state is InstanceState.TERMINATED

    def test_nested_call_activities(self, engine):
        engine.deploy(
            ProcessBuilder("leaf")
            .start()
            .script_task("inc", script="depth = depth + 1")
            .end()
            .build()
        )
        engine.deploy(
            ProcessBuilder("middle")
            .start()
            .call_activity("call_leaf", process_key="leaf")
            .script_task("inc_mid", script="depth = depth + 1")
            .end()
            .build()
        )
        engine.deploy(
            ProcessBuilder("top")
            .start()
            .call_activity("call_middle", process_key="middle")
            .end()
            .build()
        )
        instance = engine.start_instance("top", {"depth": 0})
        assert instance.state is InstanceState.COMPLETED
        assert instance.variables["depth"] == 2

    def test_child_uses_latest_deployed_version(self, engine):
        engine.deploy(child_model())
        v2 = (
            ProcessBuilder("scoring")
            .start()
            .script_task("score", script="score = amount * 10")
            .end()
            .build()
        )
        engine.deploy(v2)
        engine.deploy(parent_model())
        instance = engine.start_instance("application", {"amount": 3})
        assert instance.variables["score"] == 30
