"""Combination scenarios: constructs interacting with each other."""

from repro.engine.instance import InstanceState
from repro.model.builder import ProcessBuilder


class TestBoundarySpecificity:
    def test_specific_error_code_preferred_over_catch_all(self, engine):
        from repro.engine.errors import BpmnError

        def svc():
            raise BpmnError("SPECIFIC")

        engine.services.register("svc", svc)
        model = (
            ProcessBuilder("pref")
            .start()
            .service_task("call", service="svc")
            .end("done")
            .boundary_error("catch_all", attached_to="call", error_code=None)
            .script_task("generic", script="path = 'generic'")
            .end("g_end")
            .boundary_error("catch_specific", attached_to="call", error_code="SPECIFIC")
            .script_task("specific", script="path = 'specific'")
            .end("s_end")
            .build()
        )
        engine.deploy(model)
        instance = engine.start_instance("pref")
        assert instance.variables["path"] == "specific"

    def test_two_boundary_timers_first_wins(self, engine, clock):
        model = (
            ProcessBuilder("two_timers")
            .start()
            .user_task("slow", role="clerk")
            .end("done")
            .boundary_timer("quick_escalation", attached_to="slow", duration=10)
            .script_task("warned", script="path = 'warned'")
            .end("w_end")
            .build()
        )
        engine.deploy(model)
        instance = engine.start_instance("two_timers")
        engine.advance_time(11)
        assert instance.variables["path"] == "warned"
        # the work item is gone; later completion attempts fail cleanly
        from repro.worklist.items import WorkItemState

        assert engine.worklist.items()[0].state is WorkItemState.CANCELLED


class TestNestedOrAnd:
    def test_or_join_waits_for_nested_and_block(self, engine):
        # OR split activates a branch containing a full AND block; the OR
        # join must wait until the nested block finishes
        model = (
            ProcessBuilder("nested_or")
            .start()
            .inclusive_gateway("or_split")
            .branch(condition="deep == true")
            .parallel_gateway("fork")
            .branch()
            .script_task("x1", script="a = 1")
            .parallel_gateway("sync")
            .branch_from("fork")
            .script_task("x2", script="b = 1")
            .connect_to("sync")
            .move_to("sync")
            .inclusive_gateway("or_join")
            .branch_from("or_split", condition="shallow == true")
            .script_task("y", script="c = 1")
            .connect_to("or_join")
            .branch_from("or_split", default=True)
            .script_task("z", script="d = 1")
            .connect_to("or_join")
            .move_to("or_join")
            .script_task("after", script="after = true")
            .end()
            .build()
        )
        engine.deploy(model)
        both = engine.start_instance("nested_or", {"deep": True, "shallow": True})
        assert both.state is InstanceState.COMPLETED
        assert both.variables.get("a") == 1 and both.variables.get("c") == 1
        # 'after' ran exactly once despite two converging branches
        completions = [
            e
            for e in engine.history.instance_events(both.id)
            if e.type == "node.completed" and e.data.get("node_id") == "after"
        ]
        assert len(completions) == 1


class TestParallelRaces:
    def test_two_event_races_in_parallel_branches(self, engine, clock):
        # each race's outcomes converge in an XOR merge before the AND join
        # (an AND join over all four event flows would wait forever)
        model = (
            ProcessBuilder("double_race")
            .start()
            .parallel_gateway("fork")
            .branch()
            .event_gateway("race1")
            .branch()
            .message_catch("m1", message_name="alpha")
            .exclusive_gateway("merge1")
            .branch_from("race1")
            .timer("t1", duration=100)
            .connect_to("merge1")
            .move_to("merge1")
            .parallel_gateway("sync")
            .branch_from("fork")
            .event_gateway("race2")
            .branch()
            .message_catch("m2", message_name="beta")
            .exclusive_gateway("merge2")
            .branch_from("race2")
            .timer("t2", duration=200)
            .connect_to("merge2")
            .move_to("merge2")
            .connect_to("sync")
            .move_to("sync")
            .end()
            .build()
        )
        engine.deploy(model)
        instance = engine.start_instance("double_race")
        # message wins race 1, timer wins race 2
        engine.correlate_message("alpha")
        assert instance.state is InstanceState.RUNNING
        engine.advance_time(201)
        assert instance.state is InstanceState.COMPLETED
        # all losing subscriptions cleaned up
        assert len(engine.scheduler) == 0
        assert len(engine.waits) == 0


class TestMigrationInteractions:
    def test_migrate_instance_with_pending_timer(self, engine, clock):
        v1 = (
            ProcessBuilder("timed")
            .start()
            .timer("wait", duration=100)
            .script_task("after", script="v = 1")
            .end()
            .build()
        )
        v2 = (
            ProcessBuilder("timed")
            .start()
            .timer("wait", duration=100)
            .script_task("after", script="v = 2")
            .end()
            .build()
        )
        engine.deploy(v1)
        instance = engine.start_instance("timed")
        engine.deploy(v2)
        engine.migrate_instance(instance.id, target_version=2)
        engine.advance_time(101)
        assert instance.state is InstanceState.COMPLETED
        assert instance.variables["v"] == 2  # new version's logic ran

    def test_migrate_instance_waiting_on_message(self, engine):
        v1 = (
            ProcessBuilder("msgm")
            .start()
            .receive_task("wait", message_name="go")
            .script_task("after", script="v = 1")
            .end()
            .build()
        )
        v2 = (
            ProcessBuilder("msgm")
            .start()
            .receive_task("wait", message_name="go")
            .script_task("after", script="v = 2")
            .end()
            .build()
        )
        engine.deploy(v1)
        instance = engine.start_instance("msgm")
        engine.deploy(v2)
        engine.migrate_instance(instance.id, target_version=2)
        engine.correlate_message("go")
        assert instance.state is InstanceState.COMPLETED
        assert instance.variables["v"] == 2


class TestDeepCallChains:
    def test_mi_of_process_containing_call_activity(self, engine):
        engine.deploy(
            ProcessBuilder("leaf")
            .start()
            .script_task("l", script="leaf_done = true")
            .end()
            .build()
        )
        engine.deploy(
            ProcessBuilder("mid")
            .start()
            .call_activity("call_leaf", process_key="leaf")
            .end()
            .build()
        )
        engine.deploy(
            ProcessBuilder("top")
            .start()
            .multi_instance("fan", process_key="mid", cardinality="3")
            .end()
            .build()
        )
        instance = engine.start_instance("top")
        assert instance.state is InstanceState.COMPLETED
        leaves = [i for i in engine.instances() if i.definition_key == "leaf"]
        assert len(leaves) == 3
        assert all(i.state is InstanceState.COMPLETED for i in leaves)

    def test_business_rule_inside_mi_child(self, engine):
        from repro.decisions import DecisionTable

        table = DecisionTable(name="band", inputs=("v",), outputs=("band",))
        table.add_rule(conditions={"v": "v > 1"}, outputs={"band": "'high'"})
        table.add_rule(outputs={"band": "'low'"})
        engine.decisions.register(table)
        engine.deploy(
            ProcessBuilder("classify")
            .start()
            .script_task("prep", script="v = instance_index")
            .business_rule_task("rate", decision="band")
            .end()
            .build()
        )
        engine.deploy(
            ProcessBuilder("batch")
            .start()
            .multi_instance(
                "all",
                process_key="classify",
                cardinality="4",
                output_mappings={"band": "band"},
                output_collection="bands",
            )
            .end()
            .build()
        )
        instance = engine.start_instance("batch")
        assert instance.state is InstanceState.COMPLETED
        bands = [r["band"] for r in instance.variables["bands"]]
        assert sorted(bands) == ["high", "high", "low", "low"]
