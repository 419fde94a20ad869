"""Engine tests: multi-instance activities (workflow patterns 12 and 14)."""

import pytest

from repro.engine.instance import InstanceState
from repro.model.builder import ProcessBuilder
from repro.model.elements import MultiInstanceActivity
from repro.model.errors import ModelError


def child_model(key="inspect"):
    return (
        ProcessBuilder(key)
        .start()
        .script_task("check", script="result = item * 10")
        .end()
        .build()
    )


def manual_child(key="manual_check"):
    return (
        ProcessBuilder(key)
        .start()
        .user_task("look", role="clerk")
        .end()
        .build()
    )


class TestElementRules:
    def test_requires_cardinality(self):
        with pytest.raises(ModelError, match="cardinality"):
            MultiInstanceActivity("mi", process_key="p")

    def test_requires_process_key(self):
        with pytest.raises(ModelError, match="process_key"):
            MultiInstanceActivity("mi", cardinality_expression="3")

    def test_sequential_needs_waiting(self):
        with pytest.raises(ModelError, match="sequential"):
            MultiInstanceActivity(
                "mi", process_key="p", cardinality_expression="3",
                sequential=True, wait_for_completion=False,
            )

    def test_collection_needs_waiting(self):
        with pytest.raises(ModelError, match="collect"):
            MultiInstanceActivity(
                "mi", process_key="p", cardinality_expression="3",
                output_collection="out", wait_for_completion=False,
            )

    def test_bad_cardinality_expression_caught_by_validation(self):
        model = (
            ProcessBuilder("p")
            .start()
            .multi_instance("mi", process_key="c", cardinality="((")
            .end()
            .build(validate=False)
        )
        from repro.model.validation import validate

        report = validate(model)
        assert any("cardinality does not parse" in str(i) for i in report.errors)


class TestParallelMi:
    def make_parent(self, **kwargs):
        defaults = dict(
            process_key="inspect",
            cardinality="n_containers",
            input_mappings={"item": "instance_index + 1"},
            output_mappings={"result": "result"},
            output_collection="results",
        )
        defaults.update(kwargs)
        return (
            ProcessBuilder("terminal")
            .start()
            .multi_instance("mi", **defaults)
            .script_task("after", script="done = true")
            .end()
            .build()
        )

    def test_runtime_cardinality_spawns_n_children(self, engine):
        engine.deploy(child_model())
        engine.deploy(self.make_parent())
        instance = engine.start_instance("terminal", {"n_containers": 4})
        assert instance.state is InstanceState.COMPLETED
        children = [
            i for i in engine.instances() if i.parent_instance_id == instance.id
        ]
        assert len(children) == 4
        assert sorted(r["result"] for r in instance.variables["results"]) == [
            10, 20, 30, 40
        ]
        assert instance.variables["done"] is True

    def test_cardinality_zero_skips_straight_through(self, engine):
        engine.deploy(child_model())
        engine.deploy(self.make_parent())
        instance = engine.start_instance("terminal", {"n_containers": 0})
        assert instance.state is InstanceState.COMPLETED
        assert instance.variables["results"] == []

    def test_non_integer_cardinality_fails_instance(self, engine):
        engine.deploy(child_model())
        engine.deploy(self.make_parent())
        instance = engine.start_instance("terminal", {"n_containers": "three"})
        assert instance.state is InstanceState.FAILED
        assert "non-negative integer" in instance.failure

    def test_instance_index_visible_to_children(self, engine):
        engine.deploy(
            ProcessBuilder("echo_idx")
            .start()
            .script_task("keep", script="seen = instance_index")
            .end()
            .build()
        )
        model = (
            ProcessBuilder("parent")
            .start()
            .multi_instance(
                "mi",
                process_key="echo_idx",
                cardinality="3",
                output_mappings={"seen": "seen"},
                output_collection="indices",
            )
            .end()
            .build()
        )
        engine.deploy(model)
        instance = engine.start_instance("parent")
        assert sorted(r["seen"] for r in instance.variables["indices"]) == [0, 1, 2]

    def test_waits_for_asynchronous_children(self, engine):
        engine.deploy(manual_child())
        model = (
            ProcessBuilder("parent")
            .start()
            .multi_instance("mi", process_key="manual_check", cardinality="3")
            .end()
            .build()
        )
        engine.deploy(model)
        instance = engine.start_instance("parent")
        assert instance.state is InstanceState.RUNNING
        assert instance.tokens[0].waiting_on["reason"] == "mi"
        items = engine.worklist.items()
        assert len(items) == 3
        for item in items[:2]:
            engine.start_work_item(item.id)
            engine.complete_work_item(item.id)
        assert instance.state is InstanceState.RUNNING
        engine.start_work_item(items[2].id)
        engine.complete_work_item(items[2].id)
        assert instance.state is InstanceState.COMPLETED

    def test_failed_child_fails_parent_and_cancels_siblings(self, engine):
        engine.deploy(
            ProcessBuilder("fragile")
            .start()
            .exclusive_gateway("gw")
            .branch(condition="instance_index == 1")
            .script_task("boom", script="x = 1 / 0")
            .exclusive_gateway("merge")
            .branch_from("gw", default=True)
            .user_task("wait_forever", role="clerk")
            .connect_to("merge")
            .move_to("merge")
            .end()
            .build()
        )
        model = (
            ProcessBuilder("parent")
            .start()
            .multi_instance("mi", process_key="fragile", cardinality="3")
            .end()
            .build()
        )
        engine.deploy(model)
        instance = engine.start_instance("parent")
        assert instance.state is InstanceState.FAILED
        siblings = [
            i for i in engine.instances() if i.parent_instance_id == instance.id
        ]
        assert all(i.state.is_finished for i in siblings)

    def test_terminating_parent_terminates_children(self, engine):
        engine.deploy(manual_child())
        model = (
            ProcessBuilder("parent")
            .start()
            .multi_instance("mi", process_key="manual_check", cardinality="2")
            .end()
            .build()
        )
        engine.deploy(model)
        instance = engine.start_instance("parent")
        engine.terminate_instance(instance.id)
        children = [
            i for i in engine.instances() if i.parent_instance_id == instance.id
        ]
        assert len(children) == 2
        assert all(i.state is InstanceState.TERMINATED for i in children)


class TestSequentialMi:
    def test_children_run_one_at_a_time(self, engine):
        engine.deploy(manual_child())
        model = (
            ProcessBuilder("parent")
            .start()
            .multi_instance(
                "mi", process_key="manual_check", cardinality="3", sequential=True
            )
            .end()
            .build()
        )
        engine.deploy(model)
        instance = engine.start_instance("parent")
        for expected_open in (1, 1, 1):
            open_items = [
                i for i in engine.worklist.items() if not i.state.is_terminal
            ]
            assert len(open_items) == expected_open
            engine.start_work_item(open_items[0].id)
            engine.complete_work_item(open_items[0].id)
        assert instance.state is InstanceState.COMPLETED
        children = [
            i for i in engine.instances() if i.parent_instance_id == instance.id
        ]
        assert len(children) == 3

    def test_sequential_order_by_index(self, engine):
        engine.deploy(
            ProcessBuilder("echo_idx")
            .start()
            .script_task("keep", script="seen = instance_index")
            .end()
            .build()
        )
        model = (
            ProcessBuilder("parent")
            .start()
            .multi_instance(
                "mi",
                process_key="echo_idx",
                cardinality="4",
                sequential=True,
                output_mappings={"seen": "seen"},
                output_collection="order",
            )
            .end()
            .build()
        )
        engine.deploy(model)
        instance = engine.start_instance("parent")
        assert [r["seen"] for r in instance.variables["order"]] == [0, 1, 2, 3]


class TestFireAndForget:
    def test_parent_moves_on_immediately(self, engine):
        engine.deploy(manual_child())
        model = (
            ProcessBuilder("parent")
            .start()
            .multi_instance(
                "mi",
                process_key="manual_check",
                cardinality="3",
                wait_for_completion=False,
            )
            .script_task("after", script="moved_on = true")
            .end()
            .build()
        )
        engine.deploy(model)
        instance = engine.start_instance("parent")
        # pattern 12: parent finished while children still wait on humans
        assert instance.state is InstanceState.COMPLETED
        assert instance.variables["moved_on"] is True
        spawned = [
            i for i in engine.instances() if i.definition_key == "manual_check"
        ]
        assert len(spawned) == 3
        assert all(i.state is InstanceState.RUNNING for i in spawned)
        assert all(i.parent_instance_id is None for i in spawned)


class TestRoundTrips:
    def make_mi_model(self):
        return (
            ProcessBuilder("mi_model")
            .start()
            .multi_instance(
                "mi",
                process_key="sub",
                cardinality="len(items)",
                input_mappings={"item": "items[instance_index]"},
                output_mappings={"out": "result"},
                output_collection="collected",
                sequential=True,
            )
            .end()
            .build()
        )

    def test_dict_roundtrip(self):
        from repro.model.serialization import definition_from_dict, definition_to_dict

        model = self.make_mi_model()
        restored = definition_from_dict(definition_to_dict(model))
        assert definition_to_dict(restored) == definition_to_dict(model)

    def test_bpmn_roundtrip(self):
        from repro.bpmn import parse_bpmn, to_bpmn_xml
        from repro.model.serialization import definition_to_dict

        model = self.make_mi_model()
        xml = to_bpmn_xml(model)
        assert "multiInstanceLoopCharacteristics" in xml
        restored = parse_bpmn(xml)
        assert definition_to_dict(restored) == definition_to_dict(model)

    def test_persistence_of_waiting_mi(self, tmp_path):
        from repro.clock import VirtualClock
        from repro.engine.engine import ProcessEngine
        from repro.storage.kvstore import DurableKV
        from repro.worklist.allocation import ShortestQueueAllocator

        def build(store):
            engine = ProcessEngine(
                clock=VirtualClock(0), store=store,
                allocator=ShortestQueueAllocator(),
            )
            engine.organization.add("ana", roles=["clerk"])
            return engine

        store = DurableKV(str(tmp_path / "kv"))
        engine = build(store)
        engine.deploy(manual_child())
        engine.deploy(
            ProcessBuilder("parent")
            .start()
            .multi_instance("mi", process_key="manual_check", cardinality="2")
            .end()
            .build()
        )
        parent_id = engine.start_instance("parent").id
        store.close()

        store2 = DurableKV(str(tmp_path / "kv"))
        engine2 = build(store2)
        engine2.recover()
        for item in list(engine2.worklist.items()):
            if not item.state.is_terminal:
                engine2.start_work_item(item.id)
                engine2.complete_work_item(item.id)
        assert engine2.instance(parent_id).state is InstanceState.COMPLETED
        store2.close()
