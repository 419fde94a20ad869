"""Engine + worklist tests: separation of duties (four-eyes principle)."""

import pytest

from repro.engine.instance import InstanceState
from repro.model.builder import ProcessBuilder
from repro.model.errors import ModelError
from repro.model.validation import validate
from repro.worklist.errors import WorklistError


def four_eyes_model():
    return (
        ProcessBuilder("payment")
        .start()
        .user_task("prepare", role="clerk")
        .user_task("approve", role="clerk", separate_from=("prepare",))
        .end()
        .build()
    )


class TestModelRules:
    def test_self_reference_rejected(self):
        with pytest.raises(ModelError, match="separate from itself"):
            ProcessBuilder("p").start().user_task(
                "t", role="r", separate_from=("t",)
            )

    def test_unknown_reference_is_validation_error(self):
        model = (
            ProcessBuilder("p")
            .start()
            .user_task("approve", role="r", separate_from=("ghost",))
            .end()
            .build(validate=False)
        )
        report = validate(model)
        assert any("unknown node" in str(i) for i in report.errors)

    def test_reference_to_non_user_task_is_error(self):
        model = (
            ProcessBuilder("p")
            .start()
            .script_task("auto", script="x = 1")
            .user_task("approve", role="r", separate_from=("auto",))
            .end()
            .build(validate=False)
        )
        report = validate(model)
        assert any("not a user task" in str(i) for i in report.errors)

    def test_valid_four_eyes_model_passes(self):
        assert validate(four_eyes_model()).ok


class TestEnforcement:
    def test_push_allocation_avoids_previous_performer(self, engine):
        engine.deploy(four_eyes_model())
        instance = engine.start_instance("payment")
        first = engine.worklist.items()[0]
        performer = first.allocated_to
        engine.start_work_item(first.id)
        engine.complete_work_item(first.id)
        second = [i for i in engine.worklist.items() if i.node_id == "approve"][0]
        assert second.data["excluded_resources"] == [performer]
        assert second.allocated_to is not None
        assert second.allocated_to != performer
        engine.start_work_item(second.id)
        engine.complete_work_item(second.id)
        assert instance.state is InstanceState.COMPLETED

    def test_claim_by_excluded_resource_rejected(self, clock):
        from repro.engine.engine import ProcessEngine

        engine = ProcessEngine(clock=clock)  # offer-only allocation
        engine.organization.add("ana", roles=["clerk"])
        engine.organization.add("bo", roles=["clerk"])
        engine.deploy(four_eyes_model())
        engine.start_instance("payment")
        first = engine.worklist.items()[0]
        engine.claim_work_item(first.id, "ana")
        engine.start_work_item(first.id)
        engine.complete_work_item(first.id)
        second = [i for i in engine.worklist.items() if i.node_id == "approve"][0]
        with pytest.raises(WorklistError, match="separation of duties"):
            engine.claim_work_item(second.id, "ana")
        engine.claim_work_item(second.id, "bo")  # the other clerk may

    def test_excluded_items_hidden_from_offered_queue(self, clock):
        from repro.engine.engine import ProcessEngine

        engine = ProcessEngine(clock=clock)
        engine.organization.add("ana", roles=["clerk"])
        engine.organization.add("bo", roles=["clerk"])
        engine.deploy(four_eyes_model())
        engine.start_instance("payment")
        first = engine.worklist.items()[0]
        engine.claim_work_item(first.id, "ana")
        engine.start_work_item(first.id)
        engine.complete_work_item(first.id)
        assert engine.worklist.offered_for_resource("ana") == []
        assert len(engine.worklist.offered_for_resource("bo")) == 1

    def test_single_eligible_resource_leaves_item_offered(self, clock):
        """If the only clerk did step one, step two waits unassigned."""
        from repro.engine.engine import ProcessEngine
        from repro.worklist.allocation import ShortestQueueAllocator
        from repro.worklist.items import WorkItemState

        engine = ProcessEngine(clock=clock, allocator=ShortestQueueAllocator())
        engine.organization.add("solo", roles=["clerk"])
        engine.deploy(four_eyes_model())
        instance = engine.start_instance("payment")
        first = engine.worklist.items()[0]
        engine.start_work_item(first.id)
        engine.complete_work_item(first.id)
        second = [i for i in engine.worklist.items() if i.node_id == "approve"][0]
        assert second.state is WorkItemState.OFFERED
        assert instance.state is InstanceState.RUNNING

    def test_separation_across_chain_of_three(self, clock):
        from repro.engine.engine import ProcessEngine
        from repro.worklist.allocation import ShortestQueueAllocator

        model = (
            ProcessBuilder("triple")
            .start()
            .user_task("draft", role="clerk")
            .user_task("check", role="clerk", separate_from=("draft",))
            .user_task("sign", role="clerk", separate_from=("draft", "check"))
            .end()
            .build()
        )
        engine = ProcessEngine(clock=clock, allocator=ShortestQueueAllocator())
        for name in ("ana", "bo", "cy"):
            engine.organization.add(name, roles=["clerk"])
        engine.deploy(model)
        instance = engine.start_instance("triple")
        performers = []
        for node in ("draft", "check", "sign"):
            item = [i for i in engine.worklist.items() if i.node_id == node][0]
            performers.append(item.allocated_to)
            engine.start_work_item(item.id)
            engine.complete_work_item(item.id)
        assert instance.state is InstanceState.COMPLETED
        assert len(set(performers)) == 3  # three different people

    def test_bpmn_roundtrip_preserves_separation(self):
        from repro.bpmn import parse_bpmn, to_bpmn_xml

        restored = parse_bpmn(to_bpmn_xml(four_eyes_model()))
        approve = restored.node("approve")
        assert approve.separate_from == ("prepare",)
