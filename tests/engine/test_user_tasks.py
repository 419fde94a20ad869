"""Engine ↔ worklist integration: user tasks end-to-end."""

import pytest

from repro.engine.instance import InstanceState, TokenState
from repro.model.builder import ProcessBuilder
from repro.worklist.items import WorkItemState


def approval_model():
    return (
        ProcessBuilder("approval")
        .start()
        .user_task("review", role="clerk", priority=2, form_fields=("approved",))
        .exclusive_gateway("decide")
        .branch(condition="approved == true")
        .script_task("accept", script="status = 'accepted'")
        .end("ok")
        .branch_from("decide", default=True)
        .script_task("reject", script="status = 'rejected'")
        .end("nok")
        .build()
    )


class TestUserTaskLifecycle:
    def test_instance_waits_on_user_task(self, engine):
        engine.deploy(approval_model())
        instance = engine.start_instance("approval", {"amount": 10})
        assert instance.state is InstanceState.RUNNING
        token = instance.tokens[0]
        assert token.state is TokenState.WAITING
        assert token.waiting_on["reason"] == "user_task"

    def test_work_item_carries_task_metadata(self, engine):
        engine.deploy(approval_model())
        instance = engine.start_instance("approval")
        item = engine.worklist.items()[0]
        assert item.node_id == "review"
        assert item.role == "clerk"
        assert item.priority == 2
        assert item.instance_id == instance.id
        assert item.data["form_fields"] == ["approved"]

    def test_completion_resumes_and_routes(self, engine):
        engine.deploy(approval_model())
        instance = engine.start_instance("approval")
        item = engine.worklist.items()[0]
        engine.start_work_item(item.id)
        engine.complete_work_item(item.id, {"approved": True})
        assert instance.state is InstanceState.COMPLETED
        assert instance.variables["status"] == "accepted"

    def test_rejection_path(self, engine):
        engine.deploy(approval_model())
        instance = engine.start_instance("approval")
        item = engine.worklist.items()[0]
        engine.start_work_item(item.id)
        engine.complete_work_item(item.id, {"approved": False})
        assert instance.variables["status"] == "rejected"

    def test_allocated_by_strategy(self, engine):
        engine.deploy(approval_model())
        engine.start_instance("approval")
        item = engine.worklist.items()[0]
        assert item.state is WorkItemState.ALLOCATED
        assert item.allocated_to in ("ana", "bo")

    def test_shortest_queue_spreads_load(self, engine):
        engine.deploy(approval_model())
        for _ in range(4):
            engine.start_instance("approval")
        lengths = engine.worklist.queue_lengths()
        assert lengths.get("ana", 0) == 2
        assert lengths.get("bo", 0) == 2

    def test_two_sequential_user_tasks(self, engine):
        model = (
            ProcessBuilder("two")
            .start()
            .user_task("first", role="clerk")
            .user_task("second", role="manager")
            .end()
            .build()
        )
        engine.deploy(model)
        instance = engine.start_instance("two")
        first = engine.worklist.items()[0]
        engine.start_work_item(first.id)
        engine.complete_work_item(first.id)
        assert instance.state is InstanceState.RUNNING
        second = [i for i in engine.worklist.items() if i.node_id == "second"][0]
        assert second.role == "manager"
        engine.start_work_item(second.id)
        engine.complete_work_item(second.id)
        assert instance.state is InstanceState.COMPLETED

    def test_parallel_user_tasks_complete_in_any_order(self, engine):
        model = (
            ProcessBuilder("par_users")
            .start()
            .parallel_gateway("fork")
            .branch()
            .user_task("ua", role="clerk")
            .parallel_gateway("sync")
            .branch_from("fork")
            .user_task("ub", role="clerk")
            .connect_to("sync")
            .move_to("sync")
            .end()
            .build()
        )
        engine.deploy(model)
        instance = engine.start_instance("par_users")
        items = {i.node_id: i for i in engine.worklist.items()}
        # complete in reverse creation order
        engine.start_work_item(items["ub"].id)
        engine.complete_work_item(items["ub"].id)
        assert instance.state is InstanceState.RUNNING
        engine.start_work_item(items["ua"].id)
        engine.complete_work_item(items["ua"].id)
        assert instance.state is InstanceState.COMPLETED

    def test_claim_flow_with_offer_only_allocation(self, clock):
        from repro.engine.engine import ProcessEngine

        engine = ProcessEngine(clock=clock)  # default: offer-only
        engine.organization.add("cleo", roles=["clerk"])
        engine.deploy(approval_model())
        engine.start_instance("approval")
        offered = engine.worklist.offered_for_resource("cleo")
        assert len(offered) == 1
        engine.claim_work_item(offered[0].id, "cleo")
        engine.start_work_item(offered[0].id)
        engine.complete_work_item(offered[0].id, {"approved": True})
        assert engine.instances()[0].state is InstanceState.COMPLETED


class TestDeadlines:
    def test_overdue_item_escalates_on_run_due_jobs(self, engine, clock):
        model = (
            ProcessBuilder("due")
            .start()
            .user_task("urgent", role="clerk", due_seconds=60)
            .end()
            .build()
        )
        engine.deploy(model)
        engine.start_instance("due")
        item = engine.worklist.items()[0]
        assert item.priority == 0
        clock.advance(120)
        engine.run_due_jobs()
        assert item.priority == 1
        assert item.escalations == 1
        # escalation re-offers allocated items for rebalancing
        assert item.state is WorkItemState.OFFERED

    def test_items_without_deadline_never_escalate(self, engine, clock):
        engine.deploy(approval_model())
        engine.start_instance("approval")
        clock.advance(10_000)
        engine.run_due_jobs()
        assert engine.worklist.items()[0].escalations == 0


class TestBoundaryTimerOnUserTask:
    def make_model(self):
        return (
            ProcessBuilder("sla")
            .start()
            .user_task("approve", role="clerk")
            .script_task("normal", script="path = 'normal'")
            .end("done")
            .boundary_timer("too_slow", attached_to="approve", duration=300)
            .script_task("escalate", script="path = 'escalated'")
            .end("esc_end")
            .build()
        )

    def test_boundary_fires_when_task_lingers(self, engine, clock):
        engine.deploy(self.make_model())
        instance = engine.start_instance("sla")
        item = engine.worklist.items()[0]
        clock.advance(301)
        engine.run_due_jobs()
        assert instance.state is InstanceState.COMPLETED
        assert instance.variables["path"] == "escalated"
        assert item.state is WorkItemState.CANCELLED

    def test_boundary_cancelled_when_task_completes_in_time(self, engine, clock):
        engine.deploy(self.make_model())
        instance = engine.start_instance("sla")
        item = engine.worklist.items()[0]
        engine.start_work_item(item.id)
        engine.complete_work_item(item.id)
        assert instance.variables["path"] == "normal"
        clock.advance(1000)
        engine.run_due_jobs()
        # timer is gone; nothing re-fires
        assert instance.state is InstanceState.COMPLETED
        assert instance.variables["path"] == "normal"

    def test_completing_cancelled_item_is_rejected(self, engine, clock):
        from repro.worklist.errors import IllegalWorkItemTransition

        engine.deploy(self.make_model())
        engine.start_instance("sla")
        item = engine.worklist.items()[0]
        clock.advance(301)
        engine.run_due_jobs()
        with pytest.raises(IllegalWorkItemTransition):
            engine.start_work_item(item.id)
