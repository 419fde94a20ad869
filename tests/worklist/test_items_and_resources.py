"""Tests for work-item lifecycle and the organizational model."""

import pytest

from repro.worklist.errors import IllegalWorkItemTransition, UnknownResourceError
from repro.worklist.items import WorkItem, WorkItemState
from repro.worklist.resources import OrganizationalModel, Resource


def fresh_item(**overrides):
    defaults = dict(
        id="wi-1", instance_id="inst-1", node_id="approve", role="clerk",
        created_at=100.0,
    )
    defaults.update(overrides)
    return WorkItem(**defaults)


class TestLifecycle:
    def test_full_happy_path(self):
        item = fresh_item()
        item.offer(101.0)
        item.allocate("ana", 102.0)
        item.start(103.0)
        item.complete({"ok": True}, 104.0)
        assert item.state is WorkItemState.COMPLETED
        assert item.result == {"ok": True}
        assert item.waiting_time() == 3.0
        assert item.service_time() == 1.0

    def test_cannot_start_from_offered(self):
        item = fresh_item()
        item.offer(101.0)
        with pytest.raises(IllegalWorkItemTransition):
            item.start(102.0)

    def test_cannot_complete_unstarted(self):
        item = fresh_item()
        item.offer(101.0)
        item.allocate("ana", 102.0)
        with pytest.raises(IllegalWorkItemTransition):
            item.complete({}, 103.0)

    def test_terminal_states_are_final(self):
        item = fresh_item()
        item.cancel(101.0)
        for action in (
            lambda: item.offer(102.0),
            lambda: item.allocate("x", 102.0),
            lambda: item.start(102.0),
            lambda: item.complete({}, 102.0),
            lambda: item.cancel(102.0),
        ):
            with pytest.raises(IllegalWorkItemTransition):
                action()

    def test_reoffer_clears_allocation(self):
        item = fresh_item()
        item.offer(101.0)
        item.allocate("ana", 102.0)
        item.reoffer(103.0)
        assert item.state is WorkItemState.OFFERED
        assert item.allocated_to is None

    def test_service_time_none_for_cancelled(self):
        item = fresh_item()
        item.offer(1.0)
        item.allocate("a", 2.0)
        item.start(3.0)
        item.cancel(4.0)
        assert item.service_time() is None

    def test_dict_roundtrip(self):
        item = fresh_item(priority=3, data={"k": 1})
        item.offer(101.0)
        item.allocate("ana", 102.0)
        restored = WorkItem.from_dict(item.to_dict())
        assert restored.state is WorkItemState.ALLOCATED
        assert restored.allocated_to == "ana"
        assert restored.priority == 3
        assert restored.data == {"k": 1}


class TestOrganizationalModel:
    def test_role_and_capability_queries(self):
        org = OrganizationalModel()
        org.add("ana", roles=["clerk"], capabilities=["forklift"])
        org.add("bo", roles=["clerk", "manager"])
        assert [r.id for r in org.with_role("clerk")] == ["ana", "bo"]
        assert [r.id for r in org.with_role("manager")] == ["bo"]
        assert [r.id for r in org.with_capability("forklift")] == ["ana"]
        assert org.with_role("missing") == []

    def test_duplicate_resource_rejected(self):
        org = OrganizationalModel()
        org.add("ana")
        with pytest.raises(ValueError):
            org.add("ana")

    def test_unknown_resource_raises(self):
        with pytest.raises(UnknownResourceError):
            OrganizationalModel().get("ghost")

    def test_contains_and_len(self):
        org = OrganizationalModel()
        org.add("ana")
        assert "ana" in org and "bo" not in org
        assert len(org) == 1

    def test_resource_requires_id(self):
        with pytest.raises(ValueError):
            Resource(id="")

    def test_roles_are_frozen_sets(self):
        resource = Resource(id="r", roles=["a", "a", "b"])
        assert resource.roles == frozenset({"a", "b"})
