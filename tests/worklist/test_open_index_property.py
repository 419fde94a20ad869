"""Property test: the open-items index answers what a full scan answers.

``WorklistService`` keeps its open (non-terminal) items in one index and
serves ``queue_lengths``/``open_count``/``queue_of``/``offered_for_role``
from it.  Here the definitions of those queries are written out as scans
over every item, and must agree after any sequence of lifecycle calls —
refused transitions and an export → import into a fresh service included.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock import VirtualClock
from repro.worklist.allocation import OfferOnlyAllocator, ShortestQueueAllocator
from repro.worklist.errors import WorklistError
from repro.worklist.items import WorkItemState
from repro.worklist.resources import OrganizationalModel
from repro.worklist.service import WorklistService

ROLES = ("clerk", "manager", "nobody")  # no resource holds "nobody"
RESOURCES = (("ana", ["clerk", "manager"]), ("bo", ["clerk"]), ("cy", ["manager"]))


def make_service(clock, push):
    organization = OrganizationalModel()
    for resource_id, roles in RESOURCES:
        organization.add(resource_id, roles=roles)
    allocator = ShortestQueueAllocator() if push else OfferOnlyAllocator()
    return WorklistService(organization=organization, allocator=allocator, clock=clock)


def by_queue_order(items):
    return sorted(items, key=lambda i: (-i.priority, i.created_at))


def assert_index_matches_scan(service):
    items = service.items()
    live = [i for i in items if not i.state.is_terminal]
    assert service.open_count == len(live)
    lengths = {}
    for item in live:
        if item.allocated_to:
            lengths[item.allocated_to] = lengths.get(item.allocated_to, 0) + 1
    assert service.queue_lengths() == lengths
    for resource_id, _ in RESOURCES:
        assert service.queue_of(resource_id) == by_queue_order(
            [i for i in live if i.allocated_to == resource_id]
        )
    for role in ROLES:
        assert service.offered_for_role(role) == by_queue_order(
            [i for i in items if i.role == role and i.state is WorkItemState.OFFERED]
        )


pick = st.integers(0, 30)
operation = st.one_of(
    st.tuples(st.just("create"), st.sampled_from(ROLES), st.integers(0, 2), st.sampled_from([None, 5.0])),
    st.tuples(st.just("claim"), pick, st.sampled_from([r for r, _ in RESOURCES])),
    st.tuples(st.just("start"), pick),
    st.tuples(st.just("complete"), pick),
    st.tuples(st.just("cancel"), pick),
    st.tuples(st.just("escalate"), pick),
    st.tuples(st.just("export_import")),
)


@settings(max_examples=150, deadline=None)
@given(st.booleans(), st.lists(operation, max_size=40))
def test_open_index_equals_full_scan(push, operations):
    clock = VirtualClock(0)
    service = make_service(clock, push)
    for op in operations:
        kind = op[0]
        items = service.items()
        try:
            if kind == "create":
                _, role, priority, due = op
                service.create_item(
                    f"inst-{len(items) % 4}", "task", role, priority=priority, due_seconds=due
                )
            elif kind == "export_import":
                restored = make_service(clock, push)
                restored.import_items(service.export_items())
                service = restored
            elif items:
                item_id = items[op[1] % len(items)].id
                if kind == "claim":
                    service.claim(item_id, op[2])
                else:
                    getattr(service, kind)(item_id)
        except WorklistError:
            pass  # a refused transition must leave the index as it was
        assert_index_matches_scan(service)
