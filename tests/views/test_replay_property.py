"""Property test: incremental maintenance == full replay, byte for byte.

Drives the engine through arbitrary interleavings of lifecycle commands
and checks that the persisted ``view/`` image equals a from-scratch
rebuild of the final base state, compared as canonical JSON.  Time
advances are integral so cycle-time float sums are order-independent.
Compensation re-puts finished instances, and a guard projection fails
the run if any projection is fed a transition out of a final state.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.kvstore import MemoryKV

from tests.views.conftest import (
    approval_model,
    assert_byte_identical,
    auto_model,
    build_engine,
    guarded,
    trip_model,
)

op = st.one_of(
    st.tuples(st.just("start"), st.integers(0, 3)),
    st.tuples(st.just("start_auto"), st.integers(0, 3)),
    st.tuples(st.just("start_trip"), st.integers(0, 3)),
    st.tuples(st.just("complete"), st.integers(0, 5)),
    st.tuples(st.just("cancel_item"), st.integers(0, 5)),
    st.tuples(st.just("suspend"), st.integers(0, 5)),
    st.tuples(st.just("resume"), st.integers(0, 5)),
    st.tuples(st.just("terminate"), st.integers(0, 5)),
    st.tuples(st.just("compensate"), st.integers(0, 5)),
    st.tuples(st.just("tick"), st.integers(1, 100)),
)


def apply_op(engine, action, n):
    if action == "start":
        # n == 3 exercises the no-business-key path
        key = None if n == 3 else f"bk-{n}"
        engine.start_instance("approval", business_key=key)
    elif action == "start_auto":
        engine.start_instance("auto", {"n": n})
    elif action == "start_trip":
        engine.start_instance("trip", {"order": ""})
    elif action == "complete":
        open_items = [
            item
            for item in engine.worklist.items()
            if item.state.value == "allocated"
        ]
        if open_items:
            item = open_items[n % len(open_items)]
            engine.start_work_item(item.id)
            engine.complete_work_item(item.id)
    elif action == "cancel_item":
        open_items = [
            item
            for item in engine.worklist.items()
            if not item.state.is_terminal
        ]
        if open_items:
            # an item is withdrawn only by a command: ending its case
            engine.terminate_instance(open_items[n % len(open_items)].instance_id)
    elif action == "suspend":
        running = [
            i for i in engine.instances() if i.state.value == "running"
        ]
        if running:
            engine.suspend_instance(running[n % len(running)].id)
    elif action == "resume":
        suspended = [
            i for i in engine.instances() if i.state.value == "suspended"
        ]
        if suspended:
            engine.resume_instance(suspended[n % len(suspended)].id)
    elif action == "terminate":
        live = [
            i
            for i in engine.instances()
            if i.state.value in ("running", "suspended")
        ]
        if live:
            engine.terminate_instance(live[n % len(live)].id)
    elif action == "compensate":
        # mostly finished instances: their re-put must change no view
        settled = [i for i in engine.instances() if i.state.value != "running"]
        if settled:
            engine.compensate_instance(settled[n % len(settled)].id)
    else:  # tick
        engine.clock.advance(n)


@settings(max_examples=40, deadline=None)
@given(ops=st.lists(op, max_size=25))
def test_incremental_image_equals_replay_image(ops):
    store = MemoryKV()
    engine = guarded(build_engine(store=store))
    engine.deploy(approval_model())
    engine.deploy(auto_model())
    engine.deploy(trip_model())
    for action, n in ops:
        apply_op(engine, action, n)
    # the forced flush is the group-commit boundary: it persists any
    # dirty tail *and* drains write-behind view dirt
    engine.flush()
    assert_byte_identical(store, engine)


@settings(max_examples=15, deadline=None)
@given(ops=st.lists(op, max_size=15))
def test_image_survives_recovery_after_any_interleaving(tmp_path_factory, ops):
    from repro.storage.kvstore import DurableKV

    path = str(tmp_path_factory.mktemp("views") / "store")
    engine = guarded(build_engine(store=DurableKV(path)))
    engine.deploy(approval_model())
    engine.deploy(auto_model())
    engine.deploy(trip_model())
    for action, n in ops:
        apply_op(engine, action, n)
    # close WITHOUT a forced flush: base state is committed (autocommit)
    # but the write-behind view image may lag — recovery must catch it
    # up (load, tail replay, or rebuild) to byte-identity
    engine.store.close()

    recovered = guarded(build_engine(store=DurableKV(path)))
    recovered.recover()
    assert recovered.views.applied_seq == recovered.dispatch_log.seq
    assert_byte_identical(recovered.store, recovered)
    recovered.store.close()
