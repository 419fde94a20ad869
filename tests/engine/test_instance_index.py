"""Property test: the instance index agrees with a linear scan.

The read models' by-state and by-business-key projections answer
``instances(state=...)`` and ``find_instances(business_key=...)`` without
scanning every instance.  An index is only worth having if it is *exactly*
equivalent to the naive filter over the instance objects, in creation
order, after any interleaving of lifecycle transitions — which is what
hypothesis drives here.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock import VirtualClock
from repro.engine.engine import ProcessEngine
from repro.engine.errors import IllegalInstanceStateError
from repro.engine.instance import InstanceState
from repro.model.builder import ProcessBuilder

BUSINESS_KEYS = [None, "ORD-1", "ORD-2", "ORD-3"]

# an op is either ("start", business_key_index) or (verb, instance_index)
ops = st.lists(
    st.one_of(
        st.tuples(st.just("start"), st.integers(0, len(BUSINESS_KEYS) - 1)),
        st.tuples(
            st.sampled_from(["suspend", "resume", "terminate"]),
            st.integers(0, 9),
        ),
    ),
    min_size=1,
    max_size=30,
)


def waiting_model():
    return (
        ProcessBuilder("waiting")
        .start()
        .user_task("review", role="clerk")
        .end()
        .build()
    )


def apply_ops(sequence):
    engine = ProcessEngine(clock=VirtualClock(0))
    engine.organization.add("ana", roles=["clerk"])
    engine.deploy(waiting_model())
    for verb, arg in sequence:
        if verb == "start":
            engine.start_instance(
                "waiting", business_key=BUSINESS_KEYS[arg]
            )
            continue
        existing = engine.instances()
        if not existing:
            continue
        target = existing[arg % len(existing)].id
        try:
            if verb == "suspend":
                engine.suspend_instance(target)
            elif verb == "resume":
                engine.resume_instance(target)
            else:
                engine.terminate_instance(target)
        except IllegalInstanceStateError:
            pass  # illegal transition for its current state; state unchanged
    return engine


@settings(max_examples=60, deadline=None)
@given(sequence=ops)
def test_state_index_matches_linear_scan(sequence):
    engine = apply_ops(sequence)
    everything = engine.instances()
    for state in InstanceState:
        expected = [i for i in everything if i.state is state]
        assert engine.instances(state) == expected
        assert engine.find_instances(state=state) == expected


@settings(max_examples=60, deadline=None)
@given(sequence=ops)
def test_business_key_index_matches_linear_scan(sequence):
    engine = apply_ops(sequence)
    everything = engine.instances()
    for key in BUSINESS_KEYS[1:]:
        expected = [i for i in everything if i.business_key == key]
        assert engine.find_instances(business_key=key) == expected
        for state in InstanceState:
            assert engine.find_instances(business_key=key, state=state) == [
                i for i in expected if i.state is state
            ]
