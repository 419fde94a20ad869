"""MessageWaits: the indexed component against the linear scan it replaced,
delivery order across a restart, and migration of parked instances."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock import VirtualClock
from repro.engine.engine import ProcessEngine
from repro.engine.instance import InstanceState
from repro.engine.migration import MigrationPlan
from repro.engine.waits import WAIT_PREFIX, MessageWaits
from repro.model.builder import ProcessBuilder
from repro.storage.kvstore import MemoryKV
from repro.storage.writeset import WriteSet

# -- differential: index == linear scan --------------------------------------

# each family holds values that are equal to, or easily confused with, one
# another: 1 == 1.0 == True, lists and dicts (unhashable; dicts equal
# under == whatever their key order), a tuple holding a list, and an
# unhashable value equal to a hashable one (set vs frozenset)
FAMILIES = [
    [None, 0, False],
    [1, 1.0, True, "1"],
    [(1, 2), [1, 2], [1.0, 2], []],
    [{"a": 1, "b": 2}, {"b": 2, "a": 1}, {"a": 1}, {}],
    [(1, [2]), (1, (2,))],
    [frozenset({1}), {1}],
]
NAMES = ["go", "go", "go", "stop"]
TOKENS = [("i1", "t1"), ("i1", "t2"), ("i2", "t1"), ("i3", "t1")]


@st.composite
def scenarios(draw):
    """Operation sequences over the values of one or two families, so
    that waits and messages collide often."""
    family = st.integers(0, len(FAMILIES) - 1)
    pool = [
        value
        for index in draw(st.lists(family, min_size=1, max_size=2))
        for value in FAMILIES[index]
    ]
    value = st.integers(0, len(pool) - 1).map(pool.__getitem__)
    name, token = st.sampled_from(NAMES), st.sampled_from(TOKENS)
    match_any = st.integers(0, 3).map(lambda n: n == 0)
    add = st.tuples(st.just("add"), name, value, match_any, token)
    operation = st.one_of(
        add,
        add,
        st.tuples(st.just("probe"), name, value),
        st.tuples(st.just("deliver"), name, value),
        st.tuples(st.just("drop_token"), token),
        st.tuples(st.just("restart")),
    )
    return draw(st.lists(operation, max_size=40))


def scan(oracle, name, value):
    """The matching rule of the list the component replaced, verbatim."""
    found = []
    for wait in oracle:
        if wait["name"] != name:
            continue
        if not wait.get("match_any") and wait.get("correlation") != value:
            continue
        found.append(wait)
    return found


def seqs(waits):
    return [wait.seq for wait in waits]


@settings(max_examples=300, deadline=None)
@given(scenarios())
def test_index_matches_linear_scan(operations):
    store = MemoryKV()
    writes = WriteSet([WAIT_PREFIX])
    waits = MessageWaits(writes)
    oracle = []  # dicts in subscription order, "id" = the component's seq
    for op, *args in operations:
        if op == "add":
            name, value, match_any, (instance_id, token_id) = args
            if match_any:
                value = None
            wait = waits.subscribe(
                instance_id, token_id, name, value, match_any, node_id="n"
            )
            oracle.append(
                {
                    "id": wait.seq,
                    "instance_id": instance_id,
                    "token_id": token_id,
                    "name": name,
                    "correlation": value,
                    "match_any": match_any,
                }
            )
        elif op == "drop_token":
            instance_id, token_id = args[0]
            waits.drop_token(instance_id, token_id)
            oracle = [
                w
                for w in oracle
                if not (w["instance_id"] == instance_id and w["token_id"] == token_id)
            ]
        elif op == "probe":
            assert seqs(waits.matching(*args)) == [w["id"] for w in scan(oracle, *args)]
        elif op == "deliver":
            expected = scan(oracle, *args)
            found = waits.matching(*args)
            assert seqs(found) == [w["id"] for w in expected]
            if found:
                waits.remove(found[0])
                oracle.remove(expected[0])
        else:  # restart: commit, then a fresh component over the same store
            writes.commit(store)
            assert store.keys(WAIT_PREFIX) == [
                f"{WAIT_PREFIX}{w['id']:010d}" for w in oracle
            ]
            waits = MessageWaits(writes)
            assert waits.load(store) == len(oracle)
        assert seqs(waits) == [w["id"] for w in oracle]
        assert len(waits) == len(oracle)
        for instance_id, token_id in TOKENS:
            assert seqs(waits.of_token(instance_id, token_id)) == [
                w["id"]
                for w in oracle
                if w["instance_id"] == instance_id and w["token_id"] == token_id
            ]
        for instance_id in ("i1", "i2", "i3"):
            assert seqs(waits.of_instance(instance_id)) == [
                w["id"] for w in oracle if w["instance_id"] == instance_id
            ]


# -- engine level -------------------------------------------------------------------


def build_engine(store):
    return ProcessEngine(clock=VirtualClock(0), store=store)


def recovered(store):
    engine = build_engine(store)
    engine.recover()
    return engine


def receive_model(node_id="wait", result=1):
    return (
        ProcessBuilder("msg")
        .start()
        .receive_task(node_id, message_name="go", correlation_expression="key")
        .script_task("after", script=f"v = {result}")
        .end()
        .build()
    )


def race_model(suffix="", result=1):
    return (
        ProcessBuilder("race")
        .start()
        .event_gateway("race" + suffix)
        .branch()
        .message_catch("m1" + suffix, message_name="alpha")
        .exclusive_gateway("merge")
        .branch_from("race" + suffix)
        .message_catch("m2" + suffix, message_name="beta")
        .connect_to("merge")
        .move_to("merge")
        .script_task("after", script=f"v = {result}")
        .end()
        .build()
    )


class TestDeliveryOrderSurvivesRestart:
    def test_competing_waits_are_served_in_subscription_order(self):
        # 12 waits on one (name, correlation): under an unpadded key
        # "wait/10" would scan before "wait/2" after the restart
        def completion_order(restart_after):
            store = MemoryKV()
            engine = build_engine(store)
            engine.deploy(receive_model())
            started = [engine.start_instance("msg", {"key": "k"}).id for _ in range(12)]
            completed = []
            for delivered in range(12):
                if delivered == restart_after:
                    engine = recovered(store)
                    assert seqs(engine.waits) == list(range(delivered + 1, 13))
                engine.correlate_message("go", "k", {})
                completed.append(
                    next(
                        i
                        for i in started
                        if i not in completed
                        and engine.instance(i).state is InstanceState.COMPLETED
                    )
                )
            assert len(engine.waits) == 0
            return started, completed

        started, live = completion_order(restart_after=None)
        assert live == started
        started, restarted = completion_order(restart_after=1)
        assert restarted == started

    def test_sequence_resumes_above_the_live_maximum(self):
        store = MemoryKV()
        engine = build_engine(store)
        engine.deploy(receive_model())
        for _ in range(3):
            engine.start_instance("msg", {"key": "k"})
        engine = recovered(store)
        late = engine.start_instance("msg", {"key": "k"})
        assert [w.seq for w in engine.waits] == [1, 2, 3, 4]
        assert [w.instance_id for w in engine.waits][-1] == late.id


class TestMigrationOfParkedInstances:
    """The wait (and the token's waiting_on) follow a renamed node."""

    @pytest.mark.parametrize("restart", [False, True], ids=["live", "recovered"])
    def test_receive_task_delivered_after_migration(self, restart):
        store = MemoryKV()
        engine = build_engine(store)
        engine.deploy(receive_model())
        instance = engine.start_instance("msg", {"key": "k"})
        engine.deploy(receive_model(node_id="wait_v2", result=2))
        engine.migrate_instance(instance.id, 2, MigrationPlan({"wait": "wait_v2"}))
        (token,) = instance.tokens
        assert token.waiting_on["node_id"] == "wait_v2"
        if restart:
            engine = recovered(store)
        engine.correlate_message("go", "k", {})
        instance = engine.instance(instance.id)
        assert instance.state is InstanceState.COMPLETED
        assert instance.variables["v"] == 2
        assert engine.metrics.messages_delivered == 1
        assert len(engine.waits) == 0 and store.keys("wait/") == []

    @pytest.mark.parametrize("restart", [False, True], ids=["live", "recovered"])
    def test_event_race_delivered_after_migration(self, restart):
        store = MemoryKV()
        engine = build_engine(store)
        engine.deploy(race_model())
        instance = engine.start_instance("race")
        engine.deploy(race_model(suffix="_v2", result=2))
        plan = MigrationPlan({"race": "race_v2", "m1": "m1_v2", "m2": "m2_v2"})
        engine.migrate_instance(instance.id, 2, plan)
        (token,) = instance.tokens
        assert token.waiting_on["gateway_id"] == "race_v2"
        assert [(w.race_gateway, w.race_event) for w in engine.waits] == [
            ("race_v2", "m1_v2"),
            ("race_v2", "m2_v2"),
        ]
        if restart:
            engine = recovered(store)
        engine.correlate_message("beta")
        instance = engine.instance(instance.id)
        assert instance.state is InstanceState.COMPLETED
        assert instance.variables["v"] == 2
        assert len(engine.waits) == 0 and store.keys("wait/") == []
