"""Every command declares its own route, and the cluster runs it by it."""

import gc
from dataclasses import dataclass, replace
from typing import ClassVar

import pytest

from repro.clock import VirtualClock
from repro.cluster import ShardedEngine
from repro.engine.commands import (
    COMMAND_TYPES,
    ID_ROUTES,
    ROUTES,
    Command,
    CompleteServiceInvocation,
    command_from_dict,
)
from repro.engine.errors import EngineError, InstanceNotFoundError
from repro.model.builder import ProcessBuilder
from repro.worklist.errors import UnknownWorkItemError
from tests.storage.record_samples import COMMANDS

#: how many shards of a 2-shard cluster a command of each fan-out route
#: reaches (``clock`` reaches them through the ``RunDueJobs`` it sends)
FAN_OUT = {"broadcast": 2, "every_shard": 2, "clock": 2}


def auto_model():
    return (
        ProcessBuilder("auto")
        .start()
        .script_task("work", script="doubled = n * 2")
        .end()
        .build()
    )


def sample(cls):
    command = COMMANDS[cls.name]
    if cls.name == "deploy_definition":
        return replace(command, definition=auto_model())
    return command


def recording_cluster():
    """A 2-shard cluster whose shards note each command they run."""
    cluster = ShardedEngine(shards=2, clock=VirtualClock(0))
    reached = []
    for index, shard in enumerate(cluster.shards):

        def dispatch(command, index=index, real=shard.dispatch):
            reached.append((index, command.name))
            return real(command)

        shard.dispatch = dispatch
    return cluster, reached


class TestRegistry:
    def test_every_subclass_is_registered(self):
        gc.collect()  # a class rejected at definition lingers until collected
        assert set(Command.__subclasses__()) == set(COMMAND_TYPES.values())
        assert len(COMMAND_TYPES) == 15

    @pytest.mark.parametrize("name", sorted(COMMAND_TYPES))
    def test_route_is_declared_and_known(self, name):
        cls = COMMAND_TYPES[name]
        assert "route" in vars(cls), name
        assert cls.route in ROUTES
        if cls.route in ID_ROUTES:
            assert cls.route in cls.__dataclass_fields__

    @pytest.mark.parametrize("name", sorted(COMMAND_TYPES))
    def test_round_trips_without_the_route(self, name):
        command = sample(COMMAND_TYPES[name])
        raw = command.to_dict()
        assert "route" not in raw
        rebuilt = command_from_dict(raw)
        assert type(rebuilt) is type(command)
        assert rebuilt.to_dict() == raw


class TestRejectedAtDefinition:
    def test_no_name(self):
        with pytest.raises(ValueError, match="has no name"):

            class Nameless(Command):
                route: ClassVar[str] = "start"

    def test_no_route(self):
        with pytest.raises(ValueError, match="unknown route ''"):

            class Routeless(Command):
                name: ClassVar[str] = "routeless"

    def test_unknown_route(self):
        with pytest.raises(ValueError, match="unknown route 'nowhere'"):

            class Lost(Command):
                name: ClassVar[str] = "lost"
                route: ClassVar[str] = "nowhere"

    def test_duplicate_name(self):
        with pytest.raises(ValueError, match="duplicate command name"):

            class Twin(Command):
                name: ClassVar[str] = "start_instance"
                route: ClassVar[str] = "start"

    def test_id_route_without_the_field(self):
        with pytest.raises(ValueError, match="routes on a missing field"):

            @dataclass(frozen=True)
            class Fieldless(Command):
                name: ClassVar[str] = "fieldless"
                route: ClassVar[str] = "item_id"

                instance_id: str = ""

    def test_rejected_classes_stay_unregistered(self):
        for name in ("routeless", "lost", "fieldless"):
            assert name not in COMMAND_TYPES


class TestClusterDispatch:
    @pytest.mark.parametrize("name", sorted(COMMAND_TYPES))
    def test_each_command_reaches_its_shards(self, name):
        cls = COMMAND_TYPES[name]
        cluster, reached = recording_cluster()
        try:
            cluster.dispatch(sample(cls))
        except EngineError as exc:  # a shard's own not-found error
            assert "route" not in str(exc)
        except UnknownWorkItemError:
            pass
        assert len({index for index, _ in reached}) == FAN_OUT.get(cls.route, 1)
        sent = "run_due_jobs" if cls.route == "clock" else name
        assert {sent_name for _, sent_name in reached} == {sent}
        cluster.close()

    def test_base_command_is_not_routable(self):
        cluster = ShardedEngine(shards=2, clock=VirtualClock(0))
        with pytest.raises(EngineError, match="cannot route"):
            cluster.dispatch(Command())
        cluster.close()


class TestOutOfRangeTags:
    """An id tagged for a shard the cluster does not have hashes to a
    shard that answers with its usual not-found result."""

    def test_instance(self):
        cluster = ShardedEngine(shards=2, clock=VirtualClock(0))
        with pytest.raises(InstanceNotFoundError):
            cluster.terminate_instance("order-s9-1")
        with pytest.raises(InstanceNotFoundError):
            cluster.instance("order-s9-1")
        cluster.close()

    def test_work_item(self):
        cluster = ShardedEngine(shards=2, clock=VirtualClock(0))
        with pytest.raises(UnknownWorkItemError):
            cluster.start_work_item("wi-s9-1")
        cluster.close()

    def test_invocation(self):
        cluster = ShardedEngine(shards=2, clock=VirtualClock(0))
        result = cluster.dispatch(
            CompleteServiceInvocation(invocation_id="inv-s9-1")
        )
        assert result["status"] == "duplicate"
        cluster.close()
