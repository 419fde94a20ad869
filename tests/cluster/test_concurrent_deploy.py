"""Two clients deploy the same key while one's fan-out is half done.

Thread A's cluster deploy is stalled between shard 0 and shard 1; thread
B deploys a different model under the same key meanwhile.  The shared
definition repository mints each version once, so every shard's store
must map each identifier to the same content, and neither caller may
fail.  When each shard minted its own versions, shard 0 held
``{auto:1: A, auto:2: B}`` and shard 1 ``{auto:1: B, auto:2: A}``, and
both callers got an error for deploys whose commits stood.
"""

import threading

import pytest

from repro.clock import VirtualClock
from repro.cluster import ShardedEngine
from repro.model.builder import ProcessBuilder
from repro.model.serialization import definition_to_dict
from repro.storage.kvstore import DurableKV

pytestmark = pytest.mark.threads


def auto_model(script):
    return (
        ProcessBuilder("auto").start().script_task("work", script=script).end().build()
    )


def stored(cluster):
    """Each shard's ``definition/`` records, by key."""
    return [dict(shard.store.scan("definition/")) for shard in cluster.shards]


def test_interleaved_deploys_of_one_key_agree_on_every_shard(tmp_path):
    def factory(index):
        return DurableKV(str(tmp_path / f"shard-{index}"))

    model_a, model_b = auto_model("doubled = n * 2"), auto_model("tripled = n * 3")
    cluster = ShardedEngine(shards=2, store_factory=factory, clock=VirtualClock(0))
    stalled, resume = threading.Event(), threading.Event()
    real_drain = cluster._drain_forwards

    def drain():
        # runs after each shard dispatch; A stops after its first one
        real_drain()
        if threading.current_thread().name == "A" and not stalled.is_set():
            stalled.set()
            resume.wait(10)

    cluster._drain_forwards = drain
    results, errors = {}, []

    def deploy(name, model):
        try:
            results[name] = cluster.deploy(model)
        except Exception as exc:  # the assertion below reports it
            errors.append(exc)

    thread_a = threading.Thread(target=deploy, args=("A", model_a), name="A")
    thread_a.start()
    assert stalled.wait(10)
    # mid-fan-out, shard 1 serves nothing its store does not hold yet
    assert cluster.shards[1].definitions() == []
    deploy("B", model_b)  # runs to the end while A waits mid-fan-out
    resume.set()
    thread_a.join(10)
    assert not thread_a.is_alive()

    assert errors == []
    assert results == {"A": "auto:1", "B": "auto:2"}
    expected = {
        "definition/auto:1": {**definition_to_dict(model_a), "version": 1},
        "definition/auto:2": {**definition_to_dict(model_b), "version": 2},
    }
    assert stored(cluster) == [expected, expected]
    cluster.close()

    reopened = ShardedEngine(shards=2, store_factory=factory, clock=VirtualClock(0))
    assert reopened.recover()["definitions"] == 4
    for version, variable in ((1, "doubled"), (2, "tripled")):
        instance = reopened.start_instance("auto", {"n": 5}, version=version)
        assert variable in instance.variables
    reopened.close()
