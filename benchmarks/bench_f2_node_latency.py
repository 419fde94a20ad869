"""F2 — Per-node-type overhead ranking.

Shape claim: automated nodes (script/service/XOR routing) cost tens of
microseconds each; AND blocks pay extra for token spawning and join
synchronization; user tasks dominate everything by several multiples
(work-item creation, allocation, lifecycle, history):

    {script, service, XOR} < AND ≪ user task.
"""

import time

from repro.clock import VirtualClock
from repro.engine.engine import ProcessEngine
from repro.model.builder import ProcessBuilder
from repro.worklist.allocation import ShortestQueueAllocator

REPEAT = 40  # nodes per instance
RUNS = 30  # instances per measurement


def _engine():
    engine = ProcessEngine(clock=VirtualClock(0), allocator=ShortestQueueAllocator())
    engine.organization.add("worker", roles=["staff"])
    engine.services.register("noop", lambda: None)
    return engine


def script_chain():
    builder = ProcessBuilder("scripts").start()
    for k in range(REPEAT):
        builder.script_task(f"s{k}", script="x = 1")
    return builder.end().build()


def service_chain():
    builder = ProcessBuilder("services").start()
    for k in range(REPEAT):
        builder.service_task(f"s{k}", service="noop")
    return builder.end().build()


def xor_chain():
    builder = ProcessBuilder("xors").start()
    for k in range(REPEAT):
        builder.exclusive_gateway(f"g{k}")
        builder.branch(condition="x > 0").script_task(f"a{k}", script="x = 1")
        builder.exclusive_gateway(f"m{k}")
        builder.branch_from(f"g{k}", default=True).script_task(
            f"b{k}", script="x = 2"
        ).connect_to(f"m{k}")
        builder.move_to(f"m{k}")
    return builder.end().build()


def and_chain():
    builder = ProcessBuilder("ands").start()
    for k in range(REPEAT):
        builder.parallel_gateway(f"f{k}")
        builder.branch().script_task(f"a{k}", script="x = 1")
        builder.parallel_gateway(f"j{k}")
        builder.branch_from(f"f{k}").script_task(f"b{k}", script="y = 1").connect_to(
            f"j{k}"
        )
        builder.move_to(f"j{k}")
    return builder.end().build()


def user_chain():
    # user tasks measured per-item: create + allocate + start + complete
    builder = ProcessBuilder("users").start()
    for k in range(REPEAT):
        builder.user_task(f"u{k}", role="staff")
    return builder.end().build()


def _measure_automated(model, key):
    engine = _engine()
    engine.deploy(model)
    started = time.perf_counter()
    for _ in range(RUNS):
        engine.start_instance(key, {"x": 1})
    elapsed = time.perf_counter() - started
    return elapsed / (RUNS * REPEAT) * 1e6  # microseconds per node


def _measure_user():
    engine = _engine()
    engine.deploy(user_chain())
    started = time.perf_counter()
    for _ in range(5):
        instance = engine.start_instance("users")
        while instance.state.name == "RUNNING":
            item = next(
                i for i in engine.worklist.queue_of("worker")
            )
            engine.start_work_item(item.id)
            engine.complete_work_item(item.id)
    elapsed = time.perf_counter() - started
    return elapsed / (5 * REPEAT) * 1e6


def test_f2_node_overhead_ranking(benchmark, emit):
    timings = {
        "script task": _measure_automated(script_chain(), "scripts"),
        "service task": _measure_automated(service_chain(), "services"),
        "XOR block": _measure_automated(xor_chain(), "xors"),
        "AND block": _measure_automated(and_chain(), "ands"),
        "user task": _measure_user(),
    }
    benchmark.pedantic(
        lambda: _measure_automated(script_chain(), "scripts"), rounds=1, iterations=1
    )

    emit("", "== F2: per-node overhead (µs/node, lower is better) ==")
    for name, micros in sorted(timings.items(), key=lambda kv: kv[1]):
        emit(f"  {name:<14} {micros:>10.1f} µs")

    # shape assertions (ranking, with slack for jitter)
    assert timings["script task"] < timings["user task"]
    assert timings["service task"] < timings["user task"]
    assert timings["XOR block"] < timings["user task"]
    # user tasks are the dominant cost by a wide margin
    cheapest = min(timings.values())
    assert timings["user task"] > 3 * cheapest


def test_f2_topology_query_cache(emit):
    """Delta from caching the definition's topology queries.

    ``outgoing()``/``boundary_events_of()`` run once per token move; the
    seed shape allocated a fresh list (adjacency) or scanned every node
    (boundary lookup) per call.  Both are now memoized immutable tuples
    — this pins the delta so a regression back to per-call allocation
    shows up as a number, not a vibe.
    """
    model = script_chain()
    node_ids = [f"s{k}" for k in range(REPEAT)]
    loops = 400

    def seed_shape():
        # what the queries cost before the cache: list alloc + full scan
        for node_id in node_ids:
            list(model._outgoing.get(node_id, ()))
            [
                n
                for n in model.nodes.values()
                if getattr(n, "attached_to", None) == node_id
            ]

    def cached():
        for node_id in node_ids:
            model.outgoing(node_id)
            model.boundary_events_of(node_id)

    cached()  # warm the caches; steady-state is what the engine sees
    best = {"seed shape": float("inf"), "cached": float("inf")}
    for _ in range(7):
        for name, fn in (("seed shape", seed_shape), ("cached", cached)):
            started = time.perf_counter()
            for _ in range(loops):
                fn()
            best[name] = min(best[name], time.perf_counter() - started)

    calls = loops * REPEAT
    speedup = best["seed shape"] / best["cached"]
    emit(
        "",
        "== F2b: topology query cost (outgoing + boundary lookup, ns/call"
        ", best-of) ==",
        f"  {'seed shape':<12} {1e9 * best['seed shape'] / calls:>8.0f} ns",
        f"  {'cached':<12} {1e9 * best['cached'] / calls:>8.0f} ns",
        f"  speedup      {speedup:>7.1f}x",
    )
    # the cache must beat per-call allocation + scan outright
    assert speedup > 1.0, speedup
