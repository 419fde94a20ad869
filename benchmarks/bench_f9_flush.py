"""F9 — incremental flush & group commit on the engine hot path.

Shape claims: (a) the seed's whole-export autocommit (every API call
re-serializes *all* jobs/work items and fsyncs) is O(total state) per
completion and quadratic over a run; the incremental write-set makes
autocommit O(changed records); (b) cross-call group commit
(``engine.batch()``) amortizes the transaction + fsync across many
completions, buying >= 5x completions/sec over the seed policy at 1000
work items.

Smoke mode (``F9_SMOKE=1``, used by CI) shrinks the workload so the
bench exercises every policy without meaningful wall time; at that
scale fsync-latency noise can dominate, so smoke runs check
correctness (every policy completes every item) but skip the
perf-shape assertions — those are full-run gates.
"""

import contextlib
import os
import time

from repro.clock import VirtualClock
from repro.engine.engine import ProcessEngine
from repro.engine.instance import INSTANCE_PREFIX, InstanceState
from repro.model.builder import ProcessBuilder
from repro.storage.kvstore import DurableKV
from repro.worklist.allocation import ShortestQueueAllocator

_SMOKE = os.environ.get("F9_SMOKE", "") not in ("", "0")
#: work items per run; the legacy whole-export policy gets a smaller run
#: (it is quadratic — completions/sec still compares fairly, favourably
#: to the legacy side since its rate only degrades as n grows)
N_ITEMS = int(os.environ.get("F9_ITEMS", "40" if _SMOKE else "1000"))
N_LEGACY = int(os.environ.get("F9_LEGACY_ITEMS", "40" if _SMOKE else "200"))


def approval_model():
    return (
        ProcessBuilder("approval")
        .start()
        .user_task("review", role="clerk")
        .script_task("after", script="done = true")
        .end()
        .build()
    )


def build_engine(directory):
    store = DurableKV(directory)
    engine = ProcessEngine(
        clock=VirtualClock(0), store=store, allocator=ShortestQueueAllocator()
    )
    engine.organization.add("ana", roles=["clerk"])
    engine.deploy(approval_model())
    return engine, store


def populate(engine, n):
    """Start n instances (one work item each) under one group commit."""
    with engine.batch():
        for _ in range(n):
            engine.start_instance("approval")
    return [item.id for item in engine.worklist.items()]


def legacy_flush(engine):
    """The seed's ``_flush``: whole-collection exports, every call."""
    store = engine.store
    writes = engine._writes
    touched = sorted(writes.puts(INSTANCE_PREFIX))
    with store.transaction():
        for instance_id in touched:
            instance = engine._instances[instance_id]
            store.put(INSTANCE_PREFIX + instance_id, instance.to_dict())
        store.put("engine/jobs", engine.scheduler.export())
        store.put("engine/workitems", engine.worklist.export_items())
        store.put("engine/message_waits", [w.to_dict() for w in engine.waits])
        store.put(
            "engine/meta", {"instance_seq": engine._seqs.value("instance_seq")}
        )
    for instance_id in touched:
        writes.discard(INSTANCE_PREFIX, instance_id)


def run_policy(tmp_dir, policy, n):
    """Complete n work items under one commit policy; completions/sec."""
    engine, store = build_engine(os.path.join(tmp_dir, f"kv-{policy}"))
    item_ids = populate(engine, n)
    # drain deltas left by setup so the timed loop measures steady state
    engine.flush()

    started = time.perf_counter()
    # legacy defers the engine's own commit too, and pays the seed's
    # whole export on every call instead
    scope = contextlib.nullcontext() if policy == "autocommit" else engine.batch()
    with scope:
        for item_id in item_ids:
            engine.start_work_item(item_id)
            engine.complete_work_item(item_id)
            if policy == "legacy":
                legacy_flush(engine)
    engine.flush()
    elapsed = time.perf_counter() - started

    completed = len(engine.instances(InstanceState.COMPLETED))
    assert completed == n, (policy, completed)
    store.close()
    return n / elapsed


def test_f9_flush_policies(benchmark, tmp_path, emit):
    rows = [
        ("legacy full-export", run_policy(str(tmp_path), "legacy", N_LEGACY), N_LEGACY),
        ("autocommit", run_policy(str(tmp_path), "autocommit", N_ITEMS), N_ITEMS),
        ("batch", run_policy(str(tmp_path), "batch", N_ITEMS), N_ITEMS),
    ]
    benchmark.pedantic(
        lambda: run_policy(str(tmp_path / "bench"), "batch", min(N_ITEMS, 100)),
        rounds=1,
        iterations=1,
    )
    emit(
        "",
        f"== F9: completions/sec vs commit policy (DurableKV, fsync on) ==",
        f"{'policy':>20} {'items':>6} {'compl/s':>10} {'speedup':>8}",
    )
    base = rows[0][1]
    for name, rate, n in rows:
        emit(f"{name:>20} {n:>6} {rate:>10.0f} {rate / base:>7.1f}x")
    if _SMOKE:
        return  # correctness asserted in run_policy; shapes need full scale
    legacy_rate, autocommit_rate = rows[0][1], rows[1][1]
    batch_rate = rows[2][1]
    # shape: incremental autocommit already beats whole-export autocommit;
    # group commit buys >= 5x over the seed policy (the ISSUE 3 criterion)
    assert autocommit_rate > legacy_rate
    assert batch_rate >= 5 * legacy_rate, (batch_rate, legacy_rate)


def test_f9_store_size_does_not_degrade_flush(tmp_path, emit):
    """Per-completion cost must be ~flat in resident store size (the seed
    was linear: every flush re-serialized every record)."""
    import statistics

    rates = []
    for resident in ([50, 200] if _SMOKE else [100, 1000]):
        directory = str(tmp_path / f"resident-{resident}")
        engine, store = build_engine(directory)
        populate(engine, resident)
        engine.flush()
        # complete a fixed-size slice against the growing resident set;
        # use the per-completion *median* — each autocommit fsyncs, and a
        # single slow fsync would otherwise swamp a wall-clock total
        slice_ids = [item.id for item in engine.worklist.items()][:25]
        samples = []
        for item_id in slice_ids:
            engine.start_work_item(item_id)
            started = time.perf_counter()
            engine.complete_work_item(item_id)
            samples.append(time.perf_counter() - started)
        rates.append(1.0 / statistics.median(samples))
        store.close()
    emit(
        "",
        "== F9b: autocommit completions/sec vs resident store size ==",
        f"  small store: {rates[0]:.0f}/s   large store: {rates[1]:.0f}/s",
    )
    # flat-ish: a bigger store may not cost more than ~2.5x throughput
    if not _SMOKE:
        assert rates[1] > rates[0] / 2.5, rates
