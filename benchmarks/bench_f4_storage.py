"""F4 — WAL group commit and recovery cost.

Shape claims: (a) journal throughput (records/s) rises steeply with group-
commit batch size — each fsync is amortized over the batch — and flattens
once fsync cost is amortized away; (b) KV recovery time grows linearly
with journal length, and snapshots reset it to near zero.
"""

import os
import time

from repro.storage.journal import Journal
from repro.storage.kvstore import DurableKV

RECORD = b"x" * 128
BATCHES = [1, 4, 16, 64, 256]
N_RECORDS = 2048


def journal_throughput(tmp_dir: str, batch: int) -> float:
    path = os.path.join(tmp_dir, f"wal-{batch}.log")
    journal = Journal(path)
    started = time.perf_counter()
    written = 0
    while written < N_RECORDS:
        for _ in range(batch):
            journal.append(RECORD)
        journal.sync()
        written += batch
    elapsed = time.perf_counter() - started
    journal.close()
    return written / elapsed


def test_f4a_group_commit_throughput(benchmark, tmp_path, emit):
    rows = [(batch, journal_throughput(str(tmp_path), batch)) for batch in BATCHES]
    benchmark.pedantic(
        lambda: journal_throughput(str(tmp_path / "bench"), 16),
        rounds=1,
        iterations=1,
    )
    emit(
        "",
        f"== F4a: WAL throughput vs group-commit batch ({N_RECORDS} x "
        f"{len(RECORD)}B records, fsync per batch) ==",
        f"{'batch':>6} {'records/s':>12} {'speedup':>8}",
    )
    base = rows[0][1]
    for batch, rate in rows:
        emit(f"{batch:>6} {rate:>12.0f} {rate / base:>7.1f}x")
    # shape: batching buys at least 3x over single-record commits
    assert rows[-1][1] > 3 * base


def test_f4b_recovery_linear_in_log(benchmark, tmp_path, emit):
    sizes = [1_000, 5_000, 20_000]
    rows = []
    for n in sizes:
        directory = str(tmp_path / f"kv-{n}")
        store = DurableKV(directory, sync_writes=False)
        for k in range(n):
            store.put(f"key-{k % 500}", {"seq": k})
        store.close()
        started = time.perf_counter()
        reopened = DurableKV(directory)
        elapsed = (time.perf_counter() - started) * 1000
        assert reopened.replayed_batches == n
        reopened.close()
        rows.append((n, elapsed))

    benchmark.pedantic(
        lambda: DurableKV(str(tmp_path / "kv-1000")).close(), rounds=1, iterations=1
    )

    emit(
        "",
        "== F4b: recovery time vs journal length ==",
        f"{'batches':>8} {'recover ms':>11} {'ms/1k':>7}",
    )
    for n, ms in rows:
        emit(f"{n:>8} {ms:>11.1f} {ms / n * 1000:>7.2f}")
    # shape: linear-ish growth (20x records => >5x time, <80x time)
    ratio = rows[-1][1] / rows[0][1]
    assert 5 < ratio < 80, ratio


def test_f4c_snapshot_resets_recovery(benchmark, tmp_path, emit):
    directory = str(tmp_path / "kv-snap")
    store = DurableKV(directory, sync_writes=False)
    for k in range(10_000):
        store.put(f"key-{k % 500}", {"seq": k})
    before = store.journal_size
    store.snapshot()
    store.close()

    started = time.perf_counter()
    reopened = DurableKV(directory)
    elapsed = (time.perf_counter() - started) * 1000
    replayed = reopened.replayed_batches
    assert replayed == 0
    assert reopened.get("key-499") == {"seq": 9999}
    reopened.close()

    benchmark.pedantic(lambda: DurableKV(directory).close(), rounds=3, iterations=1)
    emit(
        "",
        f"F4c: snapshot compaction: journal {before} B -> 0 B; recovery "
        f"replayed {replayed} batches in {elapsed:.1f} ms",
    )
