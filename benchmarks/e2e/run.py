"""The repo's benchmark: four workloads through the composed BPMS.

    python3 benchmarks/e2e/run.py                       # every workload, both modes
    python3 benchmarks/e2e/run.py --workload port_durable --seed 1 --seconds 20 --trace 0

One workload runs in this process, as a series of epochs — set up a fresh
cluster, run a fixed amount of work, check, close, restart — until the
measured regions add up to ``--seconds``, and prints, as its last line,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.
Without ``--workload`` each workload runs in a fresh child process, in
both modes, and the results land in ``out/results.json``.  Everything the
benchmark writes stays under ``benchmarks/e2e/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "..", "src"))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from tracing import SpanRecorder, TracingKV  # noqa: E402

OUT = os.path.join(HERE, "out")
#: a run measures whole epochs until they add up to ``--seconds``, and at
#: least this many, so that no timing rests on a single epoch
MIN_EPOCHS = 3
#: per-case counts that repeat exactly on one client: every mix block
#: holds the same work, and clients stop on whole blocks
EXACT_COUNTS = (
    "engine.commands_per_case",
    "engine.token_moves_per_case",
    "history.events_per_case",
    "storage.commits_per_case",
    "cluster.forwards_per_case",
)

#: (name, unit, better, bound): what a user of the system sees.  ``bound``
#: is the share of the parent's median a metric may worsen by.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("cases_per_s", "1/s", "higher", 0.25),
    ("case_p50_ms", "ms", "lower", 0.25),
    ("cmd_p50_ms", "ms", "lower", 0.25),
    ("recover_s", "s", "lower", 0.25),
    ("commits_per_case", "count", "lower", 0.02),
    ("rss_kb_per_case", "KB", "lower", 0.10),
)

#: (name, unit, better): one layer each, no bound
PER_LAYER = (
    ("client.case_p95_ms", "ms", "lower"),
    ("client.cmd_p95_ms", "ms", "lower"),
    ("client.cmd_p99_ms", "ms", "lower"),
    ("client.start_p50_ms", "ms", "lower"),
    ("client.start_p99_ms", "ms", "lower"),
    ("client.complete_p50_ms", "ms", "lower"),
    ("client.complete_p99_ms", "ms", "lower"),
    ("client.correlate_p50_ms", "ms", "lower"),
    ("client.correlate_p99_ms", "ms", "lower"),
    ("client.start_item_p50_ms", "ms", "lower"),
    ("client.start_item_p99_ms", "ms", "lower"),
    ("expr.guard_eval_us", "us", "lower"),
    ("expr.script_exec_us", "us", "lower"),
    ("expr.evals_per_case", "count", "lower"),
    ("expr.us_per_case", "us", "lower"),
    ("engine.dispatch_self_us", "us", "lower"),
    ("engine.idle_dispatch_us", "us", "lower"),
    ("engine.commands_per_case", "count", "lower"),
    ("engine.token_moves_per_case", "count", "lower"),
    ("history.events_per_case", "count", "lower"),
    ("history.append_us", "us", "lower"),
    ("worklist.create_item_us.n100", "us", "lower"),
    ("worklist.create_item_us.n5000", "us", "lower"),
    ("storage.commit_ms", "ms", "lower"),
    ("storage.commits_per_case", "count", "lower"),
    ("storage.puts_per_case", "count", "lower"),
    ("storage.deletes_per_case", "count", "lower"),
    ("storage.bytes_per_commit", "B", "lower"),
    ("storage.journal_bytes_per_case", "B", "lower"),
    ("storage.encode_us_per_commit", "us", "lower"),
    ("storage.journal_append_us", "us", "lower"),
    ("storage.journal_sync_us", "us", "lower"),
    ("storage.write_amp", "ratio", "lower"),
    ("workers.queue_wait_mean_ms", "ms", "lower"),
    ("workers.execute_mean_ms", "ms", "lower"),
    ("workers.throttled", "count", "lower"),
    ("workers.wait_ms_per_case", "ms", "lower"),
    ("services.invoke_mean_ms", "ms", "lower"),
    ("cluster.facade_us", "us", "lower"),
    ("cluster.lock_wait_mean_ms", "ms", "lower"),
    ("cluster.shard_skew", "ratio", "lower"),
    ("cluster.forwards_per_case", "count", "lower"),
    ("cluster.outbox_roundtrip_ms", "ms", "lower"),
    ("views.round_p50_ms", "ms", "lower"),
    ("views.round_p95_ms", "ms", "lower"),
    ("views.reader_late_p95_ms", "ms", "lower"),
    ("views.query_instances_us", "us", "lower"),
    ("views.query_business_key_us", "us", "lower"),
    ("views.query_work_items_us", "us", "lower"),
    ("views.stats_us", "us", "lower"),
    ("views.first_query_after_write_us", "us", "lower"),
    ("views.apply_mean_ms", "ms", "lower"),
    ("views.lag_at_end", "count", "lower"),
    ("views.rebuild_s", "s", "lower"),
    ("recover.open_s", "s", "lower"),
    ("recover.engine_s", "s", "lower"),
    ("recover.replayed_batches", "count", "lower"),
    ("deploy.analysis_ms", "ms", "lower"),
    ("path.wall_us_per_case", "us", "lower"),
    ("path.engine_us_per_case", "us", "lower"),
    ("path.storage_us_per_case", "us", "lower"),
    ("path.services_us_per_case", "us", "lower"),
    ("path.wait_us_per_case", "us", "lower"),
    ("path.driver_us_per_case", "us", "lower"),
    ("path.storage_share", "ratio", "lower"),
    ("unattributed_us_per_case", "us", "lower"),
    ("worker.storage_us_per_case", "us", "lower"),
    ("worker.services_us_per_case", "us", "lower"),
    ("trace_overhead_ratio", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)


class Result:
    """Metrics of one run, with the sample count and, for a metric taken
    over epochs, how far the epochs disagree."""

    def __init__(self, table) -> None:
        self._units = {name: unit for name, unit, *_ in table}
        self._better = {name: better for name, _, better, *_ in table}
        self.metrics: dict[str, dict[str, Any]] = {}
        self.samples: dict[str, int] = {}
        self.spread: dict[str, float] = {}
        self.epochs: list[dict[str, float]] = []

    def put(self, name: str, value: float, samples: int | None = None) -> None:
        self.metrics[name] = {"value": value, "unit": self._units[name]}
        if samples is not None:
            self.samples[name] = samples

    def put_all(self, values: dict[str, float]) -> None:
        for name, value in values.items():
            self.put(name, value)

    def timing(self, name: str, samples: list[float], q: float) -> None:
        self.put(name, _percentile_ms(samples, q), len(samples))

    def put_best(self, epochs: list[dict[str, float]], samples: dict[str, int]) -> None:
        """Each metric of the epochs as its best value over them.

        Every epoch is the same work, and what differs between them comes
        from outside the program — the host's other tenants — and only
        ever slows an epoch down.  The best epoch is the least disturbed
        one; over ten seeds it repeated better than the median epoch on
        the durable workloads and as well on ``port_memory`` (see the
        README).
        """
        self.epochs = epochs
        for name in epochs[0]:
            values = [epoch[name] for epoch in epochs]
            best = max if self._better[name] == "higher" else min
            self.put(name, best(values), samples.get(name))
            self.spread[name] = stats.spread(values)

    def in_table_order(self) -> dict[str, dict[str, Any]]:
        """Every metric of the table; raises if one was not measured."""
        return {name: self.metrics[name] for name in self._units}


class Outcome:
    """Operations attempted and failed, and the output checks that did not
    hold, over every epoch of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, closed: dict[str, Any]) -> None:
        self.attempted += closed["attempted"]
        self.failed += closed["failed"]
        self.problems += closed["problems"]

    def summary(self) -> dict[str, Any]:
        # every output check that does not hold counts as one more failure
        failed = self.failed + len(self.problems)
        return {
            "correct": failed == 0,
            "attempted": max(1, self.attempted),
            "failed": failed,
            "problems": self.problems[:20],
        }


def _percentile_ms(samples: list[float], q: float) -> float:
    """In ms; 0 when the workload has no such sample."""
    return stats.percentile(samples, q) * 1e3 if samples else 0.0


def _pooled(region: workloads.Region, pick) -> list[float]:
    return [sample for client in region.clients for sample in pick(client)]


def _commands(client: workloads.Client) -> list[float]:
    return [sample for kind in client.commands.values() for sample in kind]


def _rate(region: workloads.Region) -> float:
    """Verified-complete cases per second of the epoch."""
    return len(_pooled(region, lambda client: client.units)) / (region.end - region.start)


def _close(workload: workloads.Workload, region: workloads.Region) -> dict[str, Any]:
    """The final-state oracle and the digest, then close.  Returns what a
    restart needs and what the epoch's outcome is made of; the caller drops
    ``workload`` and ``region``, and with them the old cluster."""
    system = workload.system
    problems = workload.problems()
    errors = [client.first_error for client in region.clients if client.first_error]
    closed = {
        "spec": system.spec,
        "directory": system.directory,
        "digest": workloads.state_digest(system.cluster),
        "attempted": sum(client.attempted for client in region.clients),
        "failed": sum(client.failed for client in region.clients),
        "problems": problems + errors[:2],
    }
    closed["survivors"] = system.close()
    return closed


def _restart(closed: dict[str, Any], probe=None) -> dict[str, float]:
    """Reopen the stores of a closed epoch and ``recover()``; the recovered
    state must equal the state before the close.  Returns the restart
    timings; ``probe`` runs on the recovered system.

    A real restart starts from an empty heap.  Here the heap is collected
    first, and what survives — volatile stores standing for a disk — is
    frozen so the collector does not walk it during ``recover()``.
    """
    gc.collect()
    gc.freeze()
    recovered, open_s, engine_s = workloads.restart(
        closed["spec"], closed["directory"], closed["survivors"]
    )
    gc.unfreeze()
    if workloads.state_digest(recovered.cluster) != closed["digest"]:
        closed["problems"].append("state after recover() differs from the state before close")
    replayed = sum(getattr(store, "replayed_batches", 0) for store in recovered.stores)
    if probe is not None:
        probe(recovered)
    recovered.close()
    return {"open_s": open_s, "engine_s": engine_s, "replayed_batches": replayed}


def _end_to_end(region: workloads.Region) -> tuple[dict[str, float], dict[str, int]]:
    """What one epoch says about the region-derived end-to-end metrics,
    and the samples behind each (the same in every epoch)."""
    units = _pooled(region, lambda client: client.units)
    commands = _pooled(region, _commands)
    cases = max(1, len(units))
    before, after = region.before["counters"], region.after["counters"]
    commits = after["engine.flush.commits"] - before.get("engine.flush.commits", 0)
    grown = region.after["rss_bytes"] - region.before["rss_bytes"]
    values = {
        "cases_per_s": _rate(region),
        "case_p50_ms": _percentile_ms(units, 50),
        "cmd_p50_ms": _percentile_ms(commands, 50),
        "commits_per_case": commits / cases,
        "rss_kb_per_case": grown / 1024 / cases,
    }
    samples = {name: len(commands if name.startswith("cmd_") else units) for name in values}
    return values, samples


def run_untraced(name: str, seed: int, seconds: float, work: str) -> dict[str, Any]:
    """Whole epochs until their measured regions add up to ``seconds``:
    set up, run the epoch's fixed work, check, close, restart."""
    result = Result(END_TO_END)
    outcome = Outcome()
    epochs: list[dict[str, float]] = []
    measured = 0.0
    while measured < seconds or len(epochs) < MIN_EPOCHS:
        directory = os.path.join(work, f"epoch-{len(epochs)}")
        gc.collect()
        workload, setup_s, _ = workloads.set_up(name, directory, seed)
        region = workloads.run_epoch(workload)
        measured += region.end - region.start
        values, samples = _end_to_end(region)
        closed = _close(workload, region)
        del workload, region
        restart = _restart(closed)
        outcome.add(closed)
        shutil.rmtree(directory, ignore_errors=True)
        values["setup_s"] = setup_s
        values["recover_s"] = restart["open_s"] + restart["engine_s"]
        epochs.append(values)
        if closed["failed"] or closed["problems"]:
            # the run is lost, and failing operations may take no time at
            # all: do not wait for them to add up to ``seconds``
            break
    result.put_best(epochs, samples)
    # resident memory grows only while the heap is fresh: later epochs
    # reuse what the first one freed
    result.put("rss_kb_per_case", epochs[0]["rss_kb_per_case"])
    del result.spread["rss_kb_per_case"]
    return _finish(name, seed, seconds, False, result, outcome)


def run_traced(name: str, seed: int, seconds: float, work: str) -> dict[str, Any]:
    """Pairs of an untraced reference epoch and a traced one until their
    measured regions add up to ``seconds``; the per-layer rows come from
    the last traced epoch, then the probes and replays of ``layers``."""
    result = Result(PER_LAYER)
    outcome = Outcome()
    quiet_rates, traced_rates = [], []
    rounds: list[float] = []
    late: list[float] = []
    measured = 0.0
    while True:
        pair = len(quiet_rates)
        gc.collect()
        reference, _, _ = workloads.set_up(name, os.path.join(work, f"reference-{pair}"), seed)
        quiet = workloads.run_epoch(reference)
        measured += quiet.end - quiet.start
        quiet_rates.append(_rate(quiet))
        reference.system.close()
        del reference, quiet
        gc.collect()

        recorder = SpanRecorder()
        workload, _, deploy_s = workloads.set_up(
            name, os.path.join(work, f"traced-{pair}"), seed, recorder
        )
        region = workloads.run_epoch(workload)
        measured += region.end - region.start
        traced_rates.append(_rate(region))
        # one epoch holds too few reader rounds for a 95th percentile
        rounds += _pooled(region, lambda client: client.rounds)
        late += _pooled(region, lambda client: client.late)
        if measured >= seconds or any(client.failed for client in region.clients):
            break
        workload.system.close()
        del workload, region
    system = workload.system
    cases = max(1, len(_pooled(region, lambda client: client.units)))
    result.put("trace_overhead_ratio", max(traced_rates) / max(quiet_rates), len(traced_rates))
    result.put("deploy.analysis_ms", deploy_s * 1e3)

    result.timing("client.case_p95_ms", _pooled(region, lambda client: client.units), 95)
    result.timing("client.cmd_p95_ms", _pooled(region, _commands), 95)
    result.timing("client.cmd_p99_ms", _pooled(region, _commands), 99)
    for kind in ("start", "complete", "correlate", "start_item"):
        samples = _pooled(region, lambda client: client.commands[kind])
        result.timing(f"client.{kind}_p50_ms", samples, 50)
        result.timing(f"client.{kind}_p99_ms", samples, 99)
    roundtrips = _pooled(region, lambda client: client.roundtrips)
    result.timing("cluster.outbox_roundtrip_ms", roundtrips, 50)
    result.timing("views.round_p50_ms", rounds, 50)
    result.timing("views.round_p95_ms", rounds, 95)
    result.timing("views.reader_late_p95_ms", late, 95)

    _registry_rows(result, region, cases)
    _store_rows(result, region, cases)
    _path_rows(result, recorder, region, cases)

    # the probes below write (a parked instance per first-read probe):
    # they run before the oracle and the digest, which then cover them
    result.put_all(layers.expr_replay(system))
    result.put_all(layers.idle_dispatch(system))
    result.put("history.append_us", layers.history_append(system))
    result.put("worklist.create_item_us.n100", layers.worklist_create(100))
    result.put("worklist.create_item_us.n5000", layers.worklist_create(5000))
    batches = [
        batch for store in system.stores if isinstance(store, TracingKV) for batch in store.batches
    ]
    result.put_all(layers.storage_replay(batches, work))
    result.put("storage.write_amp", layers.write_amplification(system))
    lookup = next(i.business_key for i in system.cluster.instances() if i.business_key)
    result.put_all(layers.view_reads(system, lookup))
    result.put("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)

    closed = _close(workload, region)
    del system, workload, region
    restart = _restart(
        closed,
        probe=lambda recovered: result.put(
            "views.rebuild_s", layers.views_rebuild(recovered.stores)
        ),
    )
    outcome.add(closed)
    result.put("recover.open_s", restart["open_s"])
    result.put("recover.engine_s", restart["engine_s"])
    result.put("recover.replayed_batches", restart["replayed_batches"])

    recorder.write(os.path.join(OUT, f"trace_{name}.json"))
    return _finish(name, seed, seconds, True, result, outcome)


def _registry_rows(result: Result, region: workloads.Region, cases: int) -> None:
    before, after = region.before, region.after

    def grown(name: str) -> float:
        return after["counters"].get(name, 0) - before["counters"].get(name, 0)

    def mean_ms(prefix: str) -> float:
        count = total = 0.0
        for name, (n, seconds) in after["histograms"].items():
            if name.startswith(prefix):
                n0, seconds0 = before["histograms"].get(name, (0, 0.0))
                count += n - n0
                total += seconds - seconds0
        return total / count * 1e3 if count else 0.0

    result.put("engine.commands_per_case", grown("engine.commands.dispatched") / cases)
    result.put("engine.token_moves_per_case", grown("engine.token_moves") / cases)
    result.put(
        "history.events_per_case", (after["history_events"] - before["history_events"]) / cases
    )
    result.put("workers.queue_wait_mean_ms", mean_ms("workers.queue_wait_seconds"))
    result.put("workers.execute_mean_ms", mean_ms("workers.execute_seconds"))
    result.put("workers.throttled", grown("workers.throttled"))
    result.put(
        "workers.wait_ms_per_case",
        sum(client.wait_seconds for client in region.clients) / cases * 1e3,
    )
    result.put("services.invoke_mean_ms", mean_ms("services.invoke_seconds"))
    result.put("cluster.lock_wait_mean_ms", mean_ms("cluster.shard.lock_wait_seconds."))
    per_shard = [
        after["counters"][name] - before["counters"].get(name, 0)
        for name in after["counters"]
        if name.startswith("cluster.shard.dispatches.")
    ]
    result.put("cluster.shard_skew", max(per_shard) / statistics.fmean(per_shard))
    result.put("cluster.forwards_per_case", grown("cluster.message_forwards") / cases)
    result.put("views.apply_mean_ms", mean_ms("views.apply_seconds"))
    result.put(
        "views.lag_at_end",
        max(
            (value for name, value in after["gauges"].items() if name.startswith("views.lag.")),
            default=0,
        ),
    )


def _store_rows(result: Result, region: workloads.Region, cases: int) -> None:
    puts, deletes, commits, seconds, journal = (
        sum(after[i] - before[i] for before, after in zip(region.before["stores"], region.after["stores"]))
        for i in range(5)
    )
    result.put("storage.commit_ms", seconds / commits * 1e3 if commits else 0.0, int(commits))
    result.put("storage.commits_per_case", commits / cases)
    result.put("storage.puts_per_case", puts / cases)
    result.put("storage.deletes_per_case", deletes / cases)
    result.put("storage.bytes_per_commit", journal / commits if commits else 0.0)
    result.put("storage.journal_bytes_per_case", journal / cases)


def _path_rows(result: Result, recorder, region, cases: int) -> None:
    """The per-case cost table: the rows must sum to the wall time a case
    took on its client thread; what they miss is printed as unattributed."""
    shares = layers.path_shares(recorder.rows(), region.start)
    runners = sum(1 for client in region.clients if client.attempted)
    wall = runners * (region.end - region.start) / cases * 1e6
    per_case = {key: seconds / cases * 1e6 for key, seconds in shares.items()}
    commands = sum(len(kind) for client in region.clients for kind in client.commands.values())
    result.put("engine.dispatch_self_us", shares["engine"] / max(1, commands) * 1e6, commands)
    result.put("path.wall_us_per_case", wall)
    for key in ("engine", "storage", "services", "wait", "driver"):
        result.put(f"path.{key}_us_per_case", per_case[key])
    result.put("path.storage_share", per_case["storage"] / wall if wall else 0.0)
    attributed = sum(per_case[key] for key in ("engine", "storage", "services", "wait", "driver"))
    result.put("unattributed_us_per_case", wall - attributed)
    result.put("worker.storage_us_per_case", per_case["worker_storage"])
    result.put("worker.services_us_per_case", per_case["worker_services"])


def _finish(name, seed, seconds, traced, result: Result, outcome: Outcome) -> dict[str, Any]:
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
        **outcome.summary(),
        "metrics": result.in_table_order(),
        "samples": result.samples,
        "spread": result.spread,
        "epochs": result.epochs,
    }


def run_one(name: str, seed: int, seconds: float, traced: bool) -> dict[str, Any]:
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    try:
        run = run_traced if traced else run_untraced
        return run(name, seed, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report(found: dict[str, Any]) -> None:
    mode = (
        "traced, per layer"
        if found["traced"]
        else f"untraced, end to end, best of {len(found['epochs'])} epochs"
    )
    print(f"== {found['workload']}  seed {found['seed']}  {found['seconds']} s  ({mode})")
    for name, metric in found["metrics"].items():
        note = ""
        if name in found["samples"]:
            note += f"  n={found['samples'][name]}"
        if name in found["spread"]:
            note += f"  epoch spread {found['spread'][name]:.1%}"
        print(f"  {name:<36}{metric['value']:>14.4f} {metric['unit']:<6}{note}")
    print(f"  attempted {found['attempted']}  failed {found['failed']}")
    for problem in found["problems"]:
        print(f"  PROBLEM {problem}")


def run_all(seed: int, seconds: float) -> int:
    """Each workload in a fresh child process, untraced then traced."""
    collected = []
    for name in workloads.SPECS:
        for trace in ("0", "1"):
            child = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", trace],
                stdout=subprocess.PIPE, text=True, check=False,
            )
            lines = child.stdout.splitlines()
            print("\n".join(lines[:-1]))
            with open(os.path.join(OUT, f"result_{name}_{trace}.json"), encoding="utf-8") as handle:
                collected.append(json.load(handle))
            if child.returncode:
                print(f"{name} --trace {trace} exited with {child.returncode}")
    with open(os.path.join(OUT, "results.json"), "w", encoding="utf-8") as handle:
        json.dump(collected, handle, indent=1)
    print(f"wrote {os.path.join(OUT, 'results.json')}")
    return 0 if all(found["correct"] for found in collected) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    found = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    report(found)
    with open(
        os.path.join(OUT, f"result_{args.workload}_{args.trace}.json"), "w", encoding="utf-8"
    ) as handle:
        json.dump(found, handle, indent=1)
    print(json.dumps({key: found[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if found["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
