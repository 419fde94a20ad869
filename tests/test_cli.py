"""Tests for the command-line interface."""

import pytest

from repro.bpmn import to_bpmn_xml
from repro.cli import main
from repro.history.log import EventLog
from repro.model.builder import ProcessBuilder


@pytest.fixture
def model_file(tmp_path):
    model = (
        ProcessBuilder("demo", name="Demo", description="cli demo")
        .start()
        .script_task("work", script="doubled = n * 2")
        .end()
        .build()
    )
    path = tmp_path / "demo.bpmn"
    path.write_text(to_bpmn_xml(model))
    return str(path)


@pytest.fixture
def broken_model_file(tmp_path):
    # XOR split into AND join: valid structurally, unsound behaviourally
    model = (
        ProcessBuilder("broken")
        .start()
        .exclusive_gateway("split")
        .branch(condition="x > 1")
        .script_task("a", script="y = 1")
        .parallel_gateway("sync")
        .branch_from("split", default=True)
        .script_task("b", script="y = 2")
        .connect_to("sync")
        .move_to("sync")
        .end()
        .build()
    )
    path = tmp_path / "broken.bpmn"
    path.write_text(to_bpmn_xml(model))
    return str(path)


class TestValidate:
    def test_valid_model(self, model_file, capsys):
        assert main(["validate", model_file]) == 0
        out = capsys.readouterr().out
        assert "valid: 3 nodes" in out

    def test_soundness_flag_passes_sound_model(self, model_file, capsys):
        assert main(["validate", model_file, "--soundness"]) == 0
        assert "sound: verified" in capsys.readouterr().out

    def test_soundness_flag_rejects_unsound_model(self, broken_model_file, capsys):
        assert main(["validate", broken_model_file, "--soundness"]) == 1
        assert "UNSOUND" in capsys.readouterr().out

    def test_structural_errors_exit_1(self, tmp_path, capsys):
        model = (
            ProcessBuilder("nostart")
            .add_node(__import__("repro.model.elements", fromlist=["EndEvent"]).EndEvent("end"))
            .build(validate=False)
        )
        path = tmp_path / "bad.bpmn"
        path.write_text(to_bpmn_xml(model))
        assert main(["validate", str(path)]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_missing_file(self):
        with pytest.raises(SystemExit, match="no such file"):
            main(["validate", "/nope/missing.bpmn"])

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "junk.bpmn"
        path.write_text("not xml at all <")
        with pytest.raises(SystemExit, match="cannot parse"):
            main(["validate", str(path)])


class TestInfo:
    def test_summary(self, model_file, capsys):
        assert main(["info", model_file]) == 0
        out = capsys.readouterr().out
        assert "process   : demo" in out
        assert "ScriptTask" in out
        assert "cli demo" in out


class TestRun:
    def test_runs_to_completion_with_vars(self, model_file, capsys):
        assert main(["run", model_file, "--var", "n=21"]) == 0
        out = capsys.readouterr().out
        assert "state     : completed" in out
        assert "doubled = 42" in out
        assert "trace     : work" in out

    def test_string_variable_parses_as_string(self, model_file, capsys):
        # non-JSON values are treated as strings; 'x' * 2 == 'xx'
        assert main(["run", model_file, "--var", "n=x"]) == 0
        assert "doubled = 'xx'" in capsys.readouterr().out

    def test_failed_instance_exits_nonzero(self, model_file, capsys):
        # null * 2 is a type error -> script fails -> instance FAILED
        assert main(["run", model_file, "--var", "n=null"]) == 1
        assert "failure" in capsys.readouterr().out

    def test_bad_var_syntax(self, model_file):
        with pytest.raises(SystemExit, match="name=value"):
            main(["run", model_file, "--var", "oops"])

    def test_warns_about_waiting_nodes(self, tmp_path, capsys):
        model = (
            ProcessBuilder("waiting")
            .start()
            .user_task("approve", role="clerk")
            .end()
            .build()
        )
        path = tmp_path / "waiting.bpmn"
        path.write_text(to_bpmn_xml(model))
        assert main(["run", str(path)]) == 0  # running counts as success
        out = capsys.readouterr().out
        assert "waiting nodes" in out
        assert "state     : running" in out


class TestMine:
    def test_discovery_summary(self, tmp_path, capsys):
        log = EventLog.from_sequences(
            [["a", "b", "d"]] * 5 + [["a", "c", "d"]] * 5
        )
        path = tmp_path / "log.json"
        path.write_text(log.to_json())
        assert main(["mine", str(path)]) == 0
        out = capsys.readouterr().out
        assert "10 traces" in out
        assert "fitness=1.000" in out

    def test_bad_log_file(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{}")
        with pytest.raises(SystemExit, match="EventLog JSON"):
            main(["mine", str(path)])

    def test_xes_input(self, tmp_path, capsys):
        from repro.history.xes import to_xes_xml

        log = EventLog.from_sequences([["a", "b"]] * 4)
        path = tmp_path / "log.xes"
        path.write_text(to_xes_xml(log))
        assert main(["mine", str(path)]) == 0
        assert "4 traces" in capsys.readouterr().out

    def test_footprint_flag(self, tmp_path, capsys):
        log = EventLog.from_sequences([["a", "b"]] * 4)
        path = tmp_path / "log.json"
        path.write_text(log.to_json())
        assert main(["mine", str(path), "--footprint"]) == 0
        out = capsys.readouterr().out
        assert "footprint" in out
        assert "→" in out


class TestRender:
    def test_ascii_default(self, model_file, capsys):
        assert main(["render", model_file]) == 0
        out = capsys.readouterr().out
        assert "ScriptTask: work" in out

    def test_dot_format(self, model_file, capsys):
        assert main(["render", model_file, "--format", "dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith('digraph "demo" {')
        assert '"start" -> "work"' in out


class TestPatterns:
    def test_matrix(self, capsys):
        assert main(["patterns"]) == 0
        out = capsys.readouterr().out
        assert "supported: 16/20" in out
        assert "Deferred Choice" in out


class TestCommands:
    def test_lists_registered_command_types(self, capsys):
        assert main(["commands"]) == 0
        out = capsys.readouterr().out
        assert "registered command types:" in out
        assert "start_instance" in out
        assert "[external]" in out
        assert "run_due_jobs" in out
        assert "[internal]" in out

    def test_dumps_dispatch_history_from_store(self, tmp_path, capsys):
        from repro.clock import VirtualClock
        from repro.engine.engine import ProcessEngine
        from repro.model.builder import ProcessBuilder
        from repro.storage.kvstore import DurableKV

        directory = str(tmp_path / "kv")
        store = DurableKV(directory)
        engine = ProcessEngine(clock=VirtualClock(0), store=store)
        model = (
            ProcessBuilder("demo")
            .start()
            .script_task("work", script="doubled = n * 2")
            .end()
            .build()
        )
        engine.deploy(model)
        engine.start_instance("demo", {"n": 1}, dedup_key="req-1")
        store.close()

        assert main(["commands", "--store", directory]) == 0
        out = capsys.readouterr().out
        assert "dispatch history (2 entries):" in out
        assert "deploy_definition" in out
        assert "start_instance" in out
        assert "status=applied" in out
        assert "dedup_key=req-1" in out

    def test_lists_a_deploy_record_with_the_dropped_pre_verified_field(
        self, tmp_path, capsys
    ):
        """Deploy records written while ``DeployDefinition`` carried a
        ``pre_verified`` flag still decode and list."""
        import json

        from repro.clock import VirtualClock
        from repro.engine.commands import DeployDefinition, command_from_dict
        from repro.engine.engine import ProcessEngine
        from repro.model.builder import ProcessBuilder
        from repro.storage.kvstore import DurableKV

        directory = str(tmp_path / "kv")
        store = DurableKV(directory)
        engine = ProcessEngine(clock=VirtualClock(0), store=store)
        engine.deploy(ProcessBuilder("demo").start().end().build())
        [(key, record)] = store.scan("dispatch/")
        record["command"]["pre_verified"] = True
        store.put(key, record)
        store.close()

        assert main(["commands", "--store", directory, "--json"]) == 0
        [listed] = json.loads(capsys.readouterr().out)["history"]
        assert listed["command"]["pre_verified"] is True
        command = command_from_dict(listed["command"])
        assert isinstance(command, DeployDefinition)
        assert command.definition.key == "demo"
        reopened = ProcessEngine(clock=VirtualClock(0), store=DurableKV(directory))
        assert reopened.recover()["commands"] == 1
        reopened.store.close()

    def test_json_output_with_limit(self, tmp_path, capsys):
        import json

        from repro.clock import VirtualClock
        from repro.engine.engine import ProcessEngine
        from repro.model.builder import ProcessBuilder
        from repro.storage.kvstore import DurableKV

        directory = str(tmp_path / "kv")
        store = DurableKV(directory)
        engine = ProcessEngine(clock=VirtualClock(0), store=store)
        model = (
            ProcessBuilder("demo")
            .start()
            .script_task("work", script="doubled = n * 2")
            .end()
            .build()
        )
        engine.deploy(model)
        for n in range(3):
            engine.start_instance("demo", {"n": n})
        store.close()

        assert main(["commands", "--store", directory, "--limit", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {c["command"] for c in payload["commands"]} >= {
            "start_instance",
            "advance_time",
        }
        assert len(payload["history"]) == 2
        assert all(r["name"] == "start_instance" for r in payload["history"])


class TestTrace:
    def test_prints_span_tree(self, model_file, capsys):
        assert main(["trace", model_file, "--var", "n=21"]) == 0
        out = capsys.readouterr().out
        assert "state     : completed" in out
        assert "instance [ok]" in out
        assert "node_id='work'" in out
        # one node span per executed node: start, work, end
        assert out.count("node [ok]") == 3

    def test_jsonl_export(self, model_file, tmp_path, capsys):
        out_path = str(tmp_path / "spans.jsonl")
        assert main(["trace", model_file, "--var", "n=1", "--jsonl", out_path]) == 0
        from repro.obs import load_spans_jsonl

        with open(out_path, encoding="utf-8") as fh:
            spans = load_spans_jsonl(fh)
        assert [s["name"] for s in spans].count("node") == 3
        # instance + 3 nodes + the engine.flush group-commit span
        # + one engine.command span per dispatched command
        names = [s["name"] for s in spans]
        assert names.count("instance") == 1
        assert names.count("engine.command") == 2  # deploy + start_instance
        assert len(spans) == 3 + 1 + 2 + names.count("engine.flush")
        assert f"wrote     : {len(spans)} spans" in capsys.readouterr().out


class TestMetrics:
    def test_snapshot_is_superset_of_legacy_keys(self, model_file, capsys):
        import json

        assert main(["metrics", model_file, "--var", "n=3", "--json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        legacy_keys = {
            "instances_started", "instances_completed", "instances_failed",
            "instances_terminated", "timers_fired", "messages_delivered",
            "migrations",
        }
        counters = {k.removeprefix("engine.") for k in snapshot["counters"]}
        assert legacy_keys <= counters
        executed = {
            name: value
            for name, value in snapshot["counters"].items()
            if name.startswith("engine.nodes_executed.")
        }
        assert executed == {
            "engine.nodes_executed.StartEvent": 1,
            "engine.nodes_executed.ScriptTask": 1,
            "engine.nodes_executed.EndEvent": 1,
        }

    def test_human_output_lists_legacy_counters(self, model_file, capsys):
        assert main(["metrics", model_file, "--var", "n=3"]) == 0
        out = capsys.readouterr().out
        for name in ("instances_started", "instances_completed",
                     "instances_failed", "instances_terminated",
                     "timers_fired", "messages_delivered", "migrations",
                     "nodes_executed.ScriptTask"):
            assert f"engine.{name} " in out

    def test_human_output_sections(self, model_file, capsys):
        assert main(["metrics", model_file, "--var", "n=3"]) == 0
        out = capsys.readouterr().out
        for needle in ("counters  :", "gauges    :", "histograms:",
                       "engine.token_moves", "engine.scheduler.queue_depth"):
            assert needle in out


class TestClusterStatus:
    @pytest.fixture
    def cluster_store(self, tmp_path):
        """A real 2-shard cluster store layout, written by ShardedEngine."""
        from repro.clock import VirtualClock
        from repro.cluster import ShardedEngine
        from repro.storage.kvstore import DurableKV

        root = tmp_path / "cluster"
        root.mkdir()
        cluster = ShardedEngine(
            shards=2,
            store_factory=lambda i: DurableKV(str(root / f"shard-{i}")),
            clock=VirtualClock(0),
        )
        model = (
            ProcessBuilder("auto")
            .start()
            .script_task("work", script="doubled = n * 2")
            .end()
            .build()
        )
        cluster.deploy(model)
        for k in range(4):
            cluster.start_instance("auto", {"n": k})
        cluster.close()
        return str(root)

    def test_consistent_cluster_reports_zero(self, cluster_store, capsys):
        assert main(["cluster", "status", "--store", cluster_store]) == 0
        out = capsys.readouterr().out
        assert "2 shard store(s), topology consistent" in out
        assert "shard 0 (shard-0, topology 0/2)" in out
        assert "completed=2" in out

    def test_json_output(self, cluster_store, capsys):
        import json

        assert main(
            ["cluster", "status", "--store", cluster_store, "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["consistent"] is True
        assert len(payload["shards"]) == 2
        assert payload["shards"][1]["topology"] == {"shards": 2, "shard": 1}
        assert payload["shards"][0]["instances"] == 2

    def test_store_sizes_are_reported_and_reading_never_checkpoints(
        self, cluster_store, capsys
    ):
        import json
        import os

        from repro.storage.kvstore import DurableKV

        store = DurableKV(cluster_store + "/shard-0")
        store.snapshot()
        store.put("extra", 1)
        expected = (store.journal_size, store.snapshot_size, len(store))
        store.close()
        assert main(["cluster", "status", "--store", cluster_store, "--json"]) == 0
        first, second = json.loads(capsys.readouterr().out)["shards"]
        assert (
            first["journal_bytes"], first["snapshot_bytes"], first["live_keys"]
        ) == expected
        assert expected[0] > 0 and expected[1] > 0
        assert second["snapshot_bytes"] == 0 and second["journal_bytes"] > 0
        assert not os.path.exists(cluster_store + "/shard-1/snapshot.bin")
        assert main(["cluster", "status", "--store", cluster_store]) == 0
        assert f"journal_bytes={expected[0]}" in capsys.readouterr().out

    def test_undrained_outbox_records_are_reported(self, cluster_store, capsys):
        """Offline stores with persisted-but-undrained forward records —
        the crash-recovery backlog — show up as pending_forwards."""
        import json

        from repro.storage.kvstore import DurableKV

        store = DurableKV(cluster_store + "/shard-0")
        store.put(
            "outbox/0000000001",
            {"seq": 1, "origin": "s0", "name": "go", "correlation": "X",
             "payload": {}, "created_at": 0.0},
        )
        store.close()
        assert main(
            ["cluster", "status", "--store", cluster_store, "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["shards"][0]["pending_forwards"] == 1
        assert payload["shards"][1]["pending_forwards"] == 0
        assert main(["cluster", "status", "--store", cluster_store]) == 0
        assert "pending_forwards=1" in capsys.readouterr().out

    def test_missing_shard_reports_inconsistent(self, cluster_store, capsys):
        import shutil

        shutil.rmtree(cluster_store + "/shard-1")
        assert main(["cluster", "status", "--store", cluster_store]) == 1
        assert "INCONSISTENT" in capsys.readouterr().out

    def test_empty_directory_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["cluster", "status", "--store", str(tmp_path)])


class TestDlq:
    @pytest.fixture
    def dlq_store(self, tmp_path):
        """A single-engine store holding one dead-lettered invocation."""
        from repro.clock import VirtualClock
        from repro.engine.engine import ProcessEngine
        from repro.model.elements import RetryPolicy
        from repro.storage.kvstore import DurableKV
        from repro.workers import WorkerPool

        path = str(tmp_path / "store")
        store = DurableKV(path)
        engine = ProcessEngine(clock=VirtualClock(1000.0), store=store)
        pool = WorkerPool(workers=0)
        engine.attach_workers(pool)

        def svc(n):
            raise RuntimeError("boom")

        engine.services.register("svc", svc)
        engine.deploy(
            ProcessBuilder("p")
            .start()
            .service_task(
                "call",
                service="svc",
                inputs={"n": "n"},
                retry=RetryPolicy(max_attempts=1, initial_backoff=0.0),
            )
            .end("done")
            .build()
        )
        engine.start_instance("p", {"n": 1})
        command = pool.run_next()
        assert command.outcome == "failure"
        engine.flush()
        store.close()
        return path

    def test_list(self, dlq_store, capsys):
        assert main(["dlq", "list", "--store", dlq_store]) == 0
        out = capsys.readouterr().out
        assert "1 dead-lettered invocation(s)" in out
        assert "inv-1" in out and "boom" in out

    def test_list_json(self, dlq_store, capsys):
        import json

        assert main(["dlq", "list", "--store", dlq_store, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["dead_letters"]) == 1
        assert payload["dead_letters"][0]["id"] == "inv-1"

    def test_show(self, dlq_store, capsys):
        import json

        assert main(["dlq", "show", "inv-1", "--store", dlq_store]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["service"] == "svc"
        assert record["error"] == "RuntimeError: boom"

    def test_show_unknown_id_errors(self, dlq_store):
        with pytest.raises(SystemExit):
            main(["dlq", "show", "inv-404", "--store", dlq_store])

    def test_requeue_moves_record_to_pending(self, dlq_store, capsys):
        from repro.storage.kvstore import DurableKV

        assert main(["dlq", "requeue", "inv-1", "--store", dlq_store]) == 0
        assert "requeued inv-1" in capsys.readouterr().out
        store = DurableKV(dlq_store, sync_writes=False)
        assert store.get("dlq/inv-1", None) is None
        pending = store.get("invocation/inv-1", None)
        store.close()
        assert pending is not None
        assert pending["requeues"] == 1  # fresh completion dedup key

    def test_failed_requeue_closes_its_stores(self, dlq_store, monkeypatch):
        from repro.storage.kvstore import DurableKV

        store = DurableKV(dlq_store)
        store.put("dlq/inv-bad", {"id": "inv-bad"})  # not a decodable record
        store.close()
        opened, closed = [], []
        init, close = DurableKV.__init__, DurableKV.close

        def tracked_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            opened.append(self)

        def tracked_close(self):
            closed.append(self)
            close(self)

        monkeypatch.setattr(DurableKV, "__init__", tracked_init)
        monkeypatch.setattr(DurableKV, "close", tracked_close)
        with pytest.raises(TypeError):
            main(["dlq", "requeue", "inv-bad", "--store", dlq_store])
        assert opened and closed == opened

    def test_empty_store_lists_nothing(self, tmp_path, capsys):
        from repro.storage.kvstore import DurableKV

        path = str(tmp_path / "empty")
        DurableKV(path).close()
        assert main(["dlq", "list", "--store", path]) == 0
        assert "empty" in capsys.readouterr().out


class TestStorePaths:
    """Every ``--store`` reader walks a cluster directory the same way:
    ``shard-<n>`` partitions in shard-number order, not name order."""

    SHARDS = (0, 1, 2, 10)

    @pytest.fixture
    def cluster_dir(self, tmp_path):
        from repro.engine.engine import ProcessEngine
        from repro.storage.kvstore import DurableKV

        root = tmp_path / "cluster"
        for shard in self.SHARDS:
            store = DurableKV(str(root / f"shard-{shard}"))
            engine = ProcessEngine(store=store)
            # only shard 0 deploys a model that lints with a warning
            key = "noisy" if shard == 0 else f"quiet{shard}"
            builder = ProcessBuilder(key).start()
            if shard == 0:
                builder.send_task("orphan", message_name="nobody.listens")
            engine.deploy(builder.end().build())
            store.put(f"dlq/inv-{shard}", {"id": "inv-x", "failed_at": 0.0})
            store.close()
        return str(root)

    def test_dlq_list_reads_shards_in_numeric_order(self, cluster_dir, capsys):
        import json

        assert main(["dlq", "list", "--store", cluster_dir, "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)["dead_letters"]
        # equal sort keys: the listing keeps the walk order
        assert [row["store"] for row in rows] == [
            f"shard-{shard}" for shard in self.SHARDS
        ]

    def test_lint_deployment_reads_shard_zero(self, cluster_dir, capsys):
        assert main([
            "lint", cluster_dir, "--deployment", "--fail-on", "warning",
        ]) == 1
        out = capsys.readouterr().out
        assert "MSG001" in out and "quiet" not in out
