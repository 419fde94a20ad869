"""``repro lint --deployment`` and ``repro choreography``: store loading,
formats, scoped baselines."""

from __future__ import annotations

import json

import pytest

from repro.bpmn import to_bpmn_xml
from repro.cli import main
from repro.model.builder import ProcessBuilder


def _sender():
    return (
        ProcessBuilder("sender").start()
        .send_task("orphan", message_name="nobody.listens")
        .end().build()
    )


def _caller():
    return (
        ProcessBuilder("caller").start()
        .call_activity("c", process_key="ghost")
        .end().build()
    )


@pytest.fixture
def deployment_dir(tmp_path):
    root = tmp_path / "deploy"
    (root / "nested").mkdir(parents=True)
    (root / "sender.bpmn").write_text(to_bpmn_xml(_sender()))
    (root / "nested" / "caller.bpmn").write_text(to_bpmn_xml(_caller()))
    return str(root)


class TestDeploymentLint:
    def test_findings_from_all_files_fail_the_lint(self, deployment_dir, capsys):
        assert main(["lint", deployment_dir, "--deployment"]) == 1
        out = capsys.readouterr().out
        assert "MSG001" in out and "CALL001" in out
        assert "sender.bpmn" in out  # provenance survives deployment mode

    def test_format_json(self, deployment_dir, capsys):
        main(["lint", deployment_dir, "--deployment", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["errors"] == 1
        assert {d["process"] for d in payload["definitions"]} == {
            "sender", "caller",
        }

    def test_write_then_apply_baseline(self, deployment_dir, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert main([
            "lint", deployment_dir, "--deployment",
            "--baseline", str(baseline), "--write-baseline",
        ]) == 0
        recorded = json.loads(baseline.read_text())
        assert any(f.startswith("sender::MSG001:") for f in recorded)
        capsys.readouterr()
        assert main([
            "lint", deployment_dir, "--deployment",
            "--baseline", str(baseline),
        ]) == 0
        assert "suppressed" in capsys.readouterr().out

    def test_write_baseline_requires_baseline_path(self, deployment_dir):
        with pytest.raises(SystemExit, match="baseline"):
            main(["lint", deployment_dir, "--deployment", "--write-baseline"])

    def test_empty_directory_errors_out(self, tmp_path):
        with pytest.raises(SystemExit, match="bpmn"):
            main(["lint", str(tmp_path), "--deployment"])

    def test_single_file_write_baseline_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "sender.bpmn"
        path.write_text(to_bpmn_xml(_sender()))
        baseline = tmp_path / "baseline.json"
        # single-file mode records unscoped fingerprints
        assert main([
            "lint", str(path), "--baseline", str(baseline), "--write-baseline",
        ]) == 0
        assert "MSG001:orphan" not in json.loads(baseline.read_text())
        # interproc rules only run in deployment mode; DF/STR findings do
        capsys.readouterr()
        assert main([
            "lint", str(path), "--baseline", str(baseline), "--fail-on", "info",
        ]) == 0


class TestStoreLoading:
    def test_lint_reads_a_durable_kv_store(self, tmp_path, capsys):
        from repro.engine.engine import ProcessEngine
        from repro.storage.kvstore import DurableKV

        store_path = str(tmp_path / "engine-store")
        store = DurableKV(store_path)
        engine = ProcessEngine(store=store)
        engine.deploy(_sender())
        store.close()

        assert main([
            "lint", store_path, "--deployment", "--fail-on", "warning",
        ]) == 1
        assert "MSG001" in capsys.readouterr().out

    def test_lint_reads_the_latest_version_of_each_key(self, tmp_path, capsys):
        """``definition/sender:10`` sorts before ``definition/sender:2``;
        version 10, the latest, is still the one linted."""
        from repro.engine.engine import ProcessEngine
        from repro.storage.kvstore import DurableKV

        store_path = str(tmp_path / "engine-store")
        store = DurableKV(store_path)
        engine = ProcessEngine(store=store)
        for _ in range(9):
            engine.deploy(_sender())
        engine.deploy(ProcessBuilder("sender").start().end().build())
        store.close()

        main(["lint", store_path, "--deployment", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert [d["process"] for d in payload["definitions"]] == ["sender"]
        assert "MSG001" not in json.dumps(payload)

    def test_lint_reads_shard_zero_of_a_cluster_dir(self, tmp_path, capsys):
        from repro.engine.engine import ProcessEngine
        from repro.storage.kvstore import DurableKV

        root = tmp_path / "cluster"
        for shard in range(2):
            store = DurableKV(str(root / f"shard-{shard}"))
            engine = ProcessEngine(store=store)
            engine.deploy(_sender())
            store.close()

        assert main([
            "lint", str(root), "--deployment", "--fail-on", "warning",
        ]) == 1
        assert "MSG001" in capsys.readouterr().out

    def test_store_without_definitions_errors_out(self, tmp_path):
        from repro.storage.kvstore import DurableKV

        store_path = str(tmp_path / "empty-store")
        store = DurableKV(store_path)
        store.begin()
        store.put("unrelated/key", {"x": 1})
        store.commit()
        store.close()
        with pytest.raises(SystemExit, match="definition"):
            main(["lint", store_path, "--deployment"])


class TestChoreographyCommand:
    def test_text_output(self, deployment_dir, capsys):
        assert main(["choreography", deployment_dir]) == 0
        out = capsys.readouterr().out
        assert "nobody.listens" in out
        assert "ghost" in out and "not deployed" in out

    def test_json_output(self, deployment_dir, capsys):
        assert main(["choreography", deployment_dir, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["channels"][0]["message"] == "nobody.listens"
        assert payload["calls"][0]["deployed"] is False
