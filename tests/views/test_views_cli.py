"""CLI tests for ``repro views status|query|rebuild``."""

import json

import pytest

from repro.cli import main
from repro.clock import VirtualClock
from repro.cluster import ShardedEngine
from repro.storage.kvstore import DurableKV

from tests.views.conftest import approval_model, build_engine


@pytest.fixture
def engine_store(tmp_path):
    """A single-engine DurableKV store with a little history in it."""
    path = str(tmp_path / "store")
    engine = build_engine(store=DurableKV(path))
    engine.deploy(approval_model())
    for k in range(3):
        engine.start_instance("approval", business_key=f"bk-{k}")
    item = engine.worklist.items()[0]
    engine.start_work_item(item.id)
    engine.complete_work_item(item.id)
    engine.flush()  # orderly shutdown drains the write-behind view dirt
    engine.store.close()
    return path


@pytest.fixture
def cluster_store(tmp_path):
    root = tmp_path / "cluster"
    root.mkdir()
    cluster = ShardedEngine(
        shards=2,
        store_factory=lambda i: DurableKV(str(root / f"shard-{i}")),
        clock=VirtualClock(0),
    )
    cluster.organization.add("ana", roles=["clerk"])
    cluster.deploy(approval_model())
    for k in range(4):
        cluster.start_instance("approval")  # keyless: spreads round-robin
    cluster.close()
    return str(root)


class TestViewsStatus:
    def test_lists_cursors_and_records(self, engine_store, capsys):
        assert main(["views", "status", "--store", engine_store]) == 0
        out = capsys.readouterr().out
        assert "lag=0" in out
        assert "by_state" in out and "worklist" in out

    def test_json_output(self, engine_store, capsys):
        assert main(
            ["views", "status", "--store", engine_store, "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        row = payload["stores"][0]
        assert row["lag"] == 0
        assert row["records"]["by_state"] == 3
        # one cursor for the whole image; the business-key index is
        # derived, so it has no table
        assert row["cursor"] == row["dispatch_seq"]
        assert set(row["records"]) == {"by_state", "def_stats", "worklist"}

    def test_cluster_layout_lists_every_shard(self, cluster_store, capsys):
        assert main(
            ["views", "status", "--store", cluster_store, "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [row["store"] for row in payload["stores"]] == [
            "shard-0", "shard-1",
        ]
        assert all(row["lag"] == 0 for row in payload["stores"])


class TestViewsQuery:
    def test_by_state_filter(self, engine_store, capsys):
        assert main(
            [
                "views", "query", "by_state",
                "--store", engine_store, "--state", "running",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["instances"]) == 2
        assert all(r["state"] == "running" for r in payload["instances"])

    def test_by_key(self, engine_store, capsys):
        assert main(
            [
                "views", "query", "by_key",
                "--store", engine_store, "--key", "bk-1",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ids"] == ["approval-2"]

    def test_by_key_requires_key(self, engine_store):
        with pytest.raises(SystemExit):
            main(["views", "query", "by_key", "--store", engine_store])

    def test_def_stats(self, engine_store, capsys):
        assert main(
            ["views", "query", "def_stats", "--store", engine_store]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        record = payload["definitions"]["approval"]
        assert record["total"] == 3
        assert record["states"]["completed"] == 1

    def test_worklist(self, engine_store, capsys):
        assert main(
            ["views", "query", "worklist", "--store", engine_store]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["open"] == 2
        assert payload["roles"] == {"clerk": 2}
        assert len(payload["items"]) == 3

    def test_cluster_instances_merge_across_shards(
        self, cluster_store, capsys
    ):
        assert main(
            ["views", "query", "by_state", "--store", cluster_store]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["instances"]) == 4
        ranks = [r["rank"] for r in payload["instances"]]
        assert ranks == sorted(ranks)

    def test_cluster_def_stats_aggregate(self, cluster_store, capsys):
        assert main(
            ["views", "query", "def_stats", "--store", cluster_store]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["definitions"]["approval"]["total"] == 4


class TestViewsRebuild:
    def test_rebuild_reports_counts(self, engine_store, capsys):
        assert main(["views", "rebuild", "--store", engine_store]) == 0
        out = capsys.readouterr().out
        assert "rebuilt" in out
        assert "3 instance(s)" in out

    def test_rebuild_recreates_deleted_views(self, engine_store, capsys):
        store = DurableKV(engine_store)
        with store.transaction():
            for key, _ in list(store.scan("view/")):
                store.delete(key)
        store.sync()
        store.close()
        assert main(["views", "rebuild", "--store", engine_store]) == 0
        capsys.readouterr()
        assert main(
            ["views", "status", "--store", engine_store, "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stores"][0]["lag"] == 0
        assert payload["stores"][0]["records"]["by_state"] == 3
