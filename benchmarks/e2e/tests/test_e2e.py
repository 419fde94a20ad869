"""Self-tests of the benchmark, at tiny sizes.

    python3 -m pytest benchmarks/e2e/tests -q

They check the harness, not the engine: that names are legal and match
``BENCHMARK.json``, that counts repeat and inputs follow the seed, that a
broken service shows up as failures, that the traced rows account for a
case's time, and that ``compare.py`` tells ok from regressed from
unresolved.
"""

import dataclasses
import itertools
import json
import os
import re
import sys

import pytest

E2E = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(os.path.dirname(E2E))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, E2E)

import compare  # noqa: E402
import models  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from tracing import SpanRecorder, TracingKV, own_times  # noqa: E402

from repro.storage.kvstore import MemoryKV  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
TINY_S = 0.3


@pytest.fixture(autouse=True)
def tiny_epochs(monkeypatch):
    """Two mix blocks an epoch where the benchmark runs 120."""
    spec = dataclasses.replace(workloads.SPECS["port_memory"], epoch_blocks=2)
    monkeypatch.setitem(workloads.SPECS, "port_memory", spec)


@pytest.fixture(scope="module")
def manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_manifest_matches_the_tables(manifest):
    assert manifest["paths"] == ["benchmarks/e2e"]
    assert manifest["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert [(w["name"], w["why"]) for w in manifest["workloads"]] == [
        (spec.name, spec.why) for spec in workloads.SPECS.values()
    ]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in manifest["end_to_end"]
    ] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]] == list(
        run.PER_LAYER
    )


def test_names_are_legal_and_used_once(manifest):
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in manifest[key]
    ]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in manifest["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in manifest["end_to_end"])


def test_inputs_follow_the_seed():
    def first(seed):
        return [case.manifest for case in itertools.islice(models.port_cases(seed), models.BLOCK)]

    assert first(1) == first(1)
    assert first(1) != first(2)
    block = list(itertools.islice(models.port_cases(7), models.BLOCK))
    assert sum(case.dangerous for case in block) == models.DG_PER_BLOCK
    assert sum(case.inspected for case in block) == models.INSPECT_PER_BLOCK


def test_port_memory_counts_repeat_exactly():
    first = run.run_one("port_memory", 1, TINY_S, traced=False)
    again = run.run_one("port_memory", 1, TINY_S, traced=False)
    assert first["correct"] and again["correct"]
    assert set(first["metrics"]) == {name for name, *_ in run.END_TO_END}
    assert (
        first["metrics"]["commits_per_case"]["value"]
        == again["metrics"]["commits_per_case"]["value"]
    )
    assert all(metric["value"] > 0 for metric in first["metrics"].values())


def test_traced_rows_account_for_a_case():
    found = run.run_one("port_memory", 1, 2 * TINY_S, traced=True)
    again = run.run_one("port_memory", 1, 2 * TINY_S, traced=True)
    assert found["correct"], found["problems"]
    metrics = {name: metric["value"] for name, metric in found["metrics"].items()}
    assert set(metrics) == {name for name, *_ in run.PER_LAYER}
    assert abs(metrics["unattributed_us_per_case"]) <= 0.15 * metrics["path.wall_us_per_case"]
    assert metrics["path.storage_share"] < 0.05
    assert os.path.exists(os.path.join(run.OUT, "trace_port_memory.json"))
    for name in run.EXACT_COUNTS:
        assert metrics[name] == again["metrics"][name]["value"], name


def test_a_broken_service_counts_as_failures(monkeypatch):
    real = models.parse_manifest

    def parse_manifest(edi_text):
        return {**real(edi_text), "dangerous_goods": False}

    monkeypatch.setattr(models, "parse_manifest", parse_manifest)
    monkeypatch.setattr(workloads, "TIMEOUT_S", 0.05)
    found = run.run_one("port_memory", 1, TINY_S, traced=False)
    assert not found["correct"]
    assert found["failed"] / found["attempted"] > 0
    assert any("warm-up" in problem for problem in found["problems"])


def test_tracing_store_counts_and_delegates():
    recorder = SpanRecorder()
    store = TracingKV(MemoryKV(), recorder, capture=8)
    store.put("a", 1)
    with store.transaction():
        store.put("b", 2)
        store.delete("a")
    assert (store.puts, store.deletes, store.commits) == (2, 1, 2)
    assert store.get("b") == 2 and store.get("a") is None
    assert store.batches == [[("put", "a", 1)], [("put", "b", 2), ("del", "a", None)]]
    with recorder.span("case", case="c1"):
        store.put("c", 3)
    rows = recorder.rows()
    commit = [row for row in rows if row[2] == "storage.commit"][-1]
    case = next(row for row in rows if row[2] == "case")
    assert commit[1] == case[0] and commit[5] == "c1"
    own = own_times(rows)
    assert own[case[0]] == pytest.approx((case[4] - case[3]) - (commit[4] - commit[3]))
    assert own[commit[0]] == commit[4] - commit[3]


def test_percentile_and_best_epoch():
    assert stats.percentile([1, 2, 3, 4], 50) == 2.5
    assert stats.percentile([5.0], 95) == 5.0
    # a disturbed epoch shows in the spread, not in the reported value
    result = run.Result(run.END_TO_END)
    result.put_best(
        [{"case_p50_ms": ms, "cases_per_s": 1e3 / ms} for ms in (1.0, 1.25, 50.0, 1.25, 1.5)], {}
    )
    assert result.metrics["case_p50_ms"]["value"] == 1.0
    assert result.metrics["cases_per_s"]["value"] == 1000.0
    assert result.spread["case_p50_ms"] == 49.0 / 1.25


def _result(workload, value, spread=0.0):
    metrics = {name: {"value": value, "unit": unit} for name, unit, *_ in run.END_TO_END}
    return {
        "workload": workload, "traced": False, "failed": 0,
        "metrics": metrics, "spread": {name: spread for name in metrics},
    }


def test_compare_tells_ok_regressed_unresolved():
    base = [_result("port_memory", 10.0)]
    assert compare.verdict(base, [_result("port_memory", 10.5)], "case_p50_ms", "lower", 0.10)[0] == "ok"
    assert compare.verdict(base, [_result("port_memory", 12.0)], "case_p50_ms", "lower", 0.10)[0] == "regressed"
    assert compare.verdict(base, [_result("port_memory", 8.0)], "cases_per_s", "higher", 0.10)[0] == "regressed"
    noisy = [_result("port_memory", 12.0, spread=0.3)]
    assert compare.verdict(base, noisy, "case_p50_ms", "lower", 0.10)[0] == "unresolved"
    four = [_result("port_memory", value) for value in (10.0, 10.1, 9.9, 10.0)]
    assert compare.verdict(four, four, "case_p50_ms", "lower", 0.10)[0] == "ok"
