"""The shared record codec: golden bytes, round trips, and its rules.

``record_golden.json`` holds the canonical JSON of every sample in
``record_samples.py`` as the per-type codecs that preceded
:func:`~repro.storage.serializers.to_record` wrote it: stores and dispatch
logs written by those builds must read back unchanged, and records
written now must be byte-identical to them.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import pytest

from repro.engine.commands import COMMAND_TYPES
from repro.engine.jobs import Job
from repro.model.elements import NODE_CLASSES, RetryPolicy, ServiceTask, UserTask
from repro.model.serialization import node_from_dict, node_to_dict
from repro.storage.serializers import from_record, json_encode, to_record

from tests.storage.record_samples import COMMANDS, NODES, RECORDS, samples

GOLDEN = json.loads((Path(__file__).parent / "record_golden.json").read_text())
SAMPLES = {name: (obj, encode, decode) for name, obj, encode, decode in samples()}


def canonical(raw) -> str:
    return json_encode(raw).decode()


def is_default(f, value) -> bool:
    if f.default is not MISSING:
        return value == f.default
    return f.default_factory is not MISSING and value == f.default_factory()


class TestGoldenBytes:
    def test_every_sample_has_golden_bytes(self):
        assert set(SAMPLES) == set(GOLDEN)

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_encoding_is_byte_identical(self, name):
        obj, encode, _ = SAMPLES[name]
        assert canonical(encode(obj)) == GOLDEN[name]

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_stored_bytes_read_back_unchanged(self, name):
        _, encode, decode = SAMPLES[name]
        assert canonical(encode(decode(json.loads(GOLDEN[name])))) == GOLDEN[name]

    def test_every_registered_command_has_a_sample(self):
        assert set(COMMANDS) == set(COMMAND_TYPES)


class TestNodeRoundTrip:
    """Fails when a node type or field is added that the samples do not
    cover, or that does not survive a store round trip."""

    def test_every_node_type_has_a_sample(self):
        assert {type(node).__name__ for node in NODES.values()} == set(NODE_CLASSES)

    @pytest.mark.parametrize("type_name", sorted(NODE_CLASSES))
    def test_every_field_is_set_by_some_sample(self, type_name):
        cls = NODE_CLASSES[type_name]
        nodes = [node for node in NODES.values() if type(node) is cls]
        unset = [
            f.name
            for f in fields(cls)
            if all(is_default(f, getattr(node, f.name)) for node in nodes)
        ]
        assert unset == []

    @pytest.mark.parametrize("sample", sorted(NODES))
    def test_node_round_trips_through_json(self, sample):
        node = NODES[sample]
        stored = json.loads(json_encode(node_to_dict(node)))
        assert node_from_dict(stored) == node


class TestRecordSamples:
    @pytest.mark.parametrize("name", sorted(RECORDS))
    def test_record_fields_are_all_set(self, name):
        cls = type(RECORDS[name])
        candidates = [r for r in RECORDS.values() if type(r) is cls]
        unset = [
            f.name
            for f in fields(cls)
            if all(is_default(f, getattr(r, f.name)) for r in candidates)
        ]
        assert unset == []

    def test_slotted_records_stay_slotted(self):
        for name in ("MessageWait", "EventRecord"):
            assert not hasattr(RECORDS[name], "__dict__")


@dataclass
class _Sample:
    label: str
    tags: tuple[str, ...] = ()
    items: list[int] = field(default_factory=list)
    extra: dict[str, int] = field(default_factory=dict)
    retry: RetryPolicy = field(default_factory=RetryPolicy)


class TestCodecRules:
    def test_dicts_and_lists_are_copied_on_write(self):
        sample = _Sample("a", items=[1], extra={"k": 1})
        record = to_record(sample)
        sample.items.append(2)
        sample.extra["k"] = 2
        assert record["items"] == [1] and record["extra"] == {"k": 1}

    def test_dicts_and_lists_are_copied_on_read(self):
        raw = {"label": "a", "items": [1], "extra": {"k": 1}}
        sample = from_record(_Sample, raw)
        sample.items.append(2)
        sample.extra["k"] = 2
        assert raw == {"label": "a", "items": [1], "extra": {"k": 1}}

    def test_job_data_is_not_shared_with_the_store(self):
        job = Job(id="job-1", due=1.0, kind="timer", instance_id="p-1",
                  data={"node_id": "wait"})
        stored = job.to_dict()
        job.data["node_id"] = "pause"
        assert stored["data"] == {"node_id": "wait"}
        loaded = Job.from_dict(stored)
        loaded.data["node_id"] = "pause"
        assert stored["data"] == {"node_id": "wait"}

    def test_tuples_are_written_as_lists_and_read_as_tuples(self):
        record = to_record(_Sample("a", tags=("x", "y")))
        assert record["tags"] == ["x", "y"]
        assert from_record(_Sample, record).tags == ("x", "y")
        task = UserTask("t", role="r", form_fields=("f",))
        assert node_from_dict(node_to_dict(task)).form_fields == ("f",)

    def test_nested_dataclass_is_its_own_record(self):
        record = to_record(_Sample("a", retry=RetryPolicy(max_attempts=7)))
        assert record["retry"] == {
            "max_attempts": 7, "initial_backoff": 0.1, "backoff_multiplier": 2.0
        }
        assert from_record(_Sample, record).retry == RetryPolicy(max_attempts=7)
        task = from_record(ServiceTask, {"id": "s", "service": "svc", "retry": {}})
        assert task.retry == RetryPolicy()

    def test_unknown_keys_are_ignored_and_missing_keys_default(self):
        sample = from_record(_Sample, {"label": "a", "failed_at": 3.0})
        assert sample == _Sample("a")
