"""DurableKV as a log-structured store: the keydir against MemoryKV, the
checkpoint's crash windows and policy, refused formats, and what stays
resident per key."""

import errno
import gc
import os
import random
import shutil
import stat
import sys
import tempfile
import tracemalloc

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.storage import kvstore
from repro.storage.errors import StorageError
from repro.storage.journal import Journal
from repro.storage.kvstore import DurableKV, MemoryKV
from repro.storage.serializers import json_encode

SMALL_FLOOR = 300

# ----------------------------------------------------- differential vs MemoryKV

KEYS = ["instance/1", "instance/2", "instance/10", "jobs/1", "jobs/ñ", "箱", "view/a/b"]
PREFIXES = ["", "instance/", "instance/1", "jobs/", "view/", "none/"]
keys = st.sampled_from(KEYS)
values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**12), 10**12)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=40),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


class KeydirAgainstMemory(RuleBasedStateMachine):
    """Every operation goes to a DurableKV and a MemoryKV; every answer
    and, after each step, the whole visible state must be equal.  The
    floor is a few records' worth, so automatic checkpoints fire between
    the transactions of a run (also with unsynced records pending)."""

    FLOOR = 64

    def __init__(self):
        super().__init__()
        self.directory = None
        self.floor = kvstore.CHECKPOINT_FLOOR
        kvstore.CHECKPOINT_FLOOR = self.FLOOR

    @initialize(sync_writes=st.booleans())
    def open_stores(self, sync_writes):
        self.directory = tempfile.mkdtemp(prefix="keydir-")
        self.sync_writes = sync_writes
        self.durable = DurableKV(self.directory, sync_writes=sync_writes)
        self.memory = MemoryKV()
        self.in_transaction = False

    def teardown(self):
        kvstore.CHECKPOINT_FLOOR = self.floor
        if self.directory is not None:
            self.durable.close()
            shutil.rmtree(self.directory, ignore_errors=True)

    @rule(key=keys, value=values)
    def put(self, key, value):
        self.durable.put(key, value)
        self.memory.put(key, value)

    @rule(key=keys)
    def delete(self, key):
        assert self.durable.delete(key) == self.memory.delete(key)

    @rule(key=keys)
    def get(self, key):
        # outside a transaction with sync_writes off this reads a
        # buffered, unsynced record back through the file
        assert self.durable.get(key, "absent") == self.memory.get(key, "absent")
        assert (key in self.durable) == (key in self.memory)

    @rule(prefix=st.sampled_from(PREFIXES))
    def scan(self, prefix):
        assert list(self.durable.scan(prefix)) == list(self.memory.scan(prefix))
        assert self.durable.keys(prefix) == self.memory.keys(prefix)

    @precondition(lambda self: not self.in_transaction)
    @rule()
    def begin(self):
        self.durable.begin()
        self.memory.begin()
        self.in_transaction = True

    @precondition(lambda self: self.in_transaction)
    @rule(commit=st.booleans())
    def finish(self, commit):
        for store in (self.durable, self.memory):
            store.commit() if commit else store.rollback()
        self.in_transaction = False

    @precondition(lambda self: not self.in_transaction)
    @rule(key=keys, value=values, times=st.integers(2, 6))
    def rewrite_in_transactions(self, key, value, times):
        # the journal outgrows the live bytes: begin() checkpoints
        for n in range(times):
            for store in (self.durable, self.memory):
                with store.transaction():
                    store.put(key, [n, value])

    @rule()
    def snapshot(self):
        self.durable.snapshot()
        assert self.durable.journal_size == 0

    @rule()
    def sync(self):
        self.durable.sync()

    @precondition(lambda self: not self.in_transaction)
    @rule()
    def reopen(self):
        self.durable.close()
        self.durable = DurableKV(self.directory, sync_writes=self.sync_writes)

    @invariant()
    def same_visible_state(self):
        if self.directory is None:
            return
        assert len(self.durable) == len(self.memory)
        assert list(self.durable.scan()) == list(self.memory.scan())


KeydirAgainstMemory.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
TestKeydirAgainstMemory = KeydirAgainstMemory.TestCase


def test_checkpoints_fire_inside_transactional_runs(tmp_path, monkeypatch):
    """The differential run above relies on this: with the small floor a
    handful of transactions is enough for the store to checkpoint itself,
    with and without unsynced records pending."""
    monkeypatch.setattr(kvstore, "CHECKPOINT_FLOOR", SMALL_FLOOR)
    for sync_writes in (True, False):
        store = DurableKV(str(tmp_path / f"kv-{sync_writes}"), sync_writes=sync_writes)
        for n in range(40):
            with store.transaction():
                store.put(f"k{n % 5}", {"n": n, "pad": "x" * 30})
        assert store.checkpoints >= 3 and store.checkpoint_failures == 0
        assert store.get("k4") == {"n": 39, "pad": "x" * 30}
        store.close()


# ------------------------------------------------------------------- helpers


def fill(store, rounds=3):
    """A few committed transactions; returns the expected content."""
    model = {}
    for n in range(rounds * 4):
        with store.transaction():
            key = f"instance/{n % 6}"
            store.put(key, {"n": n, "text": "é" * (n % 5)})
            model[key] = {"n": n, "text": "é" * (n % 5)}
            if n % 4 == 3:
                store.put(f"jobs/{n}", [n])
                model[f"jobs/{n}"] = [n]
            if n % 5 == 4:
                store.delete("instance/0")
                model.pop("instance/0", None)
    return model


def content(directory):
    store = DurableKV(directory)
    try:
        return dict(store.scan())
    finally:
        store.close()


class Crash(BaseException):
    """The process dies here: nothing after this line runs."""


# -------------------------------------------------------------- crash windows


class TestCheckpointCrashWindows:
    def test_tmp_written_but_not_renamed(self, tmp_path, monkeypatch):
        directory = str(tmp_path / "kv")
        store = DurableKV(directory)
        model = fill(store)

        def crash(src, dst):
            raise Crash

        monkeypatch.setattr(os, "replace", crash)
        with pytest.raises(Crash):
            store.snapshot()
        monkeypatch.undo()
        assert os.path.exists(os.path.join(directory, "snapshot.bin.tmp"))
        assert content(directory) == model
        assert not os.path.exists(os.path.join(directory, "snapshot.bin.tmp"))
        assert not os.path.exists(os.path.join(directory, "snapshot.bin"))
        store.close()  # the dead process's descriptors

    def test_renamed_but_journal_not_reset(self, tmp_path, monkeypatch):
        directory = str(tmp_path / "kv")
        store = DurableKV(directory)
        fill(store, rounds=1)
        store.snapshot()  # an older snapshot for the newer one to replace
        model = fill(store)
        journal_bytes = store.journal_size

        def crash(journal):
            raise Crash

        monkeypatch.setattr(Journal, "reset", crash)
        with pytest.raises(Crash):
            store.snapshot()
        monkeypatch.undo()
        # the old journal replays over the newer snapshot: same state
        reopened = DurableKV(directory)
        assert reopened.journal_size == journal_bytes
        assert reopened.replayed_batches > 0
        assert dict(reopened.scan()) == model
        reopened.close()
        store.close()  # the dead process's descriptors

    def test_rename_is_durable_before_the_journal_is_erased(self, tmp_path, monkeypatch):
        """Power loss between the rename and the reset.  A rename is
        durable once its directory was fsynced; a truncation may reach the
        disk at any time.  Worst case: the truncation did, the rename only
        if it had been made durable."""
        directory = str(tmp_path / "kv")
        store = DurableKV(directory)
        fill(store, rounds=1)
        store.snapshot()
        model = fill(store)
        snapshot_path = os.path.join(directory, "snapshot.bin")
        journal_path = os.path.join(directory, "journal.log")
        shutil.copy(snapshot_path, str(tmp_path / "older-snapshot"))
        steps = []
        real_replace, real_fsync = os.replace, os.fsync

        def replace(src, dst):
            steps.append("rename")
            real_replace(src, dst)

        def fsync(fd):
            if stat.S_ISDIR(os.fstat(fd).st_mode):
                steps.append("fsync-directory")
            real_fsync(fd)

        def power_loss(journal):
            steps.append("reset")
            raise Crash

        monkeypatch.setattr(os, "replace", replace)
        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(Journal, "reset", power_loss)
        with pytest.raises(Crash):
            store.snapshot()
        monkeypatch.undo()
        if steps[:2] != ["rename", "fsync-directory"]:
            shutil.copy(str(tmp_path / "older-snapshot"), snapshot_path)
        os.truncate(journal_path, 0)
        assert content(directory) == model
        assert steps == ["rename", "fsync-directory", "reset"]
        store.close()  # the dead process's descriptors

    @pytest.mark.parametrize("failing", ["_copy_live_frames", "_fsync_directory"])
    def test_failed_checkpoint_is_counted_and_retried_a_floor_later(
        self, tmp_path, monkeypatch, failing
    ):
        monkeypatch.setattr(kvstore, "CHECKPOINT_FLOOR", SMALL_FLOOR)
        directory = str(tmp_path / "kv")
        store = DurableKV(directory)
        monkeypatch.setattr(kvstore, "CHECKPOINT_RATIO", 10**9)  # none while filling
        model = fill(store)
        monkeypatch.setattr(kvstore, "CHECKPOINT_RATIO", 2)

        def disk_full(*args):
            raise OSError(errno.ENOSPC, "no space left on device")

        if failing == "_copy_live_frames":
            monkeypatch.setattr(DurableKV, failing, disk_full)
        else:
            monkeypatch.setattr(kvstore, failing, disk_full)
        def touch():
            with store.transaction():
                store.put("after", 1)

        def touch_until_a_floor_past(size):
            while store.journal_size < size + SMALL_FLOOR:
                yield touch()

        size = store.journal_size
        assert size >= max(SMALL_FLOOR, 2 * store._live_bytes)
        touch()  # the checkpoint fails, the command does not
        model["after"] = 1
        assert (store.checkpoints, store.checkpoint_failures) == (0, 1)
        assert store.journal_size > size
        assert dict(store.scan()) == model
        assert not os.path.exists(os.path.join(directory, "snapshot.bin.tmp"))
        for _ in touch_until_a_floor_past(size):
            assert store.checkpoint_failures == 1  # not retried at once
        size = store.journal_size
        touch()
        assert store.checkpoint_failures == 2
        monkeypatch.undo()  # the disk has room again
        monkeypatch.setattr(kvstore, "CHECKPOINT_FLOOR", SMALL_FLOOR)
        for _ in touch_until_a_floor_past(size):
            assert store.checkpoints == 0
        touch()
        assert (store.checkpoints, store.checkpoint_failures) == (1, 2)
        assert store.journal_size < SMALL_FLOOR
        assert dict(store.scan()) == model
        store.close()
        assert content(directory) == model

    def test_close_does_not_checkpoint(self, tmp_path, monkeypatch):
        monkeypatch.setattr(kvstore, "CHECKPOINT_FLOOR", SMALL_FLOOR)
        directory = str(tmp_path / "kv")
        store = DurableKV(directory)
        for n in range(20):
            store.put("k", "x" * 100)  # plain puts never reach begin()
        assert store.journal_size > SMALL_FLOOR
        store.close()
        assert store.checkpoints == 0
        assert os.listdir(directory) == ["journal.log"]


# ------------------------------------------------------------ refused formats


class TestRefusedFiles:
    @pytest.fixture
    def snapshotted(self, tmp_path):
        directory = str(tmp_path / "kv")
        store = DurableKV(directory)
        fill(store)
        store.snapshot()
        store.close()
        return directory

    def test_truncated_snapshot_never_opens_shorter(self, snapshotted):
        path = os.path.join(snapshotted, "snapshot.bin")
        with open(path, "rb") as fh:
            whole = fh.read()
        for length in range(len(whole)):
            with open(path, "wb") as fh:
                fh.write(whole[:length])
            with pytest.raises(StorageError):
                DurableKV(snapshotted)

    def test_bit_flipped_snapshot_is_refused(self, snapshotted):
        path = os.path.join(snapshotted, "snapshot.bin")
        with open(path, "rb") as fh:
            whole = fh.read()
        for position in range(len(whole)):
            flipped = bytearray(whole)
            flipped[position] ^= 1 << (position % 8)
            with open(path, "wb") as fh:
                fh.write(flipped)
            with pytest.raises(StorageError):
                DurableKV(snapshotted)

    def test_json_image_snapshot_is_named_not_ignored(self, tmp_path):
        directory = tmp_path / "kv"
        directory.mkdir()
        (directory / "snapshot.json").write_bytes(json_encode({"k": 1}))
        with pytest.raises(StorageError, match=r"snapshot\.json"):
            DurableKV(str(directory))

    def test_json_array_batch_journal_is_named_not_replayed(self, tmp_path):
        directory = tmp_path / "kv"
        with Journal(str(directory / "journal.log")) as journal:
            journal.append(json_encode([["put", "k", {"v": 1}]]), sync=True)
        with pytest.raises(StorageError, match=r"journal\.log.*JSON-array"):
            DurableKV(str(directory))

    def test_reads_and_writes_after_close_raise(self, snapshotted):
        store = DurableKV(snapshotted)
        store.put("in-journal", 1)
        store.close()
        with pytest.raises(StorageError):
            store.get("in-journal")
        with pytest.raises(StorageError):
            store.get("instance/1")  # in the snapshot
        with pytest.raises(StorageError):
            list(store.scan())
        with pytest.raises(StorageError):
            store.put("k", 1)


# ---------------------------------------------------------------- the policy


def test_opening_decodes_no_value(tmp_path, monkeypatch):
    directory = str(tmp_path / "kv")
    store = DurableKV(directory)
    fill(store)
    store.snapshot()
    model = fill(store)
    store.close()
    decoded = []
    real = kvstore.json_decode

    def counting(payload):
        decoded.append(payload)
        return real(payload)

    monkeypatch.setattr(kvstore, "json_decode", counting)
    reopened = DurableKV(directory)
    assert reopened.replayed_batches > 0 and len(reopened) == len(model)
    assert sorted(reopened.keys()) == sorted(model)
    assert "instance/1" in reopened
    assert decoded == []
    assert reopened.get("instance/1") == model["instance/1"]
    assert len(decoded) == 1
    assert dict(reopened.scan()) == model
    assert len(decoded) == 1 + len(model)  # each live value once
    reopened.close()


def test_checkpoint_policy_bounds_the_journal_and_the_copying(tmp_path, monkeypatch):
    """At ``begin`` the journal is below ``max(floor, 2 x live bytes)``, so
    after the commit it is below that plus one batch; and a checkpoint
    copies at most half the journal bytes that triggered it (the file's
    magic and checksum aside)."""
    monkeypatch.setattr(kvstore, "CHECKPOINT_FLOOR", SMALL_FLOOR)
    rng = random.Random(24)
    store = DurableKV(str(tmp_path / "kv"), sync_writes=False)
    appended = 0
    for _ in range(600):
        store.begin()
        bound = max(SMALL_FLOOR, 2 * store._live_bytes)
        before = store.journal_size
        assert before < bound
        for _ in range(rng.randint(1, 5)):
            key = f"family-{rng.randint(0, 3)}/{rng.randint(0, 40)}"
            if rng.random() < 0.3:
                store.delete(key)
            else:
                store.put(key, "v" * rng.randint(0, 200))
        store.commit()
        batch = store.journal_size - before
        appended += batch
        assert store.journal_size < bound + batch
    assert store.checkpoints >= 3 and store.checkpoint_failures == 0
    overhead = 12 * store.checkpoints  # magic + checksum per file
    assert store.checkpoint_bytes - overhead <= appended / 2
    assert store.checkpoint_seconds > 0
    store.close()


# ------------------------------------------------------------- what is resident

BUDGET_KEYS = 2_000
BUDGET_BYTES_PER_KEY = 160


def resident_bytes_per_key(directory, value_bytes):
    """Traced bytes the store holds per key once its commits returned,
    beyond the key strings themselves."""
    value = {"blob": "x" * value_bytes}
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        store = DurableKV(directory, sync_writes=False)
        for n in range(0, 3 * BUDGET_KEYS, 4):  # rewritten twice: checkpoints
            with store.transaction():
                for k in range(n, n + 4):
                    store.put(f"instance/{k % BUDGET_KEYS:08d}", value)
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(store) == BUDGET_KEYS and store.checkpoints > 0
    key_strings = sum(sys.getsizeof(key) for key in store.keys())
    store.close()
    return (after - before - key_strings) / BUDGET_KEYS


def test_resident_bytes_per_key_do_not_depend_on_value_size(tmp_path):
    """No value object and no encoded value outlives its commit: a key
    costs its keydir entry, whether its value is 200 B or 4 KB."""
    small = resident_bytes_per_key(str(tmp_path / "small"), 200)
    large = resident_bytes_per_key(str(tmp_path / "large"), 4096)
    assert small <= BUDGET_BYTES_PER_KEY
    assert large <= BUDGET_BYTES_PER_KEY
    assert abs(large - small) <= 1.0
