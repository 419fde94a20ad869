"""WriteSet: last-write-wins pending mutations, committed atomically."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.kvstore import MemoryKV
from repro.storage.writeset import Sequences, WriteSet

A, B = "a/", "b/"


class RecordingKV(MemoryKV):
    """MemoryKV that records every op and can fail commit or sync once."""

    def __init__(self):
        super().__init__()
        self.ops = []
        self.fail_commit = False
        self.fail_sync = False

    def put(self, key, value):
        self.ops.append(("put", key))
        super().put(key, value)

    def delete(self, key):
        self.ops.append(("del", key))
        return super().delete(key)

    def commit(self):
        if self.fail_commit:
            self.fail_commit = False
            self.rollback()
            raise OSError("commit failed")
        super().commit()

    def sync(self):
        if self.fail_sync:
            self.fail_sync = False
            raise OSError("sync failed")


class TestLastWriteWins:
    def test_put_after_delete_persists_and_delete_after_put_deletes(self):
        store = RecordingKV()
        store.put("a/x", 0)
        store.put("a/y", 0)
        store.ops.clear()
        writes = WriteSet((A,))
        writes.delete(A, "x")
        writes.put(A, "x", 1)  # re-added in the same window: the put wins
        writes.put(A, "y", 1)
        writes.delete(A, "y")  # removed after the add: the delete wins
        assert len(writes) == 2
        writes.commit(store)
        assert store.ops == [("put", "a/x"), ("del", "a/y")]
        assert dict(store.scan()) == {"a/x": 1}

    def test_callable_values_encode_at_commit_time(self):
        state = {"n": 1}
        writes = WriteSet((A,))
        writes.put(A, "x", lambda: dict(state))
        state["n"] = 2  # mutated after the put, before the commit
        store = MemoryKV()
        writes.commit(store)
        assert store.get("a/x") == {"n": 2}

    def test_discard_drops_a_put_that_never_reached_the_store(self):
        store = RecordingKV()
        writes = WriteSet((A,))
        writes.put(A, "x", 1)
        assert writes.discard(A, "x") is True
        assert len(writes) == 0
        writes.commit(store)
        assert store.ops == []  # no put, no delete: no store op at all
        # nothing pending for the key: the caller owes a real delete
        assert writes.discard(A, "x") is False

    def test_commit_order_is_families_then_sorted_ids_puts_before_deletes(self):
        store = RecordingKV()
        writes = WriteSet((B, A))
        writes.put(A, "2", 0)
        writes.delete(A, "0")
        writes.put(B, "9", 0)
        writes.put(A, "1", 0)
        writes.commit(store)
        assert store.ops == [
            ("put", "b/9"), ("put", "a/1"), ("put", "a/2"), ("del", "a/0"),
        ]

    def test_unknown_family_is_an_error(self):
        with pytest.raises(KeyError):
            WriteSet((A,)).put(B, "x", 1)


class TestPendingAccounting:
    def test_len_count_puts_and_has_pending(self):
        writes = WriteSet((A, B))
        assert len(writes) == 0 and not writes.has_pending()
        writes.put(A, "x", 1)
        writes.delete(B, "y")
        assert len(writes) == 2
        assert writes.count(A) == 1 and writes.count(B) == 1
        assert list(writes.puts(A)) == ["x"]
        assert writes.has_pending()
        # B's deletes are ignorable, A's put is not
        assert writes.has_pending(ignoring_deletes_of=B)
        writes.discard(A, "x")
        assert writes.has_pending()
        assert not writes.has_pending(ignoring_deletes_of=B)
        # ...but a *put* in the ignored family still counts
        writes.put(B, "z", 1)
        assert writes.has_pending(ignoring_deletes_of=B)


class TestFailedCommitKeepsEverything:
    @pytest.mark.parametrize("failure", ["fail_commit", "fail_sync"])
    def test_cleared_only_after_transaction_and_sync_succeed(self, failure):
        store = RecordingKV()
        store.put("a/old", 0)
        writes = WriteSet((A,))
        writes.put(A, "x", 1)
        writes.delete(A, "old")
        setattr(store, failure, True)
        with pytest.raises(OSError):
            writes.commit(store)
        assert len(writes) == 2  # intact: the next commit retries it all
        writes.commit(store)
        assert len(writes) == 0
        assert dict(store.scan()) == {"a/x": 1}


KEYS = st.tuples(st.sampled_from((A, B)), st.sampled_from("xyz"))
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), KEYS, st.integers(0, 9)),
        st.tuples(st.just("delete"), KEYS, st.none()),
        st.tuples(st.just("commit"), st.none(), st.none()),
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(OPS)
def test_store_equals_the_ops_applied_in_order(ops):
    """Any put/delete sequence, committed at arbitrary points, leaves the
    store equal to applying the same ops in order to a dict."""
    store = MemoryKV()
    writes = WriteSet((A, B))
    model = {}
    for op, key, value in ops:
        if op == "put":
            writes.put(*key, value)
            model["".join(key)] = value
        elif op == "delete":
            writes.delete(*key)
            model.pop("".join(key), None)
        else:
            writes.commit(store)
            assert dict(store.scan()) == model
    writes.commit(store)
    assert dict(store.scan()) == model
    assert len(writes) == 0


class TestSequences:
    def test_next_rewrites_the_record_and_load_never_goes_back(self):
        store = MemoryKV()
        writes = WriteSet(("engine/",))
        seqs = Sequences(writes, "engine/", "meta", ("a_seq", "b_seq"))
        assert seqs.next("a_seq") == 1
        assert seqs.next("a_seq") == 2
        assert len(writes) == 1  # one record however many ids were minted
        writes.commit(store)
        assert store.get("engine/meta") == {"a_seq": 2, "b_seq": 0}

        fresh = Sequences(WriteSet(("engine/",)), "engine/", "meta", ("a_seq", "b_seq"))
        fresh.raise_to("b_seq", 5)
        fresh.load(store)
        assert fresh.value("a_seq") == 2
        assert fresh.value("b_seq") == 5  # a stored 0 never lowers it
        assert fresh.next("a_seq") == 3
