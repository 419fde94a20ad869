"""Tests for the KV backends: interface contract, transactions, durability."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.errors import StorageError, TransactionError
from repro.storage.kvstore import DurableKV, MemoryKV

#: keys in several families, nested ``/``s, and keys with no ``/`` at all
family_keys = st.sampled_from(
    ["a", "ab", "a/1", "a/10", "a/2", "ab/1", "b/x/1", "b/x/", "b/", "x", "/", "//k"]
)


@pytest.fixture(params=["memory", "durable"])
def store(request, tmp_path):
    if request.param == "memory":
        yield MemoryKV()
    else:
        durable = DurableKV(str(tmp_path / "kv"))
        yield durable
        durable.close()


class TestContract:
    def test_get_put_delete(self, store):
        assert store.get("k") is None
        assert store.get("k", 7) == 7
        store.put("k", {"n": 1})
        assert store.get("k") == {"n": 1}
        assert store.delete("k") is True
        assert store.delete("k") is False
        assert store.get("k") is None

    def test_contains_and_len(self, store):
        store.put("a", 1)
        store.put("b", 2)
        assert "a" in store
        assert "z" not in store
        assert len(store) == 2

    def test_scan_by_prefix_sorted(self, store):
        store.put("instance/2", "b")
        store.put("instance/1", "a")
        store.put("definition/x", "c")
        assert store.keys("instance/") == ["instance/1", "instance/2"]
        assert [v for _, v in store.scan("instance/")] == ["a", "b"]

    def test_empty_key_rejected(self, store):
        with pytest.raises(StorageError):
            store.put("", 1)

    def test_overwrite(self, store):
        store.put("k", 1)
        store.put("k", 2)
        assert store.get("k") == 2


class TestTransactions:
    def test_commit_applies_all(self, store):
        with store.transaction():
            store.put("a", 1)
            store.put("b", 2)
        assert store.get("a") == 1
        assert store.get("b") == 2

    def test_rollback_on_exception(self, store):
        with pytest.raises(RuntimeError):
            with store.transaction():
                store.put("a", 1)
                raise RuntimeError("boom")
        assert store.get("a") is None

    def test_point_reads_see_committed_state(self, store):
        """Inside begin() … commit(), get, in and len answer from committed
        state; pending writes are visible only once committed."""

        def reads():
            return (
                store.get("x/1"),
                store.get("x/2"),
                "x/1" in store,
                "x/2" in store,
                len(store),
            )

        store.put("x/1", 1)
        old = (1, None, True, False, 1)
        new = (None, 2, False, True, 1)
        for finish, after in ((store.rollback, old), (store.commit, new)):
            store.begin()
            store.put("x/2", 2)
            store.delete("x/1")
            assert reads() == old
            finish()
            assert reads() == after

    def test_scan_sees_committed_state(self, store):
        """Inside begin() … commit(), scan and keys answer from committed
        state; pending writes are visible only once committed."""

        def reads():
            return list(store.scan("x/")), store.keys("x/")

        store.put("x/1", 1)
        old = ([("x/1", 1)], ["x/1"])
        new = ([("x/2", 2)], ["x/2"])
        for finish, after in ((store.rollback, old), (store.commit, new)):
            store.begin()
            store.put("x/2", 2)
            store.delete("x/1")
            assert reads() == old
            finish()
            assert reads() == after

    def test_nested_begin_rejected(self, store):
        store.begin()
        with pytest.raises(TransactionError):
            store.begin()
        store.rollback()

    def test_commit_without_begin_rejected(self, store):
        with pytest.raises(TransactionError):
            store.commit()

    def test_rollback_without_begin_rejected(self, store):
        with pytest.raises(TransactionError):
            store.rollback()

    def test_delete_inside_transaction_reports_existence(self, store):
        store.put("present", 1)
        with store.transaction():
            assert store.delete("present") is True
            store.put("fresh", 2)
            # committed state answers: the pending put is not there yet
            assert store.delete("fresh") is False


class TestDurability:
    def test_reopen_recovers_state(self, tmp_path):
        path = str(tmp_path / "kv")
        store = DurableKV(path)
        store.put("a", {"v": 1})
        store.put("b", [1, 2, 3])
        store.delete("a")
        store.close()

        reopened = DurableKV(path)
        assert reopened.get("a") is None
        assert reopened.get("b") == [1, 2, 3]
        assert reopened.replayed_batches == 3
        reopened.close()

    def test_transaction_is_atomic_across_reopen(self, tmp_path):
        path = str(tmp_path / "kv")
        store = DurableKV(path)
        with store.transaction():
            store.put("x", 1)
            store.put("y", 2)
        store.close()
        reopened = DurableKV(path)
        assert reopened.replayed_batches == 1  # one batch record
        assert reopened.get("x") == 1 and reopened.get("y") == 2
        reopened.close()

    def test_snapshot_compacts_journal(self, tmp_path):
        path = str(tmp_path / "kv")
        store = DurableKV(path)
        for i in range(20):
            store.put(f"k{i}", i)
        before = store.journal_size
        store.snapshot()
        assert store.journal_size == 0
        assert before > 0
        store.close()

        reopened = DurableKV(path)
        assert reopened.replayed_batches == 0
        assert reopened.get("k7") == 7
        reopened.close()

    def test_writes_after_snapshot_survive(self, tmp_path):
        path = str(tmp_path / "kv")
        store = DurableKV(path)
        store.put("old", 1)
        store.snapshot()
        store.put("new", 2)
        store.close()
        reopened = DurableKV(path)
        assert reopened.get("old") == 1
        assert reopened.get("new") == 2
        reopened.close()

    def test_unsynced_writes_survive_close(self, tmp_path):
        path = str(tmp_path / "kv")
        store = DurableKV(path, sync_writes=False)
        store.put("k", "v")
        store.close()  # close flushes
        reopened = DurableKV(path)
        assert reopened.get("k") == "v"
        reopened.close()

    def test_non_json_value_rejected(self, tmp_path):
        store = DurableKV(str(tmp_path / "kv"))
        with pytest.raises(StorageError):
            store.put("k", object())
        store.close()


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["put", "delete"]),
                st.sampled_from(["a", "b", "c", "d"]),
                st.integers(),
            ),
            max_size=30,
        )
    )
    def test_durable_matches_memory_model(self, tmp_path_factory, ops):
        path = str(tmp_path_factory.mktemp("kv") / "store")
        durable = DurableKV(path, sync_writes=False)
        model = {}
        for op, key, value in ops:
            if op == "put":
                durable.put(key, value)
                model[key] = value
            else:
                durable.delete(key)
                model.pop(key, None)
        durable.close()
        reopened = DurableKV(path)
        assert dict(reopened.scan()) == model
        reopened.close()

    @settings(max_examples=60, deadline=None)
    @given(
        committed=st.lists(st.tuples(family_keys, st.integers()), max_size=25),
        buffered=st.lists(
            st.tuples(st.sampled_from(["put", "delete"]), family_keys, st.integers()),
            max_size=10,
        ),
        open_transaction=st.booleans(),
        prefix=st.sampled_from(
            ["", "a", "a/", "a/1", "ab/", "b/", "b/x/", "x", "z/", "/", "//"]
        ),
    )
    def test_scan_and_keys_equal_the_naive_filter(
        self, tmp_path_factory, committed, buffered, open_transaction, prefix
    ):
        """Family-bucketed scans return what filtering every committed key
        would, in the same order, with and without an open transaction."""
        durable = DurableKV(str(tmp_path_factory.mktemp("kv") / "store"))
        stores = (MemoryKV(), durable)
        model = {}

        def check():
            naive = sorted((k, v) for k, v in model.items() if k.startswith(prefix))
            for store in stores:
                assert list(store.scan(prefix)) == naive
                assert store.keys(prefix) == [k for k, _ in naive]
                assert len(store) == len(model)

        for key, value in committed:
            for store in stores:
                store.put(key, value)
            model[key] = value
        if open_transaction:
            for store in stores:
                store.begin()
            for op, key, value in buffered:
                for store in stores:
                    store.put(key, value) if op == "put" else store.delete(key)
            check()  # the buffered writes are not visible yet
            for store in stores:
                store.commit()
            for op, key, value in buffered:
                if op == "put":
                    model[key] = value
                else:
                    model.pop(key, None)
        check()
        durable.close()
