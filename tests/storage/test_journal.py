"""Tests for the append-only journal, including crash injection."""

import os
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.errors import CorruptRecordError, StorageError
from repro.storage.journal import Journal


@pytest.fixture
def journal_path(tmp_path):
    return str(tmp_path / "test.log")


class TestAppendReplay:
    def test_roundtrip_single_record(self, journal_path):
        with Journal(journal_path) as journal:
            journal.append(b"hello", sync=True)
        with Journal(journal_path) as journal:
            records = list(journal.recover())
        assert [r.payload for r in records] == [b"hello"]

    def test_roundtrip_many_records_in_order(self, journal_path):
        payloads = [f"record-{i}".encode() for i in range(50)]
        with Journal(journal_path) as journal:
            for payload in payloads:
                journal.append(payload)
            journal.sync()
        with Journal(journal_path) as journal:
            assert [r.payload for r in journal.recover()] == payloads

    def test_offsets_are_monotonic(self, journal_path):
        with Journal(journal_path) as journal:
            offsets = [journal.append(b"x" * i, sync=False) for i in range(1, 5)]
            journal.sync()
        assert offsets == sorted(offsets)
        with Journal(journal_path) as journal:
            assert [r.offset for r in journal.recover()] == offsets

    def test_empty_payload_roundtrips(self, journal_path):
        with Journal(journal_path) as journal:
            journal.append(b"", sync=True)
        with Journal(journal_path) as journal:
            assert [r.payload for r in journal.recover()] == [b""]

    def test_append_after_close_raises(self, journal_path):
        journal = Journal(journal_path)
        journal.close()
        with pytest.raises(StorageError):
            journal.append(b"x")
        with pytest.raises(StorageError):
            journal.sync()

    def test_pending_counter(self, journal_path):
        with Journal(journal_path) as journal:
            journal.append(b"a")
            journal.append(b"b")
            assert journal.pending_records == 2
            journal.sync()
            assert journal.pending_records == 0

    def test_reopen_appends_after_existing(self, journal_path):
        with Journal(journal_path) as journal:
            journal.append(b"first", sync=True)
        with Journal(journal_path) as journal:
            journal.append(b"second", sync=True)
            assert [r.payload for r in journal.recover()] == [b"first", b"second"]


class TestSizeReporting:
    def test_size_while_open_tracks_appends(self, journal_path):
        with Journal(journal_path) as journal:
            assert journal.size == 0
            journal.append(b"abc", sync=True)
            assert journal.size == 8 + 3  # header + payload

    def test_size_after_close_reads_file(self, journal_path):
        journal = Journal(journal_path)
        journal.append(b"abc", sync=True)
        journal.close()
        assert journal.size == 11

    def test_size_after_close_and_delete_returns_last_known(self, journal_path):
        """Regression: this used to raise FileNotFoundError."""
        journal = Journal(journal_path)
        journal.append(b"abc", sync=True)
        journal.close()
        os.remove(journal_path)
        assert journal.size == 11


class TestSyncDefaults:
    """append is the buffered primitive: it leaves the record pending
    until sync() or an append with sync=True."""

    def test_append_default_is_buffered(self, journal_path):
        with Journal(journal_path) as journal:
            journal.append(b"a")
            assert journal.pending_records == 1


class TestCrashSafety:
    def _write_then_tear(self, path, keep_bytes_off_end):
        with Journal(path) as journal:
            journal.append(b"good-one", sync=True)
            journal.append(b"good-two", sync=True)
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.truncate(size - keep_bytes_off_end)

    def test_torn_body_truncated_on_open(self, journal_path):
        self._write_then_tear(journal_path, keep_bytes_off_end=3)
        with Journal(journal_path) as journal:
            records = [r.payload for r in journal.recover()]
        assert records == [b"good-one"]

    def test_torn_header_truncated_on_open(self, journal_path):
        with Journal(journal_path) as journal:
            journal.append(b"good", sync=True)
        with open(journal_path, "ab") as fh:
            fh.write(b"\x05\x00")  # half a header
        with Journal(journal_path) as journal:
            assert [r.payload for r in journal.recover()] == [b"good"]

    def test_append_after_tear_recovers_cleanly(self, journal_path):
        self._write_then_tear(journal_path, keep_bytes_off_end=3)
        with Journal(journal_path) as journal:
            journal.append(b"after-crash", sync=True)
            assert [r.payload for r in journal.recover()] == [b"good-one", b"after-crash"]

    def test_mid_log_corruption_raises(self, journal_path):
        with Journal(journal_path) as journal:
            journal.append(b"aaaa", sync=True)
            journal.append(b"bbbb", sync=True)
        # flip a payload byte of the FIRST record (offset 8 = after header)
        with open(journal_path, "r+b") as fh:
            fh.seek(8)
            fh.write(b"Z")
        journal = Journal(journal_path, auto_recover=False)
        with pytest.raises(CorruptRecordError):
            list(journal.recover())
        journal.close()

    def test_corrupt_tail_record_treated_as_torn(self, journal_path):
        with Journal(journal_path) as journal:
            journal.append(b"aaaa", sync=True)
            journal.append(b"bbbb", sync=True)
        size = os.path.getsize(journal_path)
        with open(journal_path, "r+b") as fh:
            fh.seek(size - 1)
            fh.write(b"Z")
        journal = Journal(journal_path, auto_recover=False)
        assert [r.payload for r in journal.recover()] == [b"aaaa"]
        journal.close()

    def test_reset_erases_contents(self, journal_path):
        with Journal(journal_path) as journal:
            journal.append(b"soon-gone", sync=True)
            journal.reset()
            journal.append(b"fresh", sync=True)
            assert [r.payload for r in journal.recover()] == [b"fresh"]


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.binary(max_size=200), max_size=20))
    def test_any_payload_sequence_roundtrips(self, tmp_path_factory, payloads):
        path = str(tmp_path_factory.mktemp("journal") / "prop.log")
        with Journal(path) as journal:
            for payload in payloads:
                journal.append(payload)
            journal.sync()
        with Journal(path) as journal:
            assert [r.payload for r in journal.recover()] == payloads

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.binary(min_size=1, max_size=50), min_size=1, max_size=10),
           st.integers(min_value=1, max_value=8))
    def test_torn_tail_never_loses_synced_prefix(
        self, tmp_path_factory, payloads, tear
    ):
        path = str(tmp_path_factory.mktemp("journal") / "tear.log")
        with Journal(path) as journal:
            for payload in payloads:
                journal.append(payload, sync=True)
        size = os.path.getsize(path)
        cut = min(tear, size)
        with open(path, "r+b") as fh:
            fh.truncate(size - cut)
        with Journal(path) as journal:
            recovered = [r.payload for r in journal.recover()]
        # the torn tail may cost the last record, never more
        assert recovered == payloads[: len(recovered)]
        assert len(recovered) >= len(payloads) - 1


class TestTornTailSurfacing:
    """Recovery must be *observable*: offsets, byte counts, counters,
    events — never a silent truncation."""

    def _tear(self, path, cut):
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.truncate(size - cut)

    def test_clean_log_reports_nothing(self, journal_path):
        with Journal(journal_path) as journal:
            journal.append(b"fine", sync=True)
        with Journal(journal_path) as journal:
            list(journal.recover())
            assert journal.recovered_bytes == 0
            assert journal.torn_tail_offset is None

    def test_recovery_on_open_reports_bytes_cut(self, journal_path):
        with Journal(journal_path) as journal:
            journal.append(b"good", sync=True)
            journal.append(b"torn", sync=True)
        self._tear(journal_path, cut=2)
        with Journal(journal_path) as journal:
            assert journal.recovered_bytes == struct.calcsize("<II") + 4 - 2
            assert [r.payload for r in journal.recover()] == [b"good"]
            # a scan of the repaired file is clean
            assert journal.torn_tail_offset is None

    def test_replay_reports_torn_tail_offset(self, journal_path):
        with Journal(journal_path) as journal:
            journal.append(b"good", sync=True)
            good_end = journal.size
            journal.append(b"torn", sync=True)
        self._tear(journal_path, cut=2)
        journal = Journal(journal_path, auto_recover=False)
        assert [r.payload for r in journal.recover()] == [b"good"]
        assert journal.torn_tail_offset == good_end
        # a later clean scan resets the marker
        assert [r.payload for r in journal.recover()] == [b"good"]
        assert journal.torn_tail_offset is None
        journal.close()

    def test_recovery_increments_counter_and_emits_event(self, journal_path):
        from repro.obs import InMemorySpanExporter, Observability

        with Journal(journal_path) as journal:
            journal.append(b"good", sync=True)
            journal.append(b"torn", sync=True)
        self._tear(journal_path, cut=1)
        exporter = InMemorySpanExporter()
        obs = Observability(enabled=True, exporters=[exporter])
        with Journal(journal_path, obs=obs) as journal:
            assert journal.recovered_bytes > 0
        assert obs.registry.counter("storage.journal.torn_tails").value == 1
        (event,) = exporter.by_name("journal.recovered")
        assert event.attributes["recovered_bytes"] == journal.recovered_bytes
        assert event.attributes["path"] == journal_path

    def test_replay_tear_increments_counter_and_emits_event(self, journal_path):
        from repro.obs import InMemorySpanExporter, Observability

        with Journal(journal_path) as journal:
            journal.append(b"good", sync=True)
            journal.append(b"torn", sync=True)
        self._tear(journal_path, cut=1)
        exporter = InMemorySpanExporter()
        obs = Observability(enabled=True, exporters=[exporter])
        journal = Journal(journal_path, auto_recover=False, obs=obs)
        list(journal.recover())
        assert obs.registry.counter("storage.journal.torn_tails").value == 1
        (event,) = exporter.by_name("journal.recovered")
        assert event.attributes["truncated_to"] == journal.torn_tail_offset
        journal.close()

    def test_obs_journal_times_appends_and_syncs(self, journal_path):
        from repro.obs import Observability

        obs = Observability()
        with Journal(journal_path, obs=obs) as journal:
            journal.append(b"x", sync=True)
            journal.append(b"y", sync=False)
            journal.sync()
        registry = obs.registry
        assert registry.histogram("storage.journal.append_seconds").count == 2
        assert registry.histogram("storage.journal.sync_seconds").count == 2


class TestOnePassOpen:
    """recover() reads and repairs in one pass; read() is positional."""

    def _torn(self, path):
        with Journal(path) as journal:
            journal.append(b"good-one", sync=True)
            journal.append(b"good-two", sync=True)
            good_end = journal.size
            journal.append(b"torn", sync=True)
        with open(path, "r+b") as fh:
            fh.truncate(good_end + 5)
        return good_end

    def test_recover_yields_the_records_and_cuts_the_tail(self, journal_path):
        good_end = self._torn(journal_path)
        journal = Journal(journal_path, auto_recover=False)
        assert journal.size == good_end + 5  # nothing scanned yet
        assert [r.payload for r in journal.recover()] == [b"good-one", b"good-two"]
        assert journal.recovered_bytes == 5
        assert journal.torn_tail_offset == good_end
        assert journal.size == os.path.getsize(journal_path) == good_end
        offset = journal.append(b"after", sync=True)
        assert offset == good_end
        assert [r.payload for r in journal.recover()][-1] == b"after"
        journal.close()

    def test_recover_checks_every_byte_once(self, journal_path, monkeypatch):
        import zlib

        from repro.storage import journal as journal_module

        self._torn(journal_path)
        checked = []
        real_crc32 = zlib.crc32

        def crc32(data, *start):
            checked.append(len(data))
            return real_crc32(data, *start)

        monkeypatch.setattr(journal_module.zlib, "crc32", crc32)
        journal = Journal(journal_path, auto_recover=False)
        list(journal.recover())
        journal.close()
        assert checked == [len(b"good-one"), len(b"good-two")]

    def test_corruption_before_the_tail_raises_at_open(self, journal_path):
        with Journal(journal_path) as journal:
            journal.append(b"aaaa", sync=True)
            journal.append(b"bbbb", sync=True)
        size = os.path.getsize(journal_path)
        with open(journal_path, "r+b") as fh:
            fh.seek(8)
            fh.write(b"Z")
        with pytest.raises(CorruptRecordError):
            Journal(journal_path)
        assert os.path.getsize(journal_path) == size  # nothing was cut

    def test_read_is_positional_and_sees_buffered_records(self, journal_path):
        from repro.storage.journal import HEADER_SIZE

        with Journal(journal_path) as journal:
            first = journal.append(b"synced-record", sync=True)
            second = journal.append(b"buffered-record")  # not flushed yet
            assert journal.read(second + HEADER_SIZE, 8) == b"buffered"
            assert journal.read(first + HEADER_SIZE + 7, 6) == b"record"
            assert journal.pending_records == 1  # reading does not fsync
            third = journal.append(b"x")
            assert journal.read(third + HEADER_SIZE, 1) == b"x"
            journal.reset()
            fresh = journal.append(b"fresh")
            assert fresh == 0 and journal.read(HEADER_SIZE, 5) == b"fresh"
        with pytest.raises(StorageError):
            journal.read(0, 1)
