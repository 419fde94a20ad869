"""The benchmark's own tracing: spans around calls into a layer, and a
counting store wrapper.

Everything here is wired from outside the program — ``store_factory``,
``services.register`` and the driver's own call sites — so the traced run
executes the same ``src/`` code as the untraced one.  Spans stay in memory
(one list per thread, no lock on the hot path) and are written out when
the run ends.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from typing import Any, Iterator

from repro.storage.kvstore import KeyValueStore

#: one recorded span: (id, parent id or 0, name, start, end, case id)
SpanRow = tuple[int, int, str, float, float, Any]


class _Span:
    __slots__ = ("_recorder", "_name", "_case", "_id", "_parent", "_start")

    def __init__(self, recorder: "SpanRecorder", name: str, case: Any) -> None:
        self._recorder = recorder
        self._name = name
        self._case = case

    def __enter__(self) -> "_Span":
        stack = self._recorder._stack()
        self._id = next(self._recorder._ids)
        if stack:
            self._parent, parent_case = stack[-1]
            if self._case is None:
                self._case = parent_case
        else:
            self._parent = 0
        stack.append((self._id, self._case))
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        end = time.perf_counter()
        local = self._recorder._local
        local.stack.pop()
        local.rows.append(
            (self._id, self._parent, self._name, self._start, end, self._case)
        )


class SpanRecorder:
    """Records nested spans per thread; a span's parent is the span open
    on the same thread when it started, and it inherits that span's case."""

    def __init__(self) -> None:
        self._ids = itertools.count(1)  # next() is atomic under the GIL
        self._local = threading.local()
        self._lock = threading.Lock()
        self._per_thread: list[list[SpanRow]] = []

    def _stack(self) -> list[tuple[int, Any]]:
        local = self._local
        try:
            return local.stack
        except AttributeError:
            local.stack = []
            local.rows = []
            with self._lock:
                self._per_thread.append(local.rows)
            return local.stack

    def span(self, name: str, case: Any = None) -> _Span:
        return _Span(self, name, case)

    def rows(self) -> list[SpanRow]:
        """Every finished span, in start order."""
        with self._lock:
            merged = [row for rows in self._per_thread for row in rows]
        merged.sort(key=lambda row: row[3])
        return merged

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                [
                    {
                        "id": span_id,
                        "parent": parent,
                        "name": name,
                        "start": start,
                        "end": end,
                        "case": case,
                    }
                    for span_id, parent, name, start, end, case in self.rows()
                ],
                handle,
            )


def own_times(rows: list[SpanRow]) -> dict[int, float]:
    """``{span id: self seconds}``: a span's duration minus its direct
    children's.  Children run nested on the parent's thread, so they
    never overlap each other."""
    own = {span_id: end - start for span_id, _, _, start, end, _ in rows}
    for _, parent, _, start, end, _ in rows:
        if parent in own:
            own[parent] -= end - start
    return own


class TracingKV(KeyValueStore):
    """Delegates to any store; counts puts, deletes, commits and journal
    bytes, times every commit, and keeps the first ``capture`` committed
    batches for the isolated storage replays.

    A write outside a transaction is its own commit, as it is in the
    wrapped store.  Used under the owning shard's dispatch lock, like the
    store it wraps, so the counters need no lock of their own.
    """

    def __init__(
        self,
        inner: KeyValueStore,
        recorder: SpanRecorder | None = None,
        capture: int = 0,
    ) -> None:
        self.inner = inner
        self._recorder = recorder
        self._capture = capture
        self._open: list[tuple[str, str, Any]] | None = None
        self.puts = 0
        self.deletes = 0
        self.commits = 0
        self.commit_seconds = 0.0
        self.journal_bytes = 0
        self.batches: list[list[tuple[str, str, Any]]] = []

    # -- reads ----------------------------------------------------------------

    def get(self, key: str, default: Any = None) -> Any:
        return self.inner.get(key, default)

    def scan(self, prefix: str = "") -> Iterator[tuple[str, Any]]:
        return self.inner.scan(prefix)

    @property
    def journal_size(self) -> int:
        """WAL length of the wrapped store (0 for a volatile one)."""
        return getattr(self.inner, "journal_size", 0)

    @property
    def replayed_batches(self) -> int:
        return getattr(self.inner, "replayed_batches", 0)

    # -- writes ---------------------------------------------------------------

    def _timed(self, name: str, call, *args: Any) -> Any:
        before = self.journal_size
        started = time.perf_counter()
        if self._recorder is None:
            result = call(*args)
        else:
            with self._recorder.span(name):
                result = call(*args)
        self.commit_seconds += time.perf_counter() - started
        self.journal_bytes += self.journal_size - before
        return result

    def _note(self, op: tuple[str, str, Any]) -> None:
        if op[0] == "put":
            self.puts += 1
        else:
            self.deletes += 1
        if self._open is not None:
            self._open.append(op)
        else:
            self._committed([op])

    def _committed(self, ops: list[tuple[str, str, Any]]) -> None:
        self.commits += 1
        if len(self.batches) < self._capture:
            self.batches.append(ops)

    def put(self, key: str, value: Any) -> None:
        self._note(("put", key, value))
        if self._open is not None:
            self.inner.put(key, value)
        else:
            self._timed("storage.commit", self.inner.put, key, value)

    def delete(self, key: str) -> bool:
        self._note(("del", key, None))
        if self._open is not None:
            return self.inner.delete(key)
        return self._timed("storage.commit", self.inner.delete, key)

    def begin(self) -> None:
        self.inner.begin()
        self._open = []

    def commit(self) -> None:
        ops, self._open = self._open, None
        self._timed("storage.commit", self.inner.commit)
        if ops:
            self._committed(ops)

    def rollback(self) -> None:
        self._open = None
        self.inner.rollback()

    def sync(self) -> None:
        self._timed("storage.sync", self.inner.sync)

    def close(self) -> None:
        self.inner.close()
