"""Hierarchical runtime spans.

A :class:`Span` is one timed unit of engine work — an instance run, a node
execution, a service call, a storage sync — with a parent link, so finished
spans form a tree: engine → instance → node → service-call/storage-op.
Spans are the *runtime* trace (volatile, sampled, for performance work); the
durable XES history in :mod:`repro.history` remains the audit/mining record.
The two are deliberately distinct representations of execution.

Timestamps come from a :class:`repro.clock.Clock`, so spans carry wall time
in production and simulated time under a ``VirtualClock`` — node spans of a
simulation measure *model* latency, not interpreter latency.

The :class:`Tracer` has a hard no-op path: when ``enabled`` is false,
``span()`` hands back a shared do-nothing context manager and allocates
nothing, so instrumented code can stay in place at ~zero cost (the
end-to-end benchmark's ``trace_overhead_ratio`` row compares traced and
untraced throughput).
"""

from __future__ import annotations

import itertools
from typing import Any, Iterator

from repro.clock import Clock, WallClock

#: span status values
STATUS_UNSET = "unset"
STATUS_OK = "ok"
STATUS_ERROR = "error"


class Span:
    """One timed, attributed unit of work in the span tree."""

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "trace_id",
        "start",
        "end",
        "status",
        "attributes",
        "_tracer",
    )

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: int | None,
        trace_id: int,
        start: float,
        tracer: "Tracer | None" = None,
        attributes: dict[str, Any] | None = None,
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.trace_id = trace_id
        self.start = start
        self.end: float | None = None
        self.status = STATUS_UNSET
        self.attributes = attributes if attributes is not None else {}
        self._tracer = tracer

    # -- recording ----------------------------------------------------------

    def set(self, **attributes: Any) -> "Span":
        """Attach attributes; returns self for chaining."""
        self.attributes.update(attributes)
        return self

    def finish(self, status: str = STATUS_OK) -> None:
        """End the span (idempotent) and hand it to the exporters."""
        if self.end is not None:
            return
        tracer = self._tracer
        if tracer is not None:
            self.end = tracer._now()
            if self.status == STATUS_UNSET:
                self.status = status
            tracer._on_finish(self)

    # -- scoping ------------------------------------------------------------
    # a Span is its own context manager (no wrapper allocation on the
    # enabled span path of the hot loop)

    def __enter__(self) -> "Span":
        tracer = self._tracer
        if tracer is not None:
            tracer._stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        # finish() inlined: this exit runs once per executed node
        tracer = self._tracer
        if tracer is not None:
            stack = tracer._stack
            if stack and stack[-1] is self:
                stack.pop()
            if self.end is None:
                self.end = tracer._now()
                if self.status == STATUS_UNSET:
                    self.status = STATUS_ERROR if exc_type is not None else STATUS_OK
                for exporter in tracer.exporters:
                    exporter.export(self)
        return False

    # -- reading ------------------------------------------------------------

    @property
    def duration(self) -> float | None:
        """Seconds from start to end; ``None`` while still open."""
        if self.end is None:
            return None
        return self.end - self.start

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe representation (exporters and the CLI use this)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": self.trace_id,
            "start": self.start,
            "end": self.end,
            "status": self.status,
            "attributes": dict(self.attributes),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, id={self.span_id}, parent={self.parent_id}, "
            f"status={self.status!r}, duration={self.duration})"
        )


class _NoopSpan:
    """Shared do-nothing span used on the disabled path."""

    __slots__ = ()
    name = ""
    span_id = -1
    parent_id = None
    trace_id = -1
    start = 0.0
    end = None
    status = STATUS_UNSET
    attributes: dict[str, Any] = {}
    duration = None

    def set(self, **attributes: Any) -> "_NoopSpan":
        return self

    def finish(self, status: str = STATUS_OK) -> None:
        return None

    def to_dict(self) -> dict[str, Any]:
        return {}

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NOOP_SPAN = _NoopSpan()




class Tracer:
    """Produces spans and routes finished ones to exporters.

    Single-threaded by design (like the engine): nesting is tracked with a
    plain stack, so ``with tracer.span(...)`` blocks parent naturally and
    cross-call spans (an instance waiting on a timer) take explicit parents.
    """

    def __init__(
        self,
        clock: Clock | None = None,
        exporters: list[Any] | None = None,
        enabled: bool = True,
    ) -> None:
        self.clock = clock if clock is not None else WallClock()
        self.exporters = list(exporters or [])
        self.enabled = enabled
        self._ids = itertools.count(1)
        self._stack: list[Span] = []

    @property
    def clock(self) -> Clock:
        return self._clock

    @clock.setter
    def clock(self, value: Clock) -> None:
        # cache the bound method: span start/finish call it constantly
        self._clock = value
        self._now = value.now

    # -- span creation ------------------------------------------------------

    def current(self) -> Span | None:
        """The innermost active scoped span, if any."""
        return self._stack[-1] if self._stack else None

    def span(self, name: str, parent: Span | None = None, **attributes: Any) -> Span:
        """Create a span: use as a context manager (scoped) or end it
        yourself via :meth:`Span.finish` (detached).

        ``parent=None`` means "the current scoped span" — pass an explicit
        span to parent elsewhere in the tree.  Entering pushes the span
        onto the scope stack; on a disabled tracer this is the shared
        no-op span.  The constructor is inlined — this runs once per node
        execution.
        """
        if not self.enabled:
            return NOOP_SPAN  # type: ignore[return-value]
        if parent is None:
            stack = self._stack
            parent = stack[-1] if stack else None
        span = Span.__new__(Span)
        span.name = name
        span_id = span.span_id = next(self._ids)
        if parent is None:
            span.parent_id = None
            span.trace_id = span_id
        else:
            span.parent_id = parent.span_id
            span.trace_id = parent.trace_id
        span.start = self._now()
        span.end = None
        span.status = STATUS_UNSET
        span.attributes = attributes
        span._tracer = self
        return span

    #: legacy-named alias: spans are detached until entered as a CM
    start_span = span

    def event(self, name: str, parent: Span | None = None, **attributes: Any) -> None:
        """A zero-duration span marking a point-in-time occurrence."""
        if not self.enabled:
            return
        self.start_span(name, parent=parent, **attributes).finish()

    # -- plumbing -----------------------------------------------------------

    def _on_finish(self, span: Span) -> None:
        for exporter in self.exporters:
            exporter.export(span)

    def add_exporter(self, exporter: Any) -> None:
        """Attach another exporter (receives spans finished from now on)."""
        self.exporters.append(exporter)

    def flush(self) -> None:
        """Flush every attached exporter."""
        for exporter in self.exporters:
            flush = getattr(exporter, "flush", None)
            if flush is not None:
                flush()

    def open_spans(self) -> Iterator[Span]:
        """Currently active scoped spans, outermost first (diagnostics)."""
        return iter(self._stack)
