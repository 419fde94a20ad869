"""repro.obs — the unified observability layer.

One facade, three parts:

* **spans** (:mod:`repro.obs.spans`) — a hierarchical runtime trace of what
  the engine is doing *right now* (engine → instance → node →
  service-call/storage-op), distinct from the durable XES history;
* **metrics** (:mod:`repro.obs.metrics`) — a registry of named counters,
  gauges, and fixed-bucket histograms; the engine's counters
  (``engine.instances_started``, ``engine.nodes_executed.<Type>``, ...)
  live there and nowhere else;
* **exporters** (:mod:`repro.obs.exporters`) — pluggable sinks for finished
  spans (in-memory ring buffer, JSON lines, console summary).

Typical wiring::

    from repro.obs import Observability, InMemorySpanExporter

    exporter = InMemorySpanExporter()
    obs = Observability(enabled=True, exporters=[exporter])
    engine = ProcessEngine(obs=obs)
    engine.deploy(model)
    engine.start_instance(model.key)
    print(exporter.render_tree())
    print(obs.registry.snapshot())

With ``enabled=False`` (the engine default) the span path is a shared
no-op — instrumented code stays in place at ~zero cost — while the metrics
registry keeps counting (it is what ``repro metrics`` dumps).
"""

from __future__ import annotations

from typing import Any

from repro.clock import Clock
from repro.obs.exporters import (
    ConsoleSummaryExporter,
    InMemorySpanExporter,
    JsonLinesSpanExporter,
    SpanExporter,
    load_spans_jsonl,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
)
from repro.obs.spans import NOOP_SPAN, Span, Tracer

__all__ = [
    "ConsoleSummaryExporter",
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "InMemorySpanExporter",
    "JsonLinesSpanExporter",
    "MetricError",
    "MetricsRegistry",
    "NOOP_SPAN",
    "Observability",
    "Span",
    "SpanExporter",
    "Tracer",
    "load_spans_jsonl",
]


class Observability:
    """Tracer + metrics registry + exporters, bundled for injection.

    Components that accept ``obs=`` (engine, invoker, worklist, stores)
    treat a ``None`` as "metrics only, spans off".
    """

    def __init__(
        self,
        enabled: bool = False,
        clock: Clock | None = None,
        exporters: list[Any] | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self._clock_pinned = clock is not None
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = Tracer(clock=clock, exporters=exporters, enabled=enabled)

    # -- convenience passthroughs ------------------------------------------

    @property
    def enabled(self) -> bool:
        """Whether the span path is live (metrics are always live)."""
        return self.tracer.enabled

    @enabled.setter
    def enabled(self, value: bool) -> None:
        self.tracer.enabled = bool(value)

    def bind_clock(self, clock: Clock) -> None:
        """Adopt a component's clock unless one was given explicitly."""
        if not self._clock_pinned:
            self.tracer.clock = clock
            self._clock_pinned = True

    def span(self, name: str, parent: Span | None = None, **attributes: Any):
        return self.tracer.span(name, parent=parent, **attributes)

    def event(self, name: str, parent: Span | None = None, **attributes: Any) -> None:
        self.tracer.event(name, parent=parent, **attributes)
