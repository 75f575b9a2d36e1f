"""`repro.obs` — unified, zero-dependency telemetry.

Three pieces, each usable alone:

* :mod:`repro.obs.registry` — numbers: a process-wide
  :class:`MetricsRegistry` of counters/gauges/latency histograms with
  labeled families, snapshot/diff, and Prometheus text exposition;
* :mod:`repro.obs.spans` — intervals: bounded :class:`Telemetry` span
  buffers over two clocks (simulated time inside the engine, wall time
  everywhere else) with correlation ids that survive process pools;
* :mod:`repro.obs.perfetto` — rendering: stream spans + per-job trace
  timelines to Chrome trace-event JSON for ``ui.perfetto.dev``.

Entry points around the repo: ``Session.with_telemetry(...)``, the
``repro trace`` CLI verb, ``--trace`` on ``repro bench sched`` /
``repro sweep``, and ``GET /metrics`` + ``GET /v1/jobs/{id}/telemetry``
on ``repro serve``.
"""

# Import order: registry and spans are dependency-free; perfetto
# reaches back into repro.metrics.trace (lazily), so it comes last.
from repro.obs.registry import (
    DEFAULT_BUCKETS,
    DEFAULT_FIRST_BOUND,
    DEFAULT_GROWTH,
    Counter,
    Gauge,
    LatencyHistogram,
    MetricFamily,
    MetricsRegistry,
    default_registry,
    parse_prometheus,
    publish_sched_stats,
    publish_store_stats,
)
from repro.obs.spans import (
    CLOCK_SIM,
    CLOCK_WALL,
    DEFAULT_MAX_SPANS,
    Span,
    Telemetry,
    TelemetryConfig,
)
from repro.obs.perfetto import (
    PerfettoTraceWriter,
    export_perfetto,
    spans_from_trace,
    validate_trace_file,
)

__all__ = [
    "CLOCK_SIM",
    "CLOCK_WALL",
    "Counter",
    "DEFAULT_BUCKETS",
    "DEFAULT_FIRST_BOUND",
    "DEFAULT_GROWTH",
    "DEFAULT_MAX_SPANS",
    "Gauge",
    "LatencyHistogram",
    "MetricFamily",
    "MetricsRegistry",
    "PerfettoTraceWriter",
    "Span",
    "Telemetry",
    "TelemetryConfig",
    "default_registry",
    "export_perfetto",
    "parse_prometheus",
    "publish_sched_stats",
    "publish_store_stats",
    "spans_from_trace",
    "validate_trace_file",
]
