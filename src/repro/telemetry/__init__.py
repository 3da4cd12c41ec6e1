"""repro.telemetry: deterministic, virtual-time-aware observability.

Three layers (see docs/observability.md):

1. A **metrics registry** -- counters, gauges, histograms with label sets,
   snapshot/diff support, and a swappable process-local default that all
   hot paths report into (:mod:`repro.telemetry.registry`).
2. **Per-sample spans** -- a trace context (``trace_id`` = sample id +
   epoch) threaded through the offload path, emitting structured events
   with virtual timestamps from an injectable clock
   (:mod:`repro.telemetry.spans`), plus the **decision audit log**
   explaining every sample's offload decision
   (:mod:`repro.telemetry.audit`).
3. **Exporters** -- Prometheus text exposition, a replayable JSONL event
   log (:mod:`repro.telemetry.exporters`), and the one chrome-trace span
   converter (:func:`~repro.telemetry.spans.spans_to_trace_events`), which
   the DES trace files (:mod:`repro.metrics.chrometrace`) and the
   service's :class:`~repro.telemetry.flight.FlightRecorder` both use.

The package is a leaf: it imports nothing from the rest of ``repro``, so
any subsystem may report into it without cycles.  It never reads wall
time -- every timestamp comes from an injected
:data:`~repro.telemetry.clock.Clock` (DET01-clean by construction).
"""

from repro.telemetry.audit import (
    NOT_BENEFICIAL,
    OFFLOADED,
    PLANNING_STOPPED,
    SKIPPED_WOULD_WORSEN,
    AuditLog,
    BudgetState,
    CandidateSplit,
    DecisionRecord,
)
from repro.telemetry.clock import Clock, LogicalClock, ManualClock
from repro.telemetry.exporters import (
    ReplayedTelemetry,
    read_jsonl,
    render_prometheus,
    replay_jsonl_lines,
    telemetry_jsonl_lines,
    write_jsonl,
)
from repro.telemetry.flight import FlightRecorder, FlightSnapshot
from repro.telemetry.logs import (
    LEVELS,
    LogRecord,
    StructuredLogger,
    render_json,
    render_logfmt,
)
from repro.telemetry.registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    HistogramValue,
    MetricError,
    MetricsRegistry,
    MetricsSnapshot,
    get_default_registry,
    set_default_registry,
    use_registry,
)
from repro.telemetry.slo import (
    Objective,
    ObjectiveResult,
    SloEvaluator,
    SloReport,
    latency_objective,
    percentile,
    rate_objective,
)
from repro.telemetry.spans import (
    BEGIN,
    END,
    INSTANT,
    TRACE_HEADER,
    SpanEvent,
    Tracer,
    encode_trace_header,
    parse_trace_header,
    parse_trace_id,
    trace_id,
)

__all__ = [
    "AuditLog",
    "BEGIN",
    "BudgetState",
    "CandidateSplit",
    "Clock",
    "Counter",
    "DEFAULT_BUCKETS",
    "DecisionRecord",
    "END",
    "FlightRecorder",
    "FlightSnapshot",
    "Gauge",
    "Histogram",
    "HistogramValue",
    "INSTANT",
    "LEVELS",
    "LogRecord",
    "LogicalClock",
    "ManualClock",
    "MetricError",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NOT_BENEFICIAL",
    "OFFLOADED",
    "Objective",
    "ObjectiveResult",
    "PLANNING_STOPPED",
    "ReplayedTelemetry",
    "SKIPPED_WOULD_WORSEN",
    "SloEvaluator",
    "SloReport",
    "SpanEvent",
    "StructuredLogger",
    "TRACE_HEADER",
    "Tracer",
    "encode_trace_header",
    "get_default_registry",
    "latency_objective",
    "parse_trace_header",
    "parse_trace_id",
    "percentile",
    "rate_objective",
    "read_jsonl",
    "render_json",
    "render_logfmt",
    "render_prometheus",
    "replay_jsonl_lines",
    "set_default_registry",
    "telemetry_jsonl_lines",
    "trace_id",
    "use_registry",
    "write_jsonl",
]
