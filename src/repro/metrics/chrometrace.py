"""Export epoch timelines as Chrome trace-event JSON.

Load the output in ``chrome://tracing`` (or Perfetto) to see each batch's
input-pipeline and GPU phases on a timeline -- the visual version of the
stall breakdown.  Uses the Trace Event "X" (complete event) records, with
one row for the input pipeline and one for the GPU.

Per-sample telemetry spans (``run_epoch(record_spans=True)``) render
alongside the batch rows through the one span converter,
:func:`repro.telemetry.spans.spans_to_trace_events` (re-exported here):
each trace id (sample or batch) gets its own thread row in a second
"samples" process, begin/end pairs become nested complete events, and
instants (demotions, corruption, breaker transitions) become trace-event
instants on the same row.  The conventions (integer microseconds, 0-based
tids, truncated spans) are documented in :mod:`repro.telemetry.spans`.

Runs render through :func:`write_chrome_trace`, one record per epoch:
each epoch's timeline and spans land in their own process rows, and two
summary processes group the same spans by their ``shard`` and ``job``
labels (:func:`repro.telemetry.spans.grouped_span_rows`) -- one row per
storage shard, one per tenant -- so a contended shared link reads at a
glance in Perfetto.
"""

import dataclasses
import json
from typing import Dict, List, Optional, Sequence

from repro.metrics.timeline import Timeline
from repro.telemetry.spans import SpanEvent, grouped_span_rows, spans_to_trace_events

_MICRO = 1_000_000  # trace events use microseconds

_PIPELINE_TID = 0
_GPU_TID = 1


def timeline_to_trace_events(
    timeline: Timeline, job: str = "train", pid: int = 0
) -> List[Dict]:
    """Per-batch complete events: input-pipeline span + GPU span.

    The input span for batch i runs from the previous batch's ready time
    to batch i's ready time (approximating continuous pipeline work); the
    GPU span is exact.  ``pid`` picks the process row (multi-epoch traces
    give each epoch's timeline its own).
    """
    timeline.validate()
    events: List[Dict] = [
        {"name": "process_name", "ph": "M", "pid": pid,
         "args": {"name": f"{job} (virtual time)"}},
        {"name": "thread_name", "ph": "M", "pid": pid, "tid": _PIPELINE_TID,
         "args": {"name": "input pipeline"}},
        {"name": "thread_name", "ph": "M", "pid": pid, "tid": _GPU_TID,
         "args": {"name": "gpu"}},
    ]
    previous_ready = 0.0
    for trace in timeline.batches:
        events.append(
            {
                "name": f"batch {trace.index} input",
                "ph": "X",
                "pid": pid,
                "tid": _PIPELINE_TID,
                "ts": int(previous_ready * _MICRO),
                "dur": max(0, int((trace.ready_at - previous_ready) * _MICRO)),
            }
        )
        events.append(
            {
                "name": f"batch {trace.index} gpu",
                "ph": "X",
                "pid": pid,
                "tid": _GPU_TID,
                "ts": int(trace.gpu_start * _MICRO),
                "dur": max(0, int(trace.gpu_time_s * _MICRO)),
            }
        )
        previous_ready = trace.ready_at
    return events


@dataclasses.dataclass(frozen=True)
class EpochTraceRecord:
    """One epoch's telemetry, ready for the combined multi-epoch trace."""

    epoch: int
    spans: Sequence[SpanEvent] = ()
    timeline: Optional[Timeline] = None
    #: Optional display label ("epoch 3 (replanned)"); defaults to "epoch N".
    label: str = ""

    @property
    def display_label(self) -> str:
        return self.label or f"epoch {self.epoch}"


def combined_trace_events(
    records: Sequence[EpochTraceRecord], job: str = "train"
) -> List[Dict]:
    """The multi-epoch document: per-epoch rows + shard and tenant groups.

    Every epoch's batch timeline and per-sample spans get their own
    process rows (pid assigned in record order, deterministic).  After
    the epochs come up to two summary processes: one thread per storage
    ``shard`` label and one per tenant ``job`` label, aggregated over
    every epoch's spans; either is omitted when no span carries the
    label.
    """
    events: List[Dict] = []
    pid = 0
    all_spans: List[SpanEvent] = []
    for record in records:
        label = record.display_label
        if record.timeline is not None:
            events.extend(
                timeline_to_trace_events(record.timeline, job=f"{job} {label}", pid=pid)
            )
            pid += 1
        if record.spans:
            events.extend(
                spans_to_trace_events(
                    record.spans,
                    pid=pid,
                    process_name=f"{label} samples (virtual time)",
                )
            )
            pid += 1
            all_spans.extend(record.spans)
    shard_rows = grouped_span_rows(all_spans, "shard", pid, "shards (virtual time)")
    if shard_rows:
        events.extend(shard_rows)
        pid += 1
    tenant_rows = grouped_span_rows(all_spans, "job", pid, "tenants (virtual time)")
    if tenant_rows:
        events.extend(tenant_rows)
        pid += 1
    return events


def write_chrome_trace(
    path: str, records: Sequence[EpochTraceRecord], job: str = "train"
) -> None:
    """Write a ``chrome://tracing``-loadable JSON file of *records*.

    A single epoch is one record.  Bytes are deterministic per content.
    """
    document = {"traceEvents": combined_trace_events(records, job=job)}
    with open(path, "w") as handle:
        json.dump(document, handle, sort_keys=True)
