"""The flight recorder: a bounded ring of recent spans and log records.

A long-lived service cannot keep every span forever, but when a chaos run
fails you want the *recent* timeline: what the last N requests were doing
across queue-wait, admission, planning, and journal fsync when things went
sideways.  :class:`FlightRecorder` is a :class:`~repro.telemetry.spans.Tracer`
whose events land in a fixed-capacity ring (oldest evicted first), next to
a second ring of structured log records; it counts what it dropped and
renders the surviving window as a chrome-trace JSON object that
``chrome://tracing`` / Perfetto load directly.  The span rows come from
the same converter as every other span stream
(:func:`~repro.telemetry.spans.spans_to_trace_events`: one row per trace
id, unmatched begins marked ``truncated``); log records follow as
``log.<level>`` instants on a ``logs`` row after every trace row.

Everything is stamped from one injectable
:data:`~repro.telemetry.clock.Clock` and guarded by a single lock: the
service's HTTP handler threads and worker threads all emit into the same
recorder.  An optional ``tee`` :class:`~repro.telemetry.spans.Tracer`
receives every span as well, which is how a traced chaos run exports the
*full* unbounded stream while the ring stays bounded.
"""

import collections
import dataclasses
import json
from typing import Deque, Dict, Optional, Tuple

from repro.telemetry.clock import Clock
from repro.telemetry.logs import LogRecord, render_logfmt
from repro.telemetry.spans import SpanEvent, Tracer, spans_to_trace_events

#: The recorder's one process row in its chrome trace.
_PID = 1


@dataclasses.dataclass(frozen=True)
class FlightSnapshot:
    """A consistent copy of the recorder's current window."""

    spans: Tuple[SpanEvent, ...]
    logs: Tuple[LogRecord, ...]
    dropped_spans: int
    dropped_logs: int


class FlightRecorder(Tracer):
    """A thread-safe :class:`Tracer` recording into a bounded ring, plus logs.

    :meth:`_emit` and :meth:`record` land in the ring (and the tee) under
    the base tracer's lock.  The inherited columns stay empty, so
    ``events`` is always ``()``: read the window through :meth:`snapshot`.
    """

    def __init__(
        self,
        capacity: int = 2048,
        clock: Optional[Clock] = None,
        tee: Optional[Tracer] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        super().__init__(clock)
        self.capacity = capacity
        self.tee = tee
        self._spans: Deque[SpanEvent] = collections.deque(maxlen=capacity)
        self._logs: Deque[LogRecord] = collections.deque(maxlen=capacity)
        self._span_total = 0
        self._log_total = 0

    # -- recording ---------------------------------------------------------

    def _emit(self, trace: str, name: str, phase: str, attrs: Dict[str, object]) -> None:
        with self._lock:
            self._keep(
                SpanEvent(trace_id=trace, name=name, phase=phase, t_s=self.clock(), attrs=attrs)
            )

    def record(self, event: SpanEvent) -> None:
        with self._lock:
            self._keep(event)

    def _keep(self, event: SpanEvent) -> None:
        """Ring and tee one event; the caller holds the lock."""
        self._spans.append(event)
        self._span_total += 1
        if self.tee is not None:
            self.tee.record(event)

    def record_log(self, record: LogRecord) -> None:
        """Sink for :class:`~repro.telemetry.logs.StructuredLogger`."""
        with self._lock:
            self._logs.append(record)
            self._log_total += 1

    # -- inspection --------------------------------------------------------

    def snapshot(self) -> FlightSnapshot:
        with self._lock:
            return FlightSnapshot(
                spans=tuple(self._spans),
                logs=tuple(self._logs),
                dropped_spans=self._span_total - len(self._spans),
                dropped_logs=self._log_total - len(self._logs),
            )

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self._logs.clear()
            self._span_total = 0
            self._log_total = 0

    # -- chrome-trace export -----------------------------------------------

    def to_chrome_trace(self) -> Dict[str, object]:
        """The current window as a chrome-trace JSON object.

        The span rows are :func:`spans_to_trace_events` of the snapshot;
        log records land as instants on a ``logs`` row after them, and
        ``otherData`` carries the window and drop counts.  Purely a
        function of the recorded events, so identical windows dump to
        identical bytes.
        """
        snap = self.snapshot()
        events = spans_to_trace_events(snap.spans, pid=_PID, process_name="flight recorder")
        if snap.logs:
            log_tid = len({event.trace_id for event in snap.spans})
            events.append(
                {"name": "thread_name", "ph": "M", "pid": _PID, "tid": log_tid,
                 "args": {"name": "logs"}}
            )
            events.extend(
                {"name": f"log.{record.level}", "ph": "i", "s": "t", "pid": _PID,
                 "tid": log_tid, "ts": int(record.t_s * 1_000_000),
                 "args": {"line": render_logfmt(record)}}
                for record in snap.logs
            )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "dropped_spans": snap.dropped_spans,
                "dropped_logs": snap.dropped_logs,
                "spans": len(snap.spans),
                "logs": len(snap.logs),
            },
        }

    def dump(self, path: str) -> str:
        """Write the chrome trace to ``path``; returns the path."""
        trace = self.to_chrome_trace()
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(trace, handle, sort_keys=True, separators=(",", ":"))
            handle.write("\n")
        return path
