"""Exporters: Prometheus text exposition and the JSONL event log.

Both formats are *round-trippable* by design: the Prometheus text parses
back into an equal :class:`~repro.telemetry.registry.MetricsSnapshot` (the
parser is a test oracle, ``tests/telemetry/prometheus.py``), and a JSONL
log replays into a registry/tracer/audit-log triple whose state
matches what was exported.  Round-tripping is what the determinism gate
leans on -- identical seeds must produce byte-identical JSONL files, and
byte-identical files must replay to equal state.

Chrome-trace rendering of spans lives in :mod:`repro.telemetry.spans`
(:func:`~repro.telemetry.spans.spans_to_trace_events`); the batch-timeline
rows and the trace-file writers are in :mod:`repro.metrics.chrometrace`.
"""

import dataclasses
import json
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.telemetry.audit import AuditLog
from repro.telemetry.registry import (
    HistogramValue,
    MetricsRegistry,
    MetricsSnapshot,
    SeriesValue,
)
from repro.telemetry.spans import SpanEvent, Tracer

#: Schema version stamped into every JSONL log.
JSONL_VERSION = 1


# -- Prometheus text exposition ---------------------------------------------

def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(labels: Sequence[Tuple[str, str]]) -> str:
    if not labels:
        return ""
    body = ",".join(f'{name}="{_escape_label(value)}"' for name, value in labels)
    return "{" + body + "}"


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    return repr(float(value))


def render_prometheus(source: Union[MetricsRegistry, MetricsSnapshot]) -> str:
    """Prometheus text exposition of a registry or snapshot."""
    snapshot = source.snapshot() if isinstance(source, MetricsRegistry) else source
    by_name: Dict[str, List[Tuple[Tuple[Tuple[str, str], ...], SeriesValue]]] = {}
    for (name, labels), value in snapshot.series.items():
        by_name.setdefault(name, []).append((labels, value))
    lines: List[str] = []
    for name in sorted(by_name):
        kind = snapshot.kinds[name]
        lines.append(f"# TYPE {name} {kind}")
        for labels, value in sorted(by_name[name]):
            if isinstance(value, HistogramValue):
                cumulative = 0
                for bound, count in zip(value.buckets, value.bucket_counts):
                    cumulative += count
                    le = (*labels, ("le", _format_value(bound)))
                    lines.append(
                        f"{name}_bucket{_format_labels(le)} {cumulative}"
                    )
                cumulative += value.bucket_counts[-1]
                inf_labels = (*labels, ("le", "+Inf"))
                lines.append(
                    f"{name}_bucket{_format_labels(inf_labels)} {cumulative}"
                )
                lines.append(
                    f"{name}_sum{_format_labels(labels)} {_format_value(value.sum)}"
                )
                lines.append(f"{name}_count{_format_labels(labels)} {value.count}")
            else:
                lines.append(
                    f"{name}{_format_labels(labels)} {_format_value(value)}"
                )
    return "\n".join(lines) + ("\n" if lines else "")


# -- JSONL event log --------------------------------------------------------

def _dump(obj: Mapping[str, object]) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _encode_float(value: float) -> object:
    if value == float("inf"):
        return "inf"
    if value == float("-inf"):
        return "-inf"
    return value


def _decode_float(value: object) -> float:
    if isinstance(value, str):
        return float(value)
    assert isinstance(value, (int, float))
    return float(value)


def metric_jsonl_lines(snapshot: MetricsSnapshot) -> List[str]:
    lines: List[str] = []
    for (name, labels), value in sorted(snapshot.series.items()):
        entry: Dict[str, object] = {
            "kind": "metric",
            "metric": name,
            "type": snapshot.kinds[name],
            "labels": dict(labels),
        }
        if isinstance(value, HistogramValue):
            entry.update(
                buckets=list(value.buckets),
                bucket_counts=list(value.bucket_counts),
                sum=_encode_float(value.sum),
                count=value.count,
            )
        else:
            entry["value"] = _encode_float(value)
        lines.append(_dump(entry))
    return lines


def span_jsonl_lines(events: Iterable[SpanEvent]) -> List[str]:
    return [
        _dump(
            {
                "kind": "span",
                "trace": event.trace_id,
                "name": event.name,
                "phase": event.phase,
                "t_s": _encode_float(event.t_s),
                "attrs": {k: event.attrs[k] for k in sorted(event.attrs)},
            }
        )
        for event in events
    ]


def audit_jsonl_lines(audit: AuditLog) -> List[str]:
    return [_dump({"kind": "audit", **entry}) for entry in audit.to_dicts()]


def telemetry_jsonl_lines(
    registry: Optional[Union[MetricsRegistry, MetricsSnapshot]] = None,
    tracer: Optional[Tracer] = None,
    audit: Optional[AuditLog] = None,
) -> List[str]:
    """The full JSONL document: header, metrics, spans, audit records."""
    lines = [_dump({"kind": "header", "format": "repro-telemetry", "version": JSONL_VERSION})]
    if registry is not None:
        snapshot = (
            registry.snapshot() if isinstance(registry, MetricsRegistry) else registry
        )
        lines.extend(metric_jsonl_lines(snapshot))
    if tracer is not None:
        lines.extend(span_jsonl_lines(tracer.events))
    if audit is not None:
        lines.extend(audit_jsonl_lines(audit))
    return lines


def write_jsonl(
    path: str,
    registry: Optional[Union[MetricsRegistry, MetricsSnapshot]] = None,
    tracer: Optional[Tracer] = None,
    audit: Optional[AuditLog] = None,
) -> None:
    """Write a telemetry JSONL log; bytes are deterministic per content."""
    lines = telemetry_jsonl_lines(registry=registry, tracer=tracer, audit=audit)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


@dataclasses.dataclass
class ReplayedTelemetry:
    """What :func:`replay_jsonl_lines` reconstructs from a log."""

    registry: MetricsRegistry
    tracer: Tracer
    audit: AuditLog


def replay_jsonl_lines(lines: Iterable[str]) -> ReplayedTelemetry:
    """Rebuild registry/tracer/audit state from an exported JSONL log.

    The reconstructed registry's snapshot equals the exported one; span
    events come back in order with identical timestamps and attrs.
    """
    registry = MetricsRegistry()
    tracer = Tracer()
    audit_entries: List[Dict[str, object]] = []
    for raw in lines:
        line = raw.strip()
        if not line:
            continue
        entry = json.loads(line)
        kind = entry["kind"]
        if kind == "header":
            if entry.get("version") != JSONL_VERSION:
                raise ValueError(
                    f"unsupported telemetry log version {entry.get('version')!r}"
                )
        elif kind == "metric":
            _replay_metric(registry, entry)
        elif kind == "span":
            tracer.record(
                SpanEvent(
                    trace_id=entry["trace"],
                    name=entry["name"],
                    phase=entry["phase"],
                    t_s=_decode_float(entry["t_s"]),
                    attrs=dict(entry["attrs"]),
                )
            )
        elif kind == "audit":
            audit_entries.append({k: v for k, v in entry.items() if k != "kind"})
        else:
            raise ValueError(f"unknown telemetry record kind {kind!r}")
    return ReplayedTelemetry(
        registry=registry,
        tracer=tracer,
        audit=AuditLog.from_dicts(audit_entries),
    )


def _replay_metric(registry: MetricsRegistry, entry: Mapping[str, object]) -> None:
    name = str(entry["metric"])
    labels = dict(entry["labels"])  # type: ignore[arg-type]
    label_names = sorted(labels)
    mtype = entry["type"]
    if mtype == "counter":
        registry.counter(name, labels=label_names).inc(
            _decode_float(entry["value"]), **labels
        )
    elif mtype == "gauge":
        registry.gauge(name, labels=label_names).set(
            _decode_float(entry["value"]), **labels
        )
    elif mtype == "histogram":
        histogram = registry.histogram(
            name, labels=label_names, buckets=[float(b) for b in entry["buckets"]]  # type: ignore[union-attr]
        )
        histogram.restore(
            HistogramValue(
                buckets=tuple(float(b) for b in entry["buckets"]),  # type: ignore[union-attr]
                bucket_counts=tuple(int(c) for c in entry["bucket_counts"]),  # type: ignore[union-attr]
                sum=_decode_float(entry["sum"]),
                count=int(entry["count"]),  # type: ignore[arg-type]
            ),
            **labels,
        )
    else:
        raise ValueError(f"unknown metric type {mtype!r}")


def read_jsonl(path: str) -> ReplayedTelemetry:
    with open(path, "r", encoding="utf-8") as handle:
        return replay_jsonl_lines(handle)
