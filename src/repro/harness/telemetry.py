"""Telemetry artifact emission for the experiment harnesses.

The harnesses (chaos, fig1/fig3/fig4, CLI) produce three artifact kinds
per run, all deterministic byte-for-byte for a fixed seed:

* ``<name>.telemetry.jsonl`` -- the replayable event log (metrics
  snapshot, per-sample spans, decision audit records).
* ``<name>.trace.json`` -- a ``chrome://tracing``-loadable rendering of
  the batch timeline and per-sample spans.
* ``<name>.metrics.prom`` -- Prometheus text exposition of a registry.

This module owns the filenames and the folding of harness-level results
(:class:`~repro.cluster.trainer.EpochStats`) into registry gauges, so
every harness emits the same artifact tree.
"""

import os
from typing import List, Optional, Sequence, Tuple, Union

from repro.cluster.trainer import EpochStats
from repro.metrics.chrometrace import EpochTraceRecord, write_chrome_trace
from repro.telemetry.audit import AuditLog
from repro.telemetry.exporters import render_prometheus, write_jsonl
from repro.telemetry.registry import (
    MetricsRegistry,
    MetricsSnapshot,
    get_default_registry,
)
from repro.telemetry.spans import Tracer


def record_epoch_stats(
    stats: EpochStats,
    run: str,
    registry: Optional[MetricsRegistry] = None,
) -> None:
    """Fold one epoch's headline numbers into ``harness_*`` gauges.

    ``run`` labels the series (a scenario or policy name), so one registry
    can hold a whole comparison side by side.
    """
    reg = registry if registry is not None else get_default_registry()
    reg.gauge(
        "harness_epoch_time_seconds", "measured epoch time", labels=["run"]
    ).set(stats.epoch_time_s, run=run)
    reg.gauge(
        "harness_traffic_bytes", "bytes crossing the inter-cluster link",
        labels=["run"],
    ).set(float(stats.traffic_bytes), run=run)
    reg.gauge(
        "harness_offloaded_samples", "samples served with split > 0",
        labels=["run"],
    ).set(float(stats.offloaded_samples), run=run)
    reg.gauge(
        "harness_gpu_utilization", "GPU busy fraction over the epoch",
        labels=["run"],
    ).set(stats.gpu_utilization, run=run)
    reg.counter(
        "harness_epochs_total", "epochs measured by a harness", labels=["run"]
    ).inc(run=run)


def emit_artifacts(
    out_dir: str,
    name: str,
    per_epoch: Sequence[Tuple[int, EpochStats]] = (),
    registry: Optional[Union[MetricsRegistry, MetricsSnapshot]] = None,
    audit: Optional[AuditLog] = None,
) -> List[str]:
    """Write the artifact set for one named run; returns the paths written.

    ``per_epoch`` is the ``instrumented_epochs()`` shape of
    :class:`~repro.harness.adaptive.AdaptiveRunResult`; a single epoch is
    ``[(epoch, stats)]``.  Epochs that recorded neither spans nor a timeline
    are skipped.  What gets written depends on what is passed:

    * ``<name>.trace.json`` -- the chrome trace: per-epoch rows plus
      shard/tenant summary rows (see
      :func:`repro.metrics.chrometrace.write_chrome_trace`).
    * ``<name>.telemetry.jsonl`` -- every epoch's spans in one replayable
      log (``trace_id(sample, epoch)`` keeps epochs apart), plus the
      optional metrics snapshot and decision audit.
    * ``<name>.metrics.prom`` -- when a registry is given.
    """
    os.makedirs(out_dir, exist_ok=True)
    records = [
        EpochTraceRecord(
            epoch=epoch,
            spans=stats.spans.events if stats.spans is not None else (),
            timeline=stats.timeline,
        )
        for epoch, stats in per_epoch
        if stats.spans is not None or stats.timeline is not None
    ]
    merged = Tracer()
    for record in records:
        for event in record.spans:
            merged.record(event)

    paths: List[str] = []
    if merged.events or registry is not None or audit is not None:
        jsonl_path = os.path.join(out_dir, f"{name}.telemetry.jsonl")
        write_jsonl(
            jsonl_path,
            registry=registry,
            tracer=merged if merged.events else None,
            audit=audit,
        )
        paths.append(jsonl_path)
    if records:
        trace_path = os.path.join(out_dir, f"{name}.trace.json")
        write_chrome_trace(trace_path, records, job=name)
        paths.append(trace_path)
    if registry is not None:
        prom_path = os.path.join(out_dir, f"{name}.metrics.prom")
        with open(prom_path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(render_prometheus(registry))
        paths.append(prom_path)
    return paths
