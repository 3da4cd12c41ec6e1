"""Exporter round-trips: Prometheus parse-back and JSONL replay."""

import pytest

from repro.telemetry.audit import AuditLog, CandidateSplit, DecisionRecord
from repro.telemetry.clock import ManualClock
from repro.telemetry.exporters import (
    read_jsonl,
    render_prometheus,
    replay_jsonl_lines,
    telemetry_jsonl_lines,
    write_jsonl,
)
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.spans import Tracer

from tests.telemetry.prometheus import parse_prometheus


def populated_registry():
    registry = MetricsRegistry()
    registry.counter("rpc_fetches_total", labels=["result"]).inc(7, result="ok")
    registry.counter("rpc_fetches_total", labels=["result"]).inc(2, result="error")
    registry.gauge("queue_depth").set(3.5)
    hist = registry.histogram("fetch_seconds", buckets=[0.01, 0.1, 1.0])
    for value in (0.005, 0.05, 0.05, 0.5, 9.0):
        hist.observe(value)
    registry.counter("odd_labels_total", labels=["path"]).inc(
        path='a"quoted\\path\nwith newline'
    )
    return registry


def populated_tracer():
    clock = ManualClock()
    tracer = Tracer(clock=clock)
    tracer.begin("s0-e1", "sample.fetch", split=2)
    clock.advance(0.25)
    tracer.instant("s0-e1", "rpc.retry", attempt=1, backoff_s=0.1)
    clock.advance(0.25)
    tracer.end("s0-e1", "sample.fetch", wire_bytes=4096)
    return tracer


def populated_audit():
    log = AuditLog()
    log.add(
        DecisionRecord(
            sample_id=0,
            candidates=(
                CandidateSplit(split=0, size_bytes=100, prefix_cpu_s=0.0, savings_bytes=0),
                CandidateSplit(split=1, size_bytes=40, prefix_cpu_s=0.0, savings_bytes=60),
            ),
            chosen_split=1,
            best_split=1,
            efficiency=float("inf"),
            efficiency_rank=1,
            outcome="offloaded",
            reason="free prefix",
        )
    )
    return log


class TestPrometheusRoundTrip:
    def test_parse_back_equals_snapshot(self):
        registry = populated_registry()
        text = render_prometheus(registry)
        assert parse_prometheus(text) == registry.snapshot()

    def test_histogram_exposition_shape(self):
        text = render_prometheus(populated_registry())
        assert "# TYPE fetch_seconds histogram" in text
        assert 'fetch_seconds_bucket{le="+Inf"} 5' in text
        assert "fetch_seconds_count 5" in text

    def test_label_escaping_round_trips(self):
        registry = populated_registry()
        snapshot = parse_prometheus(render_prometheus(registry))
        value = snapshot.value(
            "odd_labels_total", path='a"quoted\\path\nwith newline'
        )
        assert value == 1.0

    def test_unparseable_line_raises(self):
        with pytest.raises(ValueError):
            parse_prometheus("!!! not exposition\n")


class TestJsonlRoundTrip:
    def test_replay_reconstructs_everything(self):
        registry = populated_registry()
        tracer = populated_tracer()
        audit = populated_audit()
        lines = telemetry_jsonl_lines(registry=registry, tracer=tracer, audit=audit)
        replayed = replay_jsonl_lines(lines)
        assert replayed.registry.snapshot() == registry.snapshot()
        assert replayed.tracer.events == tracer.events
        assert replayed.audit.to_dicts() == audit.to_dicts()

    def test_replayed_log_reexports_identically(self):
        lines = telemetry_jsonl_lines(
            registry=populated_registry(),
            tracer=populated_tracer(),
            audit=populated_audit(),
        )
        replayed = replay_jsonl_lines(lines)
        again = telemetry_jsonl_lines(
            registry=replayed.registry, tracer=replayed.tracer, audit=replayed.audit
        )
        assert again == lines

    def test_write_and_read_files(self, tmp_path):
        path = tmp_path / "run.telemetry.jsonl"
        write_jsonl(str(path), registry=populated_registry(), tracer=populated_tracer())
        replayed = read_jsonl(str(path))
        assert replayed.registry.snapshot() == populated_registry().snapshot()
        assert len(replayed.tracer.events) == 3

    def test_identical_content_writes_identical_bytes(self, tmp_path):
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for path in paths:
            write_jsonl(
                str(path),
                registry=populated_registry(),
                tracer=populated_tracer(),
                audit=populated_audit(),
            )
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_unknown_version_rejected(self):
        with pytest.raises(ValueError):
            replay_jsonl_lines(['{"kind":"header","version":99}'])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            replay_jsonl_lines(['{"kind":"mystery"}'])
