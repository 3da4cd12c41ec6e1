"""Prometheus exposition edge cases: hostile labels, histogram round-trips."""

import math

from repro.telemetry.exporters import render_prometheus
from repro.telemetry.registry import MetricsRegistry

from tests.telemetry.prometheus import parse_prometheus


class TestLabelEscaping:
    def test_quotes_backslashes_and_newlines_round_trip(self):
        registry = MetricsRegistry()
        counter = registry.counter("edge_total", labels=["path"])
        hostile = [
            'plain"quote',
            "back\\slash",
            "new\nline",
            'all\\three\n"at once"',
            "trailing\\",
        ]
        for value in hostile:
            counter.inc(path=value)
        snapshot = registry.snapshot()
        assert parse_prometheus(render_prometheus(snapshot)) == snapshot

    def test_escaped_text_has_no_raw_newlines_inside_values(self):
        registry = MetricsRegistry()
        registry.counter("edge_total", labels=["p"]).inc(p="a\nb")
        text = render_prometheus(registry)
        sample_lines = [l for l in text.splitlines() if not l.startswith("#")]
        assert sample_lines == ['edge_total{p="a\\nb"} 1.0']

    def test_label_values_that_look_like_syntax(self):
        registry = MetricsRegistry()
        counter = registry.counter("edge_total", labels=["expr"])
        for value in ['x="1"', "a{b}c 2", 'm{l="v"} 3']:
            counter.inc(expr=value)
        snapshot = registry.snapshot()
        assert parse_prometheus(render_prometheus(snapshot)) == snapshot


class TestHistogramRoundTrip:
    def test_observations_survive_render_and_parse(self):
        registry = MetricsRegistry()
        hist = registry.histogram(
            "lat_seconds", labels=["op"], buckets=[0.1, 1.0, 10.0]
        )
        for value in [0.05, 0.5, 5.0, 50.0]:
            hist.observe(value, op="plan")
        hist.observe(0.2, op="release")
        snapshot = registry.snapshot()
        assert parse_prometheus(render_prometheus(snapshot)) == snapshot

    def test_rendered_histogram_has_inf_bucket_sum_and_count(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat_seconds", buckets=[1.0])
        hist.observe(0.5)
        hist.observe(2.0)
        text = render_prometheus(registry)
        assert 'lat_seconds_bucket{le="1.0"} 1' in text
        assert 'lat_seconds_bucket{le="+Inf"} 2' in text
        assert "lat_seconds_count 2" in text
        assert "lat_seconds_sum 2.5" in text

    def test_default_bucket_histogram_round_trips(self):
        registry = MetricsRegistry()
        hist = registry.histogram("rpc_seconds")
        for exponent in range(-4, 4):
            hist.observe(math.pow(10.0, exponent))
        snapshot = registry.snapshot()
        assert parse_prometheus(render_prometheus(snapshot)) == snapshot

    def test_mixed_kinds_round_trip_together(self):
        registry = MetricsRegistry()
        registry.counter("req_total", labels=["code"]).inc(3, code="200")
        registry.gauge("depth").set(7.0)
        registry.histogram("lat_seconds", buckets=[0.5]).observe(0.25)
        snapshot = registry.snapshot()
        assert parse_prometheus(render_prometheus(snapshot)) == snapshot
