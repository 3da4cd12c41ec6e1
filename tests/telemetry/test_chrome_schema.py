"""Chrome-trace rendering of spans: pairing, schema, determinism."""

import json

from repro.metrics.chrometrace import (
    EpochTraceRecord,
    spans_to_trace_events,
    write_chrome_trace,
)
from repro.telemetry.clock import ManualClock
from repro.telemetry.spans import Tracer

#: Keys chrome://tracing requires per event phase.
REQUIRED = {"X": {"name", "ph", "pid", "tid", "ts", "dur"},
            "i": {"name", "ph", "pid", "tid", "ts", "s"},
            "M": {"name", "ph", "pid"}}


def traced_sample():
    clock = ManualClock()
    tracer = Tracer(clock=clock)
    tracer.begin("s1-e1", "sample.fetch", split=2)
    clock.advance(0.001)
    tracer.begin("s1-e1", "storage.prefix")
    clock.advance(0.010)
    tracer.end("s1-e1", "storage.prefix", cpu_s=0.01)
    tracer.instant("s1-e1", "cache.miss")
    clock.advance(0.004)
    tracer.end("s1-e1", "sample.fetch", wire_bytes=2048)
    tracer.instant("s2-e1", "degraded.demote", reason="breaker-open")
    return tracer


class TestSpansToTraceEvents:
    def test_every_event_satisfies_the_schema(self):
        events = spans_to_trace_events(traced_sample().events)
        for event in events:
            assert REQUIRED[event["ph"]] <= set(event), event

    def test_begin_end_pairs_become_complete_events(self):
        events = spans_to_trace_events(traced_sample().events)
        fetch = next(e for e in events if e["name"] == "sample.fetch")
        assert fetch["ph"] == "X"
        assert fetch["ts"] == 0
        assert fetch["dur"] == 15000  # 15ms in microseconds
        # attrs from both ends merged
        assert fetch["args"] == {"split": 2, "wire_bytes": 2048}

    def test_nested_span_sits_inside_its_parent(self):
        events = spans_to_trace_events(traced_sample().events)
        fetch = next(e for e in events if e["name"] == "sample.fetch")
        prefix = next(e for e in events if e["name"] == "storage.prefix")
        assert fetch["ts"] <= prefix["ts"]
        assert prefix["ts"] + prefix["dur"] <= fetch["ts"] + fetch["dur"]
        assert prefix["tid"] == fetch["tid"]

    def test_traces_get_distinct_threads_in_first_seen_order(self):
        events = spans_to_trace_events(traced_sample().events)
        threads = {
            e["args"]["name"]: e["tid"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert threads == {"s1-e1": 0, "s2-e1": 1}

    def test_instants_are_thread_scoped(self):
        events = spans_to_trace_events(traced_sample().events)
        miss = next(e for e in events if e["name"] == "cache.miss")
        assert miss["ph"] == "i"
        assert miss["s"] == "t"

    def test_unmatched_begin_closes_at_last_trace_timestamp(self):
        clock = ManualClock()
        tracer = Tracer(clock=clock)
        tracer.begin("s0-e0", "sample.fetch")
        clock.advance(2.0)
        tracer.instant("s0-e0", "fault.crash_interrupt")
        events = spans_to_trace_events(tracer.events)
        fetch = next(e for e in events if e["name"] == "sample.fetch")
        assert fetch["ph"] == "X"
        assert fetch["dur"] == 2_000_000

    def test_unmatched_end_is_dropped(self):
        tracer = Tracer()
        tracer.end("s0-e0", "never.began")
        events = spans_to_trace_events(tracer.events)
        assert all(e["name"] != "never.began" for e in events)

    def test_rendering_is_deterministic(self):
        one = spans_to_trace_events(traced_sample().events)
        two = spans_to_trace_events(traced_sample().events)
        assert json.dumps(one, sort_keys=True) == json.dumps(two, sort_keys=True)


class TestWriteChromeTrace:
    def test_spans_only_document_loads(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(
            str(path), [EpochTraceRecord(epoch=1, spans=traced_sample().events)]
        )
        document = json.loads(path.read_text())
        assert isinstance(document["traceEvents"], list)
        assert any(e["ph"] == "X" for e in document["traceEvents"])

    def test_identical_spans_write_identical_bytes(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            write_chrome_trace(
                str(path), [EpochTraceRecord(epoch=1, spans=traced_sample().events)]
            )
        assert paths[0].read_bytes() == paths[1].read_bytes()
