"""Flight recorder: bounded rings, teeing, and the chrome-trace dump."""

import json

from repro.telemetry.clock import ManualClock
from repro.telemetry.flight import FlightRecorder
from repro.telemetry.logs import LogRecord, StructuredLogger, render_logfmt
from repro.telemetry.spans import BEGIN, Tracer


def make_recorder(**kwargs):
    return FlightRecorder(clock=ManualClock(), **kwargs)


class TestBoundedRings:
    def test_span_ring_evicts_oldest_and_counts_drops(self):
        recorder = make_recorder(capacity=3)
        for i in range(5):
            recorder.instant("t", f"ev{i}")
        snap = recorder.snapshot()
        assert [e.name for e in snap.spans] == ["ev2", "ev3", "ev4"]
        assert snap.dropped_spans == 2
        assert snap.dropped_logs == 0

    def test_log_ring_evicts_independently(self):
        recorder = make_recorder(capacity=2)
        log = StructuredLogger("t", sink=recorder.record_log, bridge=False)
        for i in range(4):
            log.info(f"m{i}")
        snap = recorder.snapshot()
        assert [r.message for r in snap.logs] == ["m2", "m3"]
        assert snap.dropped_logs == 2

    def test_capacity_validated(self):
        import pytest

        with pytest.raises(ValueError, match="capacity"):
            FlightRecorder(capacity=0)

    def test_clear_resets_rings_and_counters(self):
        recorder = make_recorder(capacity=1)
        recorder.instant("t", "a")
        recorder.instant("t", "b")
        recorder.clear()
        snap = recorder.snapshot()
        assert snap.spans == () and snap.dropped_spans == 0


class TestTee:
    def test_tee_tracer_keeps_the_full_stream(self):
        tee = Tracer(clock=ManualClock())
        recorder = make_recorder(capacity=2, tee=tee)
        for i in range(5):
            recorder.instant("t", f"ev{i}")
        assert len(recorder.snapshot().spans) == 2  # ring stays bounded
        assert [e.name for e in tee.events] == [f"ev{i}" for i in range(5)]


class TestChromeTrace:
    def test_begin_end_pairs_become_complete_events_with_merged_attrs(self):
        clock = ManualClock()
        recorder = FlightRecorder(clock=clock)
        recorder.begin("job-0-r1", "service.plan", tenant="a")
        clock.advance(2.0)
        recorder.end("job-0-r1", "service.plan", cores=4)
        trace = recorder.to_chrome_trace()
        complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert len(complete) == 1
        assert complete[0]["name"] == "service.plan"
        assert complete[0]["ts"] == 0.0 and complete[0]["dur"] == 2.0 * 1e6
        assert complete[0]["args"] == {"tenant": "a", "cores": 4}

    def test_each_trace_gets_a_named_thread_row(self):
        recorder = make_recorder()
        recorder.instant("job-0-r1", "service.shed")
        recorder.instant("job-1-r1", "service.shed")
        trace = recorder.to_chrome_trace()
        meta = [e for e in trace["traceEvents"] if e["name"] == "thread_name"]
        assert [(m["tid"], m["args"]["name"]) for m in meta] == [
            (0, "job-0-r1"),
            (1, "job-1-r1"),
        ]
        instants = [e for e in trace["traceEvents"] if e["ph"] == "i"]
        assert {e["tid"] for e in instants} == {0, 1}
        assert all(e["s"] == "t" for e in instants)

    def test_unmatched_begin_closes_at_window_end_marked_truncated(self):
        clock = ManualClock()
        recorder = FlightRecorder(clock=clock)
        recorder.begin("t", "service.request")
        clock.advance(3.0)
        recorder.instant("t", "service.shed")
        trace = recorder.to_chrome_trace()
        complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert len(complete) == 1
        assert complete[0]["dur"] == 3.0 * 1e6
        assert complete[0]["args"]["truncated"] is True

    def test_logs_land_on_a_dedicated_row(self):
        recorder = make_recorder()
        recorder.instant("t", "service.shed")
        record = LogRecord(t_s=1.0, level="warning", logger="svc", message="shed")
        recorder.record_log(record)
        trace = recorder.to_chrome_trace()
        log_events = [
            e for e in trace["traceEvents"]
            if e["ph"] == "i" and e["name"].startswith("log.")
        ]
        assert len(log_events) == 1
        assert log_events[0]["name"] == "log.warning"
        assert log_events[0]["args"] == {"line": render_logfmt(record)}
        meta_names = [
            e["args"]["name"] for e in trace["traceEvents"]
            if e["name"] == "thread_name"
        ]
        assert meta_names == ["t", "logs"]
        # The logs row sits after every trace row.
        assert log_events[0]["tid"] == 1

    def test_other_data_counts(self):
        recorder = make_recorder(capacity=2)
        for i in range(3):
            recorder.instant("t", f"ev{i}")
        recorder.record_log(
            LogRecord(t_s=0.0, level="info", logger="svc", message="m")
        )
        other = recorder.to_chrome_trace()["otherData"]
        assert other == {
            "dropped_spans": 1, "dropped_logs": 0, "spans": 2, "logs": 1
        }


class TestDump:
    def test_dump_bytes_are_deterministic(self, tmp_path):
        def build():
            clock = ManualClock()
            recorder = FlightRecorder(clock=clock)
            recorder.begin("t", "service.plan", tenant="a")
            clock.advance(1.0)
            recorder.end("t", "service.plan")
            recorder.record_log(
                LogRecord(t_s=0.5, level="info", logger="svc", message="planned")
            )
            return recorder

        path_a = build().dump(str(tmp_path / "a.json"))
        path_b = build().dump(str(tmp_path / "b.json"))
        first = open(path_a, "rb").read()
        assert first == open(path_b, "rb").read()
        assert first.endswith(b"\n")
        loaded = json.loads(first)
        assert loaded["displayTimeUnit"] == "ms"
        assert {e["ph"] for e in loaded["traceEvents"]} >= {"M", "X"}

    def test_snapshot_is_a_stable_copy(self):
        recorder = make_recorder()
        recorder.begin("t", "phase")
        snap = recorder.snapshot()
        recorder.end("t", "phase")
        assert len(snap.spans) == 1
        assert snap.spans[0].phase == BEGIN
