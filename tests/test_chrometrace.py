"""Chrome trace export tests."""

import json

import pytest

from repro.metrics.chrometrace import (
    EpochTraceRecord,
    combined_trace_events,
    grouped_span_rows,
    timeline_to_trace_events,
    write_chrome_trace,
)
from repro.metrics.timeline import BatchTrace, Timeline
from repro.telemetry.spans import BEGIN, END, INSTANT, SpanEvent


@pytest.fixture
def timeline():
    return Timeline(
        batches=[
            BatchTrace(0, ready_at=1.0, gpu_start=1.0, gpu_end=2.0),
            BatchTrace(1, ready_at=1.5, gpu_start=2.0, gpu_end=3.5),
        ],
        epoch_end=3.5,
    )


class TestChromeTrace:
    def test_event_structure(self, timeline):
        events = timeline_to_trace_events(timeline)
        metadata = [e for e in events if e["ph"] == "M"]
        spans = [e for e in events if e["ph"] == "X"]
        assert len(metadata) == 3
        assert len(spans) == 4  # 2 batches x (input + gpu)

    def test_gpu_spans_exact(self, timeline):
        events = timeline_to_trace_events(timeline)
        gpu0 = next(e for e in events if e["name"] == "batch 0 gpu")
        assert gpu0["ts"] == 1_000_000
        assert gpu0["dur"] == 1_000_000

    def test_input_spans_chain(self, timeline):
        events = timeline_to_trace_events(timeline)
        in0 = next(e for e in events if e["name"] == "batch 0 input")
        in1 = next(e for e in events if e["name"] == "batch 1 input")
        assert in0["ts"] == 0 and in0["dur"] == 1_000_000
        assert in1["ts"] == 1_000_000  # starts at batch 0's ready time

    def test_write_round_trip(self, timeline, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(
            str(path), [EpochTraceRecord(epoch=0, timeline=timeline)], job="demo"
        )
        document = json.loads(path.read_text())
        assert "traceEvents" in document
        names = {e["name"] for e in document["traceEvents"]}
        assert "batch 1 gpu" in names

    def test_from_real_trainer_run(self, openimages_small, pipeline, alexnet, tmp_path):
        from repro.cluster.spec import standard_cluster
        from repro.cluster.trainer import TrainerSim

        trainer = TrainerSim(
            openimages_small, pipeline, alexnet,
            spec=standard_cluster(storage_cores=8), batch_size=64,
        )
        stats = trainer.run_epoch(None, epoch=0, record_timeline=True)
        events = timeline_to_trace_events(stats.timeline)
        spans = [e for e in events if e["ph"] == "X"]
        assert len(spans) == 2 * stats.num_batches
        # Spans never extend past the epoch end.
        end = max(e["ts"] + e["dur"] for e in spans)
        assert end <= stats.epoch_time_s * 1_000_000 + 1

    def test_rejects_invalid_timeline(self):
        broken = Timeline(
            batches=[BatchTrace(0, ready_at=5.0, gpu_start=1.0, gpu_end=2.0)]
        )
        with pytest.raises(ValueError):
            timeline_to_trace_events(broken)


def span(trace, name, phase, t_s, **attrs):
    return SpanEvent(trace_id=trace, name=name, phase=phase, t_s=t_s, attrs=attrs)


@pytest.fixture
def labelled_spans():
    return [
        span("s0-e1", "sample.fetch", BEGIN, 0.0, shard=1, job="alpha"),
        span("s1-e1", "sample.fetch", BEGIN, 0.5, shard=0, job="beta"),
        span("s0-e1", "sample.fetch", END, 1.0),
        span("s1-e1", "demotion", INSTANT, 1.2, shard=0, reason="crash"),
        span("s1-e1", "sample.fetch", END, 2.0),
    ]


class TestGroupedSpanRows:
    def test_one_thread_per_group(self, labelled_spans):
        events = grouped_span_rows(labelled_spans, "shard", pid=9, process_name="shards")
        threads = [e for e in events if e["name"] == "thread_name"]
        assert [t["args"]["name"] for t in threads] == ["shard 0", "shard 1"]
        assert all(e["pid"] == 9 for e in events)

    def test_end_inherits_begin_group(self, labelled_spans):
        """ENDs carry no shard attr; the pairing must still close the span."""
        events = grouped_span_rows(labelled_spans, "shard", pid=0, process_name="p")
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == 2
        by_shard = {e["args"]["shard"]: e for e in complete}
        assert by_shard[1]["dur"] == 1_000_000  # s0: 0.0 -> 1.0
        assert by_shard[0]["dur"] == 1_500_000  # s1: 0.5 -> 2.0

    def test_instants_land_on_their_row(self, labelled_spans):
        events = grouped_span_rows(labelled_spans, "shard", pid=0, process_name="p")
        instant = next(e for e in events if e["ph"] == "i")
        shard0_tid = next(
            e["tid"] for e in events
            if e["name"] == "thread_name" and e["args"]["name"] == "shard 0"
        )
        assert instant["tid"] == shard0_tid

    def test_missing_key_returns_empty(self, labelled_spans):
        assert grouped_span_rows(labelled_spans, "tenant", 0, "p") == []

    def test_tenant_grouping_by_job(self, labelled_spans):
        events = grouped_span_rows(labelled_spans, "job", pid=0, process_name="tenants")
        threads = [e for e in events if e["name"] == "thread_name"]
        assert [t["args"]["name"] for t in threads] == ["job alpha", "job beta"]


class TestCombinedTrace:
    def records(self, timeline, labelled_spans):
        return [
            EpochTraceRecord(epoch=0, timeline=timeline),
            EpochTraceRecord(epoch=1, spans=tuple(labelled_spans), timeline=timeline),
        ]

    def test_one_pid_per_process(self, timeline, labelled_spans):
        events = combined_trace_events(self.records(timeline, labelled_spans))
        names = {
            e["pid"]: e["args"]["name"]
            for e in events if e["name"] == "process_name"
        }
        assert names == {
            0: "train epoch 0 (virtual time)",
            1: "train epoch 1 (virtual time)",
            2: "epoch 1 samples (virtual time)",
            3: "shards (virtual time)",
            4: "tenants (virtual time)",
        }

    def test_group_rows_omitted_without_labels(self, timeline):
        plain = [
            span("s0-e0", "sample.fetch", BEGIN, 0.0),
            span("s0-e0", "sample.fetch", END, 1.0),
        ]
        events = combined_trace_events(
            [EpochTraceRecord(epoch=0, spans=tuple(plain), timeline=timeline)]
        )
        names = {e["args"]["name"] for e in events if e["name"] == "process_name"}
        assert "shards (virtual time)" not in names
        assert "tenants (virtual time)" not in names

    def test_write_is_deterministic(self, timeline, labelled_spans, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_chrome_trace(str(a), self.records(timeline, labelled_spans))
        write_chrome_trace(str(b), self.records(timeline, labelled_spans))
        assert a.read_bytes() == b.read_bytes()
        assert json.loads(a.read_text())["traceEvents"]

    def test_display_label(self):
        assert EpochTraceRecord(epoch=4).display_label == "epoch 4"
        assert EpochTraceRecord(epoch=4, label="warmup").display_label == "warmup"
