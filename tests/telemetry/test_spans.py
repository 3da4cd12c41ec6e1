"""Tracer and span events: ids, phases, clocks, queries, the column store."""

import copy
import dataclasses
import sys
import threading
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster.spec import standard_cluster
from repro.cluster.trainer import TrainerSim
from repro.data.catalog import make_openimages
from repro.preprocessing.pipeline import standard_pipeline
from repro.telemetry.clock import LogicalClock, ManualClock
from repro.telemetry.spans import (
    BEGIN,
    END,
    INSTANT,
    SpanEvent,
    Tracer,
    parse_trace_id,
    trace_id,
)
from repro.workloads.models import get_model_profile


class TestTraceId:
    def test_round_trip(self):
        assert trace_id(17, 3) == "s17-e3"
        assert parse_trace_id("s17-e3") == (17, 3)

    @pytest.mark.parametrize(
        "bad",
        [
            "", "17-3", "sx-e1", "s1e2", "b0-e1",
            # int() takes these, but trace_id never writes them.
            "s+1-e0", "s 1-e0", "s01-e0", "s1_000-e2", "s1-e-3", "s1-e3 ",
        ],
    )
    def test_foreign_ids_raise(self, bad):
        with pytest.raises(ValueError):
            parse_trace_id(bad)

    @given(st.integers(min_value=0), st.integers(min_value=0))
    def test_parse_inverts_trace_id(self, sample, epoch):
        assert parse_trace_id(trace_id(sample, epoch)) == (sample, epoch)

    @given(st.from_regex(r"s[+ ]?[0-9_]{1,4}-e[-+ ]?[0-9_]{1,4}", fullmatch=True))
    def test_parse_accepts_only_what_trace_id_writes(self, value):
        try:
            parsed = parse_trace_id(value)
        except ValueError:
            return
        assert trace_id(*parsed) == value


class TestTracer:
    def test_events_stamp_from_the_injected_clock(self):
        clock = ManualClock()
        tracer = Tracer(clock=clock)
        tracer.begin("s0-e1", "fetch", split=2)
        clock.advance(1.5)
        tracer.end("s0-e1", "fetch", bytes=42)
        begin, end = tracer.events
        assert (begin.phase, begin.t_s, begin.attrs) == (BEGIN, 0.0, {"split": 2})
        assert (end.phase, end.t_s, end.attrs) == (END, 1.5, {"bytes": 42})

    def test_instant(self):
        tracer = Tracer(clock=ManualClock(3.0))
        tracer.instant("s1-e0", "demote", reason="breaker-open")
        event = tracer.events[-1]
        assert event.phase == INSTANT
        assert event.t_s == 3.0

    def test_span_context_manager_pairs_begin_and_end(self):
        tracer = Tracer()
        with tracer.span("s0-e0", "work"):
            tracer.instant("s0-e0", "tick")
        assert [e.phase for e in tracer.events] == [BEGIN, INSTANT, END]

    def test_default_logical_clock_is_strictly_increasing(self):
        tracer = Tracer()
        for _ in range(5):
            tracer.instant("s0-e0", "tick")
        stamps = [e.t_s for e in tracer.events]
        assert stamps == sorted(stamps)
        assert len(set(stamps)) == len(stamps)

    def test_bad_phase_rejected(self):
        with pytest.raises(ValueError):
            SpanEvent(trace_id="s0-e0", name="x", phase="Q", t_s=0.0)

    def test_for_sample_filters_one_trace(self):
        tracer = Tracer()
        tracer.instant(trace_id(1, 0), "a")
        tracer.instant(trace_id(2, 0), "b")
        tracer.instant(trace_id(1, 0), "c")
        names = [e.name for e in tracer.for_sample(1, 0)]
        assert names == ["a", "c"]

    def test_trace_ids_first_seen_order(self):
        tracer = Tracer()
        for sample in (3, 1, 2, 1, 3):
            tracer.instant(trace_id(sample, 0), "tick")
        assert tracer.trace_ids() == ["s3-e0", "s1-e0", "s2-e0"]

    def test_clear(self):
        tracer = Tracer()
        tracer.instant("s0-e0", "tick")
        tracer.clear()
        assert tracer.events == ()


class TestColumnStore:
    def test_concurrent_emits_keep_each_event_whole(self):
        """Every row's fields come from one emit or record, whatever the interleaving."""
        local = threading.local()

        def clock():
            time.sleep(0)  # yield the GIL mid-emit, so unguarded columns would tear
            return local.stamp

        tracer = Tracer(clock=clock)
        threads_n, per_thread = 4, 500
        start = threading.Barrier(threads_n)

        def emit(worker):
            start.wait()
            for i in range(per_thread):
                trace = f"w{worker}-{i}"
                local.stamp = worker * 1000.0 + i
                if i % 3 == 0:
                    tracer.instant(trace, f"tick{worker}")
                elif i % 3 == 1:
                    tracer.record(SpanEvent(trace, f"tee{worker}", END, local.stamp))
                else:
                    tracer.begin(trace, f"work{worker}", worker=worker, i=i)

        threads = [threading.Thread(target=emit, args=(w,)) for w in range(threads_n)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)

        events = tracer.events
        assert len(events) == threads_n * per_thread
        for event in events:
            worker, i = (int(part) for part in event.trace_id[1:].split("-"))
            assert event.t_s == worker * 1000.0 + i
            if i % 3 == 0:
                assert (event.name, event.phase, event.attrs) == (f"tick{worker}", INSTANT, {})
            elif i % 3 == 1:
                assert (event.name, event.phase, event.attrs) == (f"tee{worker}", END, {})
            else:
                assert (event.name, event.phase, event.attrs) == (
                    f"work{worker}", BEGIN, {"worker": worker, "i": i}
                )
        assert len({e.trace_id for e in events}) == len(events)

    def test_record_appends_the_event_as_given(self):
        tracer = Tracer()
        tracer.instant("s0-e0", "tick")
        replayed = SpanEvent(trace_id="s1-e0", name="x", phase=END, t_s=7, attrs={"a": 1})
        tracer.record(replayed)
        assert tracer.events[-1] == replayed
        assert repr(tracer.events[-1]) == repr(replayed)

    def test_events_snapshot_is_cached_until_the_next_emit(self):
        tracer = Tracer()
        tracer.instant("s0-e0", "a")
        first = tracer.events
        assert tracer.events is first
        tracer.instant("s0-e0", "b")
        assert [e.name for e in tracer.events] == ["a", "b"]
        assert [e.name for e in first] == ["a"]

    def test_stamp_rows_match_the_locked_writers_and_refresh_the_snapshot(self):
        clock = ManualClock(1.5)
        locked = Tracer(clock=clock)
        locked.begin("s0-e0", "fetch", split=2)
        locked.instant("s0-e0", "demote")
        stamped = Tracer()
        stamped.stamp("s0-e0", "fetch", BEGIN, 1.5, {"split": 2})
        first = stamped.events
        stamped.stamp("s0-e0", "demote", INSTANT, 1.5)
        assert [repr(e) for e in stamped.events] == [repr(e) for e in locked.events]
        assert len(first) == 1
        stamped.clear()
        stamped.stamp("s1-e0", "fetch", END, 2.0)
        assert [e.trace_id for e in stamped.events] == ["s1-e0"]

    def test_deepcopy_keeps_every_event(self):
        tracer = Tracer(clock=ManualClock(2.0))
        tracer.begin("s0-e0", "fetch", split=1)
        tracer.end("s0-e0", "fetch")
        copied = copy.deepcopy(tracer)
        assert copied.events == tracer.events
        copied.instant("s0-e0", "after")
        assert len(tracer.events) == 2

    def test_asdict_of_a_spans_on_epoch(self):
        trainer = TrainerSim(
            dataset=make_openimages(num_samples=24, seed=7),
            pipeline=standard_pipeline(),
            model=get_model_profile("alexnet"),
            spec=standard_cluster(),
            seed=7,
        )
        stats = trainer.run_epoch(None, epoch=1, record_spans=True)
        assert stats.spans.events
        payload = dataclasses.asdict(stats)
        assert payload["spans"].events == stats.spans.events


class TestClocks:
    def test_manual_clock_cannot_rewind(self):
        clock = ManualClock(5.0)
        with pytest.raises(ValueError):
            clock.set(4.0)
        with pytest.raises(ValueError):
            clock.advance(-1.0)

    def test_logical_clock_steps(self):
        clock = LogicalClock(step_s=0.5)
        assert [clock() for _ in range(3)] == [0.0, 0.5, 1.0]
        assert clock.ticks == 3

    def test_logical_clock_rejects_bad_step(self):
        with pytest.raises(ValueError):
            LogicalClock(step_s=0.0)
