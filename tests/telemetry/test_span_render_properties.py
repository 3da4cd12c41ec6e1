"""Properties of the one span -> chrome-trace converter.

Every span stream (DES epochs, shard/tenant summary rows, the service
flight recorder) renders through ``spans_to_trace_events`` and
``grouped_span_rows``.  These properties hold for any stream, including
unmatched ENDs, unmatched BEGINs, same-name nesting, and attrs with and
without the ``shard``/``job`` labels.
"""

import collections
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.chrometrace import grouped_span_rows, spans_to_trace_events
from repro.telemetry.flight import FlightRecorder
from repro.telemetry.spans import BEGIN, END, INSTANT, SpanEvent

MICRO = 1_000_000

ATTRS = st.fixed_dictionaries(
    {},
    optional={
        "shard": st.sampled_from([0, 1, "edge"]),
        "job": st.sampled_from(["alpha", "beta"]),
        "bytes": st.integers(0, 99),
    },
)

EVENTS = st.builds(
    lambda phase, trace, name, t_s, attrs: SpanEvent(trace, name, phase, t_s, attrs),
    st.sampled_from([BEGIN, END, INSTANT]),
    st.sampled_from(["s0-e0", "s1-e0", "job-r1"]),
    st.sampled_from(["sample.fetch", "storage.prefix"]),
    st.floats(0.0, 10.0),
    ATTRS,
)

STREAMS = st.lists(EVENTS, max_size=40)

PROPERTY_SETTINGS = settings(max_examples=200, deadline=None)


def unmatched_begins(spans):
    """Reference pairing: the BEGINs no END closes (innermost-first)."""
    stacks = collections.defaultdict(list)
    for event in spans:
        if event.phase == BEGIN:
            stacks[(event.trace_id, event.name)].append(event)
        elif event.phase == END and stacks[(event.trace_id, event.name)]:
            stacks[(event.trace_id, event.name)].pop()
    return [begin for stack in stacks.values() for begin in stack]


def row_names(events):
    """tid -> thread name, checking tids are dense 0..k-1."""
    rows = {e["tid"]: e["args"]["name"] for e in events if e["name"] == "thread_name"}
    assert sorted(rows) == list(range(len(rows)))
    return rows


def keyed(events, rows, phase):
    """Multiset of (row name, event name, ts) for one phase."""
    return collections.Counter(
        (rows[e["tid"]], e["name"], e["ts"]) for e in events if e["ph"] == phase
    )


def check_ranges(events, spans):
    low = int(min(event.t_s for event in spans) * MICRO)
    high = int(max(event.t_s for event in spans) * MICRO)
    for event in events:
        if event["ph"] in ("X", "i"):
            assert low <= event["ts"] <= high
        if event["ph"] == "X":
            assert event["dur"] >= 0
            assert event["ts"] + event["dur"] <= high + 1  # float truncation


def one_process_row(events, pid):
    names = [e for e in events if e["name"] == "process_name"]
    assert len(names) == 1 and names[0]["pid"] == pid
    assert all(e["pid"] == pid for e in events)


@PROPERTY_SETTINGS
@given(spans=STREAMS)
def test_trace_rows(spans):
    events = spans_to_trace_events(spans)
    again = spans_to_trace_events(list(spans))
    assert json.dumps(events, sort_keys=True) == json.dumps(again, sort_keys=True)
    one_process_row(events, pid=1)

    rows = row_names(events)
    assert list(rows.values()) == list(dict.fromkeys(e.trace_id for e in spans))
    begins = [e for e in spans if e.phase == BEGIN]
    assert keyed(events, rows, "X") == collections.Counter(
        (e.trace_id, e.name, int(e.t_s * MICRO)) for e in begins
    )
    assert keyed(events, rows, "i") == collections.Counter(
        (e.trace_id, e.name, int(e.t_s * MICRO)) for e in spans if e.phase == INSTANT
    )
    truncated = [e for e in events if e["ph"] == "X" and e["args"].get("truncated")]
    assert all(e["args"]["truncated"] is True for e in truncated)
    assert collections.Counter(
        (rows[e["tid"]], e["name"], e["ts"]) for e in truncated
    ) == collections.Counter(
        (e.trace_id, e.name, int(e.t_s * MICRO)) for e in unmatched_begins(spans)
    )
    if spans:
        check_ranges(events, spans)


@PROPERTY_SETTINGS
@given(spans=STREAMS, key=st.sampled_from(["shard", "job"]))
def test_grouped_rows_hold_exactly_the_labelled_pairs(spans, key):
    events = grouped_span_rows(spans, key, pid=3, process_name="groups")
    labelled = [e for e in spans if e.phase != END and key in e.attrs]
    if not labelled:
        assert events == []
        return
    one_process_row(events, pid=3)
    rows = row_names(events)

    def expected(phase):
        return collections.Counter(
            (f"{key} {e.attrs[key]}", e.name, int(e.t_s * MICRO))
            for e in labelled if e.phase == phase
        )

    assert keyed(events, rows, "X") == expected(BEGIN)
    assert keyed(events, rows, "i") == expected(INSTANT)
    assert json.dumps(events, sort_keys=True) == json.dumps(
        grouped_span_rows(list(spans), key, pid=3, process_name="groups"), sort_keys=True
    )
    check_ranges(events, spans)


@PROPERTY_SETTINGS
@given(spans=STREAMS, capacity=st.integers(1, 48))
def test_flight_recorder_span_rows_are_the_converter(spans, capacity):
    """The recorder's span rows equal the converter on the same snapshot,
    including windows whose eviction left ENDs without their BEGIN."""
    times = iter([event.t_s for event in spans])
    recorder = FlightRecorder(capacity=capacity, clock=lambda: next(times))
    emit = {BEGIN: recorder.begin, END: recorder.end, INSTANT: recorder.instant}
    for event in spans:
        emit[event.phase](event.trace_id, event.name, **event.attrs)
    snap = recorder.snapshot()
    assert snap.spans == tuple(spans[len(spans) - len(snap.spans):])

    events = recorder.to_chrome_trace()["traceEvents"]
    names = [e for e in events if e["name"] == "process_name"]
    assert len(names) == 1
    assert events == spans_to_trace_events(
        snap.spans, pid=names[0]["pid"], process_name=names[0]["args"]["name"]
    )
