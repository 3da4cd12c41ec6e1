"""Per-sample spans: a lightweight trace context for the offload path.

A sample's journey -- decision, RPC fetch (attempts, breaker transitions),
server-side prefix execution, degraded-mode demotion, cache hit/miss -- is
recorded as structured :class:`SpanEvent` rows under one ``trace_id``
derived from (sample id, epoch); the :class:`Tracer` stores them as
columns and builds the rows only when read.  Timestamps come from the
tracer's injectable :data:`~repro.telemetry.clock.Clock`, so a tracer
bound to the simulator's virtual clock produces byte-identical event
streams across runs.

Events are deliberately flat (no object graph): a begin/end pair brackets
a phase, an instant marks a point event, and ``attrs`` carries the
structured details.  :func:`spans_to_trace_events` (one thread row per
trace id) and :func:`grouped_span_rows` (one row per ``shard``/``job``
label) pair them back up into nested chrome-trace spans; every span
stream -- DES epochs, multi-epoch summaries, the service flight recorder
-- renders through them, so the chrome-trace conventions live here once:

- timestamps and durations are integer microseconds, ``dur >= 0``;
- tids are 0-based, trace ids in first-seen order (group labels sorted);
- each pid gets one ``process_name`` metadata event;
- an unmatched BEGIN closes at the stream's largest timestamp with
  ``truncated: true``; an unmatched END is dropped.
"""

import contextlib
import dataclasses
import re
import threading
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.telemetry.clock import Clock, LogicalClock

#: Event phases, mirroring the trace-event vocabulary.
BEGIN = "B"
END = "E"
INSTANT = "I"

#: HTTP header carrying the trace id across the service boundary.
TRACE_HEADER = "X-Sophon-Trace"

#: Wire format for trace ids: 1-128 chars from a conservative token
#: charset (letters, digits, ``._:-``), leading char alphanumeric.  Both
#: the sample ids (``s12-e0``) and the service client's request ids
#: (``jobA-r3``) fit; anything else is dropped at the boundary rather
#: than propagated into journals or span streams.
_TRACE_HEADER_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._:-]{0,127}$")

#: Candidate sample trace ids; :func:`parse_trace_id` then requires the
#: exact round trip, which rules out leading zeros.
_SAMPLE_TRACE_RE = re.compile(r"s([0-9]+)-e([0-9]+)")


def trace_id(sample_id: int, epoch: int) -> str:
    """The canonical trace id for one sample in one epoch."""
    return f"s{sample_id}-e{epoch}"


def parse_trace_id(value: str) -> Tuple[int, int]:
    """Invert :func:`trace_id`; raises ValueError on foreign ids.

    Accepts exactly what :func:`trace_id` produces for a non-negative
    sample id and epoch: no signs, spaces, ``_`` separators or leading
    zeros.
    """
    match = _SAMPLE_TRACE_RE.fullmatch(value)
    if match is not None:
        parsed = int(match[1]), int(match[2])
        if trace_id(*parsed) == value:
            return parsed
    raise ValueError(f"not a sample trace id: {value!r}")


def encode_trace_header(trace: str) -> str:
    """Validate ``trace`` for the ``X-Sophon-Trace`` header; returns it.

    Raises ValueError on ids that would not survive the round trip, so
    senders fail loudly instead of emitting headers receivers must drop.
    """
    if not _TRACE_HEADER_RE.match(trace):
        raise ValueError(f"trace id not header-safe: {trace!r}")
    return trace


def parse_trace_header(value: Optional[str]) -> Optional[str]:
    """The trace id from a received header value, or None.

    Absent, empty, over-long, or badly-charactered values all come back as
    None: a malformed trace header must never fail a request, only strip
    its tracing.
    """
    if value is None:
        return None
    value = value.strip()
    if not _TRACE_HEADER_RE.match(value):
        return None
    return value


@dataclasses.dataclass(frozen=True)
class SpanEvent:
    """One structured event on one trace.

    attrs values must be JSON-representable scalars (str/int/float/bool);
    exporters serialize them with sorted keys so identical runs produce
    identical bytes.
    """

    trace_id: str
    name: str
    phase: str  # BEGIN | END | INSTANT
    t_s: float
    attrs: Mapping[str, object] = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.phase not in (BEGIN, END, INSTANT):
            raise ValueError(f"bad span phase {self.phase!r}")


_set_field = object.__setattr__


def _span_row(
    trace: str, name: str, phase: str, t_s: float, attrs: Optional[Mapping[str, object]]
) -> SpanEvent:
    """One stored row as a :class:`SpanEvent`.

    Sets the frozen instance's fields directly: every stored phase was
    validated on the way in (``begin``/``end``/``instant`` pass constants,
    :meth:`Tracer.record` takes a constructed event), and skipping
    ``__init__`` makes reading the rows back about a quarter cheaper for
    the same memory per row.
    """
    event = object.__new__(SpanEvent)
    _set_field(event, "trace_id", trace)
    _set_field(event, "name", name)
    _set_field(event, "phase", phase)
    _set_field(event, "t_s", t_s)
    _set_field(event, "attrs", {} if attrs is None else attrs)
    return event


class Tracer:
    """Collects span events, stamping them from an injectable clock.

    The default clock is a :class:`LogicalClock`: with no time axis given,
    events still carry strictly increasing deterministic timestamps.

    Events are stored as columns -- trace id, name, phase, timestamp, and
    attrs (``None`` when empty) -- so recording one costs five list
    appends rather than a :class:`SpanEvent` object.  :attr:`events`
    materializes the rows on first read and caches them until the columns
    grow.  One lock per emit keeps each event's fields together when
    several threads record at once; the lock is dropped and rebuilt
    across pickling, so a tracer stays ``copy.deepcopy``-able.  A single
    writer that keeps its own clock (the DES engine) appends through
    :meth:`stamp` instead, with no lock, clock call or kwargs dict.
    """

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self.clock: Clock = clock if clock is not None else LogicalClock()
        self._lock = threading.Lock()
        self._traces: List[str] = []
        self._names: List[str] = []
        self._phases: List[str] = []
        self._times: List[float] = []
        self._attrs: List[Optional[Mapping[str, object]]] = []
        self._rows: Optional[Tuple[SpanEvent, ...]] = None

    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        del state["_lock"]
        state["_rows"] = None
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def _emit(self, trace: str, name: str, phase: str, attrs: Dict[str, object]) -> None:
        with self._lock:
            self._traces.append(trace)
            self._names.append(name)
            self._phases.append(phase)
            self._times.append(self.clock())
            self._attrs.append(attrs or None)

    def record(self, event: SpanEvent) -> None:
        """Append an already-stamped event (replay, tees, merges)."""
        with self._lock:
            self._traces.append(event.trace_id)
            self._names.append(event.name)
            self._phases.append(event.phase)
            self._times.append(event.t_s)
            self._attrs.append(event.attrs or None)

    def stamp(
        self, trace: str, name: str, phase: str, t_s: float,
        attrs: Optional[Mapping[str, object]] = None,
    ) -> None:
        """Append one event at ``t_s`` without lock or clock: for a single
        writer only.  ``phase`` is a phase constant; ``attrs`` None or non-empty."""
        self._traces.append(trace)
        self._names.append(name)
        self._phases.append(phase)
        self._times.append(t_s)
        self._attrs.append(attrs)

    def begin(self, trace: str, name: str, **attrs: object) -> None:
        """Open a phase on a trace (pair with :meth:`end`)."""
        self._emit(trace, name, BEGIN, attrs)

    def end(self, trace: str, name: str, **attrs: object) -> None:
        """Close the innermost open phase of this name on the trace."""
        self._emit(trace, name, END, attrs)

    def instant(self, trace: str, name: str, **attrs: object) -> None:
        """A point event: demotion, retry, breaker transition, cache hit."""
        self._emit(trace, name, INSTANT, attrs)

    @contextlib.contextmanager
    def span(self, trace: str, name: str, **attrs: object) -> Iterator[None]:
        """``with tracer.span(tid, "rpc.fetch"):`` brackets a phase."""
        self.begin(trace, name, **attrs)
        try:
            yield
        finally:
            self.end(trace, name)

    # -- queries -----------------------------------------------------------

    def _columns(self) -> Tuple[List[Any], ...]:
        return self._traces, self._names, self._phases, self._times, self._attrs

    @property
    def events(self) -> Tuple[SpanEvent, ...]:
        """Every event in emission order: a read-only snapshot."""
        with self._lock:
            # The columns only grow between clears, so a snapshot of
            # another length is stale.
            if self._rows is None or len(self._rows) != len(self._traces):
                self._rows = tuple(
                    map(_span_row, self._traces, self._names, self._phases, self._times, self._attrs)
                )
            return self._rows

    def for_trace(self, trace: str) -> List[SpanEvent]:
        """Every event on one trace, in emission order."""
        with self._lock:
            return [_span_row(*row) for row in zip(*self._columns()) if row[0] == trace]

    def for_sample(self, sample_id: int, epoch: int) -> List[SpanEvent]:
        return self.for_trace(trace_id(sample_id, epoch))

    def trace_ids(self) -> List[str]:
        """Distinct trace ids in first-seen order (deterministic)."""
        with self._lock:
            return list(dict.fromkeys(self._traces))

    def clear(self) -> None:
        with self._lock:
            for column in self._columns():
                column.clear()
            self._rows = None


_MICRO = 1_000_000  # trace events use integer microseconds

#: Default pid of the per-trace span rows (pid 0 is a batch timeline).
_SPANS_PID = 1

#: One paired result: (BEGIN or INSTANT event, end time or None, args).
_Paired = Tuple[SpanEvent, Optional[float], Dict[str, object]]


def _paired(spans: Sequence[SpanEvent]) -> Iterator[_Paired]:
    """The one pairing pass behind every chrome-trace span row.

    BEGIN/END match innermost-first per ``(trace_id, name)``: a closed
    pair yields its BEGIN, the END's time and the BEGIN attrs updated
    with the END's.  An INSTANT yields itself with end time None.
    Results come in stream order; unmatched BEGINs follow, closed at the
    stream's largest timestamp and marked ``truncated``.  An END without
    a BEGIN is dropped rather than inventing a span.
    """
    open_spans: Dict[Tuple[str, str], List[SpanEvent]] = {}
    for event in spans:
        if event.phase == BEGIN:
            open_spans.setdefault((event.trace_id, event.name), []).append(event)
        elif event.phase == END:
            stack = open_spans.get((event.trace_id, event.name))
            if stack:
                begin = stack.pop()
                args = dict(begin.attrs)
                args.update(event.attrs)
                yield begin, event.t_s, args
        else:
            yield event, None, dict(event.attrs)
    if any(open_spans.values()):
        last_t = max(event.t_s for event in spans)
        for stack in open_spans.values():
            for begin in stack:
                yield begin, last_t, dict(begin.attrs, truncated=True)


def _trace_event(paired: _Paired, pid: int, tid: int) -> Dict[str, object]:
    """A paired result as an ``X`` complete event or a thread-scoped ``i``."""
    event, end_t, args = paired
    ts = int(event.t_s * _MICRO)
    if end_t is None:
        return {"name": event.name, "ph": "i", "s": "t", "pid": pid, "tid": tid,
                "ts": ts, "args": args}
    return {"name": event.name, "ph": "X", "pid": pid, "tid": tid, "ts": ts,
            "dur": max(0, int((end_t - event.t_s) * _MICRO)), "args": args}


def _metadata(pid: int, process_name: str, rows: Iterable[str]) -> List[Dict[str, object]]:
    """The process's name, then one named thread per row, tids 0..k-1."""
    events: List[Dict[str, object]] = [
        {"name": "process_name", "ph": "M", "pid": pid, "args": {"name": process_name}},
    ]
    events.extend(
        {"name": "thread_name", "ph": "M", "pid": pid, "tid": tid, "args": {"name": row}}
        for tid, row in enumerate(rows)
    )
    return events


def spans_to_trace_events(
    spans: Sequence[SpanEvent],
    pid: int = _SPANS_PID,
    process_name: str = "samples (virtual time)",
) -> List[Dict[str, object]]:
    """Render span events as nested trace-event rows, one per trace id.

    Tids follow first-seen order, so identical streams give identical
    documents.  Pairs become ``X`` complete events and instants ``i``
    records on their trace's row.
    """
    tids: Dict[str, int] = {}
    for event in spans:
        tids.setdefault(event.trace_id, len(tids))
    events = _metadata(pid, process_name, tids)
    events.extend(
        _trace_event(paired, pid, tids[paired[0].trace_id]) for paired in _paired(spans)
    )
    return events


def _group_order(value: object) -> Tuple[int, Any, str]:
    """Numbers first, numerically; then everything else by its text."""
    if isinstance(value, (int, float)):
        return (0, value, "")
    return (1, 0, str(value))


def grouped_span_rows(
    spans: Sequence[SpanEvent],
    key: str,
    pid: int,
    process_name: str,
) -> List[Dict[str, object]]:
    """One thread row per distinct value of span attr ``key``.

    A pair lands on the row of its BEGIN's ``key`` value (e.g. ``shard=2``
    or ``job="resnet"``; the END need not carry it), an instant on its
    own value's row; events without the attr are skipped.  Rows are
    sorted by value.  Returns [] when no event carries the attr, so
    callers can omit the whole process.
    """
    rendered = [paired for paired in _paired(spans) if key in paired[0].attrs]
    if not rendered:
        return []
    groups = sorted({paired[0].attrs[key]: None for paired in rendered}, key=_group_order)
    tids = {value: tid for tid, value in enumerate(groups)}
    events = _metadata(pid, process_name, (f"{key} {value}" for value in groups))
    events.extend(
        _trace_event(paired, pid, tids[paired[0].attrs[key]]) for paired in rendered
    )
    return events
