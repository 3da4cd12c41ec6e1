"""The frozen *seed* DES kernel and launcher: the byte-identity oracle.

Byte-for-byte snapshots of the generator kernel (``Process`` + relay
``Event``, ``AllOf``, interrupts) and of the seed launcher,
:func:`launch_training_processes`, that drove every epoch before the
cursor engine (:mod:`repro.cluster.engine`) learned it all.  Only
``run_epoch(kernel="reference")`` runs them; ``repro.bench`` and
the identity tests require byte-identical ``EpochStats``, fault reports,
span streams and timelines from both paths.  Do not optimize or "fix"
this file -- its value is that it never changes.

One edit since the snapshot, with the timeline's per-fault record
deleted from both paths: the launcher no longer writes
``Timeline.fault_events`` at its four fault sites.  Those writes fed
nothing the simulation reads, so its schedule, fault report, spans and
batch timeline are unchanged.

A second edit deleted kernel API the launcher never reaches: the
``Store`` queue, the ``hold`` process fragment and ``run``'s ``until``
bound.  What remains is unchanged, so every epoch it simulates is too.
"""

# Postponed annotations: the launcher names trainer types that would be a
# circular runtime import.
from __future__ import annotations

import heapq
import itertools
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Callable, Dict, Generator, List, Optional

# The retransmission cap is shared with the live engine, and the
# SimulationError type with the live kernel's resources.
from repro.cluster.engine import _MAX_PAYLOAD_SENDS
from repro.cluster.sim import SimulationError
from repro.cluster.spec import ClusterSpec
from repro.faults.schedule import FaultReport, FaultSchedule
from repro.metrics.timeline import Timeline
from repro.telemetry.spans import Tracer, trace_id
from repro.workloads.models import ModelProfile

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.trainer import JobHandles, SampleWork

__all__ = [
    "AllOf",
    "Environment",
    "Event",
    "FairResource",
    "Interrupt",
    "Process",
    "Resource",
    "SimulationError",
    "Timeout",
    "launch_training_processes",
]


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    ``cause`` carries whatever the interrupter passed (e.g. the fault that
    killed the resource the process was using).  A process that catches the
    interrupt continues normally; one that does not simply ends, with the
    Interrupt instance as its value.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Event:
    """Something that will happen at a point in virtual time.

    Lifecycle: *pending* -> ``trigger()`` puts it on the queue ->
    *processed* once the scheduler fires its callbacks.  An event fires at
    most once; its ``value`` is delivered to every waiter.
    """

    __slots__ = ("env", "callbacks", "triggered", "processed", "value")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: List[Callable[["Event"], None]] = []
        self.triggered = False
        self.processed = False
        self.value: Any = None

    def trigger(self, value: Any = None) -> "Event":
        """Schedule this event to fire at the current virtual time."""
        if self.triggered:
            raise SimulationError("event triggered twice")
        self.triggered = True
        self.value = value
        self.env._schedule(self.env.now, self)
        return self

    def wait(self, callback: Callable[["Event"], None]) -> None:
        """Invoke ``callback`` when this event fires (immediately if fired)."""
        if self.processed:
            callback(self)
        else:
            self.callbacks.append(callback)

    def _fire(self) -> None:
        self.processed = True
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)


class Timeout(Event):
    """An event that fires after a fixed virtual delay."""

    __slots__ = ()

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"timeout delay must be >= 0, got {delay}")
        super().__init__(env)
        self.triggered = True
        self.value = value
        env._schedule(env.now + delay, self)


class Process(Event):
    """A running generator; also an event that fires when the generator ends.

    The event's value is the generator's return value.  Processes are
    *interruptible*: :meth:`interrupt` throws an :class:`Interrupt` into the
    generator at its current yield point (fault injection uses this to fail
    an offloaded prefix that is in flight when the storage node crashes).
    """

    __slots__ = ("_generator", "_waiting_on")

    def __init__(self, env: "Environment", generator: Generator) -> None:
        super().__init__(env)
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        first = Event(env).trigger()
        first.callbacks.append(self._resume)
        self._waiting_on = first

    def _resume(self, event: Event) -> None:
        self._waiting_on = None
        try:
            target = self._generator.send(event.value)
        except StopIteration as stop:
            self.trigger(stop.value)
            return
        self._wait_on(target)

    def _wait_on(self, target: Event) -> None:
        if not isinstance(target, Event):
            raise SimulationError(
                f"process yielded {type(target).__name__}, expected an Event"
            )
        if target.processed:
            # Deliver through the queue rather than synchronously, so long
            # chains of already-fired events cannot recurse the C stack.
            relay = Event(self.env)
            relay.callbacks.append(self._resume)
            relay.trigger(target.value)
            self._waiting_on = relay
        else:
            target.callbacks.append(self._resume)
            self._waiting_on = target

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its yield point.

        No-op if the process has already finished.  The event the process
        was waiting on is abandoned (its eventual firing no longer resumes
        this process); delivery happens through the queue at the current
        virtual time.
        """
        if self.triggered:
            return
        target = self._waiting_on
        if target is not None and self._resume in target.callbacks:
            target.callbacks.remove(self._resume)
        self._waiting_on = None
        relay = Event(self.env)
        relay.callbacks.append(self._throw_in)
        relay.trigger(cause)

    def _throw_in(self, event: Event) -> None:
        try:
            target = self._generator.throw(Interrupt(event.value))
        except StopIteration as stop:
            self.trigger(stop.value)
            return
        except Interrupt as exc:
            # Not caught by the generator: the process ends, its value is
            # the interrupt itself (waiters can inspect .cause).
            self.trigger(exc)
            return
        self._wait_on(target)


class AllOf(Event):
    """Fires when every child event has fired; value is the list of values."""

    __slots__ = ("_remaining", "_events")

    def __init__(self, env: "Environment", events: List[Event]) -> None:
        super().__init__(env)
        self._events = list(events)
        self._remaining = len(self._events)
        if self._remaining == 0:
            self.trigger([])
            return
        for child in self._events:
            child.wait(self._child_done)

    def _child_done(self, event: Event) -> None:
        self._remaining -= 1
        if self._remaining == 0:
            self.trigger([e.value for e in self._events])


class Environment:
    """The virtual clock and event queue."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List = []
        self._counter = itertools.count()

    def _schedule(self, at: float, event: Event) -> None:
        heapq.heappush(self._heap, (at, next(self._counter), event))

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def event(self) -> Event:
        return Event(self)

    def process(self, generator: Generator) -> Process:
        return Process(self, generator)

    def all_of(self, events: List[Event]) -> AllOf:
        return AllOf(self, events)

    def step(self) -> None:
        at, _, event = heapq.heappop(self._heap)
        if at < self.now:
            raise SimulationError(f"time went backwards: {at} < {self.now}")
        self.now = at
        event._fire()

    def run(self) -> None:
        """Process events until the queue drains."""
        while self._heap:
            self.step()


class Resource:
    """A FIFO resource with integer capacity (CPU pool, GPU, NIC).

    ``acquire`` returns an event that fires when a slot is granted; pass the
    same event to ``release``.  ``busy_time`` integrates slot-seconds of use
    for utilization reporting.
    """

    def __init__(self, env: Environment, capacity: int, name: str = "resource") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiting: List[Event] = []
        self._grant_times = {}
        self.busy_time = 0.0

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiting)

    def acquire(self, key: Any = None, front: bool = False) -> Event:
        """Request a slot.

        key: accepted (and ignored) so callers can treat FIFO and
            fair-queued resources uniformly.
        front: queue-jump to the head of the line -- used by transfers
            continuing a multi-chunk payload, so a payload in flight
            finishes before the next one starts (otherwise chunking would
            round-robin *all* waiting payloads and destroy delivery order).
        """
        event = Event(self.env)
        if self._in_use < self.capacity:
            self._grant(event)
        elif front:
            self._waiting.insert(0, event)
        else:
            self._waiting.append(event)
        return event

    def _grant(self, event: Event) -> None:
        self._in_use += 1
        self._grant_times[event] = self.env.now
        event.trigger()

    def holds(self, request: Event) -> bool:
        """True if ``request`` has been granted and not yet released."""
        return request in self._grant_times

    def cancel(self, request: Event) -> None:
        """Withdraw an acquire that has not been granted yet.

        Interrupted processes use this to leave the queue cleanly; granted
        requests must be ``release``d instead.
        """
        if request in self._grant_times:
            raise SimulationError("cannot cancel a granted request; release it")
        if request in self._waiting:
            self._waiting.remove(request)

    def release(self, request: Event) -> None:
        if request not in self._grant_times:
            raise SimulationError("released a request that was never granted")
        self.busy_time += self.env.now - self._grant_times.pop(request)
        self._in_use -= 1
        if self._waiting:
            self._grant(self._waiting.pop(0))

    def utilization(self, horizon: float) -> float:
        """Average busy fraction over ``horizon`` seconds of virtual time."""
        if horizon <= 0:
            return 0.0
        return self.busy_time / (self.capacity * horizon)


class FairResource(Resource):
    """A resource that grants waiting requests round-robin across flows.

    Plain :class:`Resource` queues strictly FIFO, so a flow that bursts a
    thousand requests starves later arrivals until its burst drains --
    unrealistic for a network link shared by TCP-like flows.
    ``acquire(key)`` files the request under its flow; when a slot frees,
    the next grant comes from the next non-empty flow in rotation.
    """

    def __init__(self, env: Environment, capacity: int = 1, name: str = "fair") -> None:
        super().__init__(env, capacity, name)
        self._flow_queues: "OrderedDict[Any, List[Event]]" = OrderedDict()

    def acquire(self, key: Any = None, front: bool = False) -> Event:
        event = Event(self.env)
        if self._in_use < self.capacity:
            self._grant(event)
        elif front:
            # Continue the current payload of this flow ahead of the flow's
            # other waiters; the flow rotation itself is unaffected, so
            # other flows still interleave between chunks.
            self._flow_queues.setdefault(key, []).insert(0, event)
        else:
            self._flow_queues.setdefault(key, []).append(event)
        return event

    def cancel(self, request: Event) -> None:
        if request in self._grant_times:
            raise SimulationError("cannot cancel a granted request; release it")
        for key, queue in list(self._flow_queues.items()):
            if request in queue:
                queue.remove(request)
                if not queue:
                    del self._flow_queues[key]
                return

    def release(self, request: Event) -> None:
        if request not in self._grant_times:
            raise SimulationError("released a request that was never granted")
        self.busy_time += self.env.now - self._grant_times.pop(request)
        self._in_use -= 1
        if self._flow_queues:
            # Serve the flow at the front of the rotation, then move it to
            # the back (dropping it if its queue drained).
            key, queue = next(iter(self._flow_queues.items()))
            event = queue.pop(0)
            del self._flow_queues[key]
            if queue:
                self._flow_queues[key] = queue
            self._grant(event)

    @property
    def queue_length(self) -> int:
        return sum(len(q) for q in self._flow_queues.values())


def launch_training_processes(
    env: Environment,
    spec: ClusterSpec,
    work: Dict[int, SampleWork],
    batches: List[List[int]],
    model: ModelProfile,
    handles: JobHandles,
    timeline: Optional["Timeline"] = None,
    faults: Optional[FaultSchedule] = None,
    fault_report: Optional[FaultReport] = None,
    fallback_work: Optional[Callable[[int], SampleWork]] = None,
    tracer: Optional[Tracer] = None,
    epoch: int = 0,
) -> Dict[str, int]:
    """Register one training job's processes on ``env``.

    Returns the job's live traffic counter (key ``"bytes"``); the job is
    finished when the environment drains (or when the returned
    ``handles.gpu`` has processed ``len(batches)`` batches -- multi-job
    callers watch the counter dict's ``"done"`` flag).

    faults: optional fault schedule on virtual time.  When present (and
        non-empty), ``fallback_work`` must map a sample id to its split-0
        work so failed offloads can demote; observations accumulate into
        ``fault_report``.  An empty/None schedule takes the exact
        fault-free code path.
    tracer: optional per-sample span collector; ``epoch`` names the traces
        (trace id = sample id + epoch).  Emission never touches the event
        queue, so a run with a tracer simulates identically to one without.
    """
    traffic = {"bytes": 0, "done": 0}
    bandwidth = spec.bandwidth_bytes_per_s
    batch_ready = [env.event() for _ in batches]
    if faults is not None and faults.is_empty:
        faults = None
    if faults is not None and fallback_work is None:
        raise ValueError("fault injection needs fallback_work for demotions")
    report = fault_report if fault_report is not None else FaultReport()

    def sample_proc(item: SampleWork):
        trace = trace_id(item.sample_id, epoch) if tracer is not None else ""
        if tracer is not None:
            tracer.begin(
                trace, "sample.fetch", split=item.split, wire_bytes=item.wire_bytes,
                **handles.span_attrs(item.sample_id),
            )
        # Request leaves the compute node; half an RTT to arrive.
        yield env.timeout(spec.network_rtt_s / 2.0)
        if item.split > 0:
            if tracer is not None:
                tracer.begin(
                    trace, "storage.prefix", split=item.split,
                    **handles.span_attrs(item.sample_id),
                )
            pool = handles.storage_pool(item.sample_id)
            assert pool is not None  # split > 0 implies an offload-capable spec
            grant = pool.acquire()
            yield grant
            yield env.timeout(item.prefix_cpu_s * spec.storage_cpu_factor)
            pool.release(grant)
            if tracer is not None:
                tracer.end(trace, "storage.prefix", cpu_s=item.prefix_cpu_s)
        # Transmit in chunks: releasing the link between chunks lets
        # concurrent flows interleave (fair sharing) instead of
        # serializing whole payloads behind each other.
        payload_bytes = item.wire_bytes + spec.response_overhead_bytes
        if tracer is not None:
            tracer.begin(trace, "link.transmit", payload_bytes=payload_bytes)
        remaining = payload_bytes
        first_chunk = True
        while remaining > 0:
            chunk = min(remaining, spec.link_chunk_bytes)
            grant = handles.link.acquire(handles.flow_key, front=not first_chunk)
            yield grant
            yield env.timeout(chunk / bandwidth)
            handles.link.release(grant)
            remaining -= chunk
            first_chunk = False
        traffic["bytes"] += payload_bytes
        if tracer is not None:
            tracer.end(trace, "link.transmit")
        yield env.timeout(spec.network_rtt_s / 2.0)
        if item.suffix_cpu_s > 0:
            if tracer is not None:
                tracer.begin(trace, "compute.suffix")
            grant = handles.compute_cpu.acquire()
            yield grant
            yield env.timeout(item.suffix_cpu_s * spec.compute_cpu_factor)
            handles.compute_cpu.release(grant)
            if tracer is not None:
                tracer.end(trace, "compute.suffix", cpu_s=item.suffix_cpu_s)
        if tracer is not None:
            tracer.end(trace, "sample.fetch")

    # -- fault-aware variant ------------------------------------------------
    # Kept separate from sample_proc so the fault-free path stays
    # byte-identical (acceptance criterion: an empty schedule changes
    # nothing, not even float rounding order).

    active_offloads: Dict[object, int] = {}  # prefix Process -> sample id
    message_counter = itertools.count()

    def crash_watch(window):
        yield env.timeout(window.start)
        victims = [p for p in list(active_offloads) if not p.triggered]
        for proc in victims:
            report.crash_interrupts += 1
            if tracer is not None:
                tracer.instant(
                    trace_id(active_offloads.get(proc, -1), epoch),
                    "fault.crash_interrupt",
                )
            proc.interrupt("storage-crash")

    def prefix_proc(item: SampleWork):
        """Run the offloaded prefix; returns True unless interrupted."""
        pool = handles.storage_pool(item.sample_id)
        assert pool is not None  # split > 0 implies an offload-capable spec
        grant = pool.acquire()
        try:
            yield grant
            yield env.timeout(
                item.prefix_cpu_s
                * spec.storage_cpu_factor
                * faults.storage_cpu_factor(env.now)
            )
        except Interrupt:
            if pool.holds(grant):
                pool.release(grant)
            else:
                pool.cancel(grant)
            return False
        pool.release(grant)
        return True

    def transmit(payload_bytes: int):
        """Move one payload across the (possibly browned-out) link."""
        remaining = payload_bytes
        first_chunk = True
        while remaining > 0:
            chunk = min(remaining, spec.link_chunk_bytes)
            grant = handles.link.acquire(handles.flow_key, front=not first_chunk)
            yield grant
            factor = faults.bandwidth_factor(env.now)
            if factor < 1.0:
                report.brownout_chunks += 1
            yield env.timeout(chunk / (bandwidth * factor))
            handles.link.release(grant)
            remaining -= chunk
            first_chunk = False
        traffic["bytes"] += payload_bytes

    def faulty_sample_proc(item: SampleWork):
        trace = trace_id(item.sample_id, epoch) if tracer is not None else ""
        if tracer is not None:
            tracer.begin(
                trace, "sample.fetch", split=item.split, wire_bytes=item.wire_bytes,
                **handles.span_attrs(item.sample_id),
            )
        yield env.timeout((spec.network_rtt_s + faults.extra_rtt_s(env.now)) / 2.0)
        if item.split > 0:
            offloaded = False
            if faults.storage_down(env.now):
                # Fetch refused outright: the node is down right now.
                report.note_failure(env.now)
                if tracer is not None:
                    tracer.instant(trace, "fault.storage_down")
            else:
                report.offload_attempts += 1
                if tracer is not None:
                    tracer.begin(
                        trace, "storage.prefix", split=item.split,
                        **handles.span_attrs(item.sample_id),
                    )
                proc = env.process(prefix_proc(item))
                active_offloads[proc] = item.sample_id
                outcome = yield proc
                active_offloads.pop(proc, None)
                offloaded = outcome is True
                if tracer is not None:
                    tracer.end(
                        trace,
                        "storage.prefix",
                        outcome="ok" if offloaded else "interrupted",
                    )
                if offloaded:
                    report.note_success(env.now)
                else:
                    report.note_failure(env.now)
            if not offloaded:
                # Degrade to No-Off: raw fetch + local preprocessing.  The
                # sample is served either way -- never lost.
                report.demoted_samples += 1
                if tracer is not None:
                    tracer.instant(trace, "fault.demote", planned_split=item.split)
                item = fallback_work(item.sample_id)
        payload_bytes = item.wire_bytes + spec.response_overhead_bytes
        if tracer is not None:
            tracer.begin(trace, "link.transmit", payload_bytes=payload_bytes)
        for send in range(_MAX_PAYLOAD_SENDS):
            yield from transmit(payload_bytes)
            if not faults.corrupts(next(message_counter)):
                break
            # Checksum caught a damaged payload: it never reaches the
            # pipeline; the re-transmission's bytes count as traffic.
            report.corrupted_payloads += 1
            if send + 1 < _MAX_PAYLOAD_SENDS:
                report.corrupt_retries += 1
            if tracer is not None:
                tracer.instant(trace, "fault.corruption", send=send)
        if tracer is not None:
            tracer.end(trace, "link.transmit")
        yield env.timeout((spec.network_rtt_s + faults.extra_rtt_s(env.now)) / 2.0)
        if item.suffix_cpu_s > 0:
            if tracer is not None:
                tracer.begin(trace, "compute.suffix")
            grant = handles.compute_cpu.acquire()
            yield grant
            yield env.timeout(item.suffix_cpu_s * spec.compute_cpu_factor)
            handles.compute_cpu.release(grant)
            if tracer is not None:
                tracer.end(trace, "compute.suffix", cpu_s=item.suffix_cpu_s)
        if tracer is not None:
            tracer.end(trace, "sample.fetch")

    make_sample_proc = sample_proc if faults is None else faulty_sample_proc

    def batch_proc(index: int, ids: List[int]):
        token = handles.prefetch.acquire()
        yield token
        children = [env.process(make_sample_proc(work[i])) for i in ids]
        yield env.all_of(children)
        if timeline is not None:
            timeline.trace(index).ready_at = env.now
        batch_ready[index].trigger(token)

    def gpu_proc():
        for index, ids in enumerate(batches):
            yield batch_ready[index]
            token = batch_ready[index].value
            grant = handles.gpu.acquire()
            yield grant
            if timeline is not None:
                timeline.trace(index).gpu_start = env.now
            if tracer is not None:
                tracer.begin(
                    f"b{index}-e{epoch}", "gpu.batch", batch=index,
                    **handles.span_attrs(),
                )
            yield env.timeout(model.batch_time_s(len(ids)))
            if timeline is not None:
                timeline.trace(index).gpu_end = env.now
            if tracer is not None:
                tracer.end(f"b{index}-e{epoch}", "gpu.batch")
            handles.gpu.release(grant)
            handles.prefetch.release(token)
        traffic["done"] = 1
        traffic["finished_at"] = env.now
        if timeline is not None:
            timeline.epoch_end = env.now

    for index, ids in enumerate(batches):
        env.process(batch_proc(index, ids))
    env.process(gpu_proc())
    if faults is not None:
        for window in faults.crashes:
            env.process(crash_watch(window))
    return traffic
