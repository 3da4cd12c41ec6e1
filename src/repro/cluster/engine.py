"""The cursor engine: one training job's epoch on the DES.

:func:`launch_training_job` runs every ``run_epoch`` except
``kernel="reference"``, faults, spans and timeline included.  Each
sample, batch and GPU consumer is a ``__slots__`` cursor that holds its
own resource grants (prefetch tokens are held by batch index).  Heap
entries and grants call the cursor class's plain function with the
cursor as argument, so no cursor keeps a bound method of itself and a
drained epoch is freed by reference counting, with nothing left for the
cycle collector.  Spans go straight into the tracer's columns through
``Tracer.stamp`` at ``env.now``.

**The mirror contract.**  The cursors replay the seed launcher
(:func:`repro.cluster.refsim.launch_training_processes`) pop for pop:
every heap entry pops at the position the generator code's entry would
have popped, in the same order.  An entry that would be the very next
pop may run inline instead of being pushed
(:meth:`~repro.cluster.sim.Environment._tail_call`), entries whose pops
had no side effects (process-end events nobody waits on) are dropped,
and a batch's start entries, which pop back to back, are one entry.
Resource calls, fault accounting, span events and timeline entries
happen at the same transitions in the same order, so ``EpochStats``,
fault reports, span streams and timelines are byte-identical to
``kernel="reference"`` -- the contract ``repro.bench`` and the identity
tests gate.

=============================  ============================================
generator path                 cursor mirror
=============================  ============================================
``env.process(...)`` per       one launch entry per batch, tail-called by
sample of a batch              its prefetch grant; it runs each sample's
                               ``start`` in order
wait on ``timeout(d)``         ``heappush`` of ``(now + d, seq, handler,
                               cursor)`` on the job's pre-bound heap
wait on a ``grant``            ``resource.request(cursor, handler)``; the
                               grant schedules ``handler(cursor)`` where
                               the seed pushed its grant event
same-instant wake as a         ``Environment._tail_call``: inline if no
handler's last action          entry is due at ``now``, else pushed
last chunk's link hand-over    response pushed first, then
                               ``Resource.release(..., tail=True)``
                               (when the response is due later than
                               ``now``)
process end event              batch countdown (``_BatchRun.child_end``)
all-of join fires              all-done (``_BatchRun.all_done``)
``batch_ready[i].trigger()``   deliver entry (``_BatchRun.deliver``),
                               tail-called where ``trigger`` pushed the
                               event's fire: marks batch ``i`` delivered,
                               wakes the GPU if it waits on ``i``
``yield batch_ready[i]``       GPU parked on the job until the deliver
                               entry; relay entry if already delivered
process end (unused)           dropped (the pop had no side effects)
``crash_watch`` process        ``_CrashWatch``: start entry, then window entry
``prefix_proc`` sub-process    ``_PrefixRun`` (faulted runs only): start
                               tail-called by its sample, end calls the
                               sample's ``prefix_ended``
``proc.interrupt()``           mark the prefix thrown (its pending wake,
                               grant or timeout, fires as a no-op), push a
                               throw-in entry
``except Interrupt``           throw-in: ``release`` if the grant is held
                               by then, else ``cancel``
storage down at arrival        refusal: failure noted, sample demoted
demotion                       ``fallback_work``'s split-0 scalars
                               overwrite the sample's work
brownout in ``transmit``       chunk time ``chunk / (bandwidth * factor)``
corrupted payload              full re-send, capped at ``_MAX_PAYLOAD_SENDS``
``tracer.*`` / ``timeline.*``  same event, same transition, same order
                               (spans via ``Tracer.stamp``)
=============================  ============================================

One deliberate departure: the seed launcher raises "event triggered
twice" when two crash windows open at the same instant (the second
re-interrupts a prefix whose first interrupt is in flight).  The engine
treats a prefix already being interrupted as gone and simulates on.
"""

import itertools
from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from repro.cluster.sim import Environment, Resource
from repro.cluster.spec import ClusterSpec
from repro.faults.schedule import FaultReport, FaultSchedule
from repro.metrics.timeline import Timeline
from repro.telemetry.spans import BEGIN, END, INSTANT, Tracer, trace_id
from repro.workloads.models import ModelProfile

if TYPE_CHECKING:  # pragma: no cover -- trainer imports this module
    from repro.cluster.trainer import EpochWork, JobHandles, SampleWork

__all__ = ["launch_training_job"]

#: Retransmission cap per payload; only reachable when corruption_rate is
#: so close to 1 that the wire is unusable anyway.
_MAX_PAYLOAD_SENDS = 25


class _Job:
    """Shared per-job state every cursor reads (spec scalars and the work
    columns pre-bound).  ``stamp`` is the tracer's :meth:`Tracer.stamp`
    (None when untraced) and ``labels`` the job-wide span labels."""

    __slots__ = (
        "env", "heap", "counter", "handles", "link", "compute_cpu", "splits", "wire_bytes",
        "prefix_cpu_s", "suffix_cpu_s", "batches", "model", "traffic", "delivered", "waiting_gpu",
        "rtt", "rtt_half", "storage_cpu_factor", "compute_cpu_factor", "bandwidth",
        "link_chunk", "overhead", "flow_key", "timeline", "stamp", "labels", "epoch",
        "faults", "report", "fallback_work", "active_offloads", "messages",
    )

    def __init__(
        self, env: Environment, spec: ClusterSpec, work: "EpochWork",
        batches: List[List[int]], model: ModelProfile, handles: "JobHandles",
        timeline: Optional[Timeline], faults: Optional[FaultSchedule], report: FaultReport,
        fallback_work: Optional[Callable[[int], "SampleWork"]], tracer: Optional[Tracer],
        epoch: int,
    ) -> None:
        self.env = env
        # Timed entries go straight onto the environment's heap.
        self.heap = env._heap
        self.counter = env._counter
        self.handles = handles
        self.link = handles.link
        self.compute_cpu = handles.compute_cpu
        self.splits = work.split
        self.wire_bytes = work.wire_bytes
        self.prefix_cpu_s = work.prefix_cpu_s
        self.suffix_cpu_s = work.suffix_cpu_s
        self.batches = batches
        self.model = model
        self.traffic: Dict[str, Any] = {"bytes": 0, "done": 0}
        self.delivered = [False] * len(batches)
        self.waiting_gpu: Optional["_GpuRun"] = None
        self.rtt = spec.network_rtt_s
        self.rtt_half = spec.network_rtt_s / 2.0
        self.storage_cpu_factor = spec.storage_cpu_factor
        self.compute_cpu_factor = spec.compute_cpu_factor
        self.bandwidth = spec.bandwidth_bytes_per_s
        self.link_chunk = spec.link_chunk_bytes
        self.overhead = spec.response_overhead_bytes
        self.flow_key = handles.flow_key
        self.timeline = timeline
        self.stamp = tracer.stamp if tracer is not None else None
        self.labels = handles.span_attrs()
        self.epoch = epoch
        self.faults = faults
        self.report = report
        self.fallback_work = fallback_work
        #: In-flight prefixes a crash window may interrupt, in start order.
        self.active_offloads: Dict["_PrefixRun", int] = {}
        self.messages = itertools.count()

    def half_rtt(self) -> float:
        """One-way request/response latency at the current instant."""
        if self.faults is None:
            return self.rtt_half
        return (self.rtt + self.faults.extra_rtt_s(self.env.now)) / 2.0

    def sample_labels(self, sample_id: int) -> Dict[str, object]:
        """Span labels for one sample: the job's, plus its shard if sharded."""
        if self.handles.shard_of is None:
            return self.labels
        return self.handles.span_attrs(sample_id)


class _SampleRun:
    """One sample's fetch, mirroring the seed's per-sample process.

    Each wait point of the seed's process is a plain function taking the
    cursor: a heap entry or grant calls the one for the wait it ends, so
    no state field is dispatched on.  The sample's four work scalars are
    copied from the job's columns at launch; a demotion overwrites them
    with the split-0 fallback.  The cursor itself is the holder of every
    grant it waits on.  Without faults the prefix runs inline (the seed's
    fault-free process has no sub-process); with faults it runs as a
    :class:`_PrefixRun`.
    """

    __slots__ = ("job", "sample_id", "split", "wire_bytes", "prefix_cpu_s", "suffix_cpu_s",
                 "batch", "pool", "remaining", "payload", "sends", "trace")

    def __init__(self, job: _Job, sample_id: int, batch: "_BatchRun") -> None:
        self.job = job
        self.sample_id = sample_id
        self.split = job.splits[sample_id]
        self.wire_bytes = job.wire_bytes[sample_id]
        self.prefix_cpu_s = job.prefix_cpu_s[sample_id]
        self.suffix_cpu_s = job.suffix_cpu_s[sample_id]
        self.batch = batch
        self.pool: Optional[Resource] = None
        self.remaining = 0
        self.payload = 0
        self.sends = 0
        self.trace = trace_id(sample_id, job.epoch) if job.stamp is not None else ""

    def start(self) -> None:
        """The process start: the request leaves for the storage node."""
        job = self.job
        env = job.env
        if job.stamp is not None:
            job.stamp(self.trace, "sample.fetch", BEGIN, env.now, {
                "split": self.split, "wire_bytes": self.wire_bytes,
                **job.sample_labels(self.sample_id),
            })
        at = env.now + job.half_rtt()
        heappush(job.heap, (at, next(job.counter), _SampleRun.arrived, self))

    def arrived(self) -> None:
        """Half an RTT later the request reaches the storage node."""
        job = self.job
        env = job.env
        stamp = job.stamp
        if self.split == 0:
            self._start_transmit()
        elif job.faults is not None and job.faults.storage_down(env.now):
            # Fetch refused outright: the node is down right now.
            job.report.note_failure(env.now)
            if stamp is not None:
                stamp(self.trace, "fault.storage_down", INSTANT, env.now)
            self._demote()
            self._start_transmit()
        else:
            if stamp is not None:
                stamp(self.trace, "storage.prefix", BEGIN, env.now, {
                    "split": self.split, **job.sample_labels(self.sample_id),
                })
            if job.faults is not None:
                # A crash window may interrupt it: run it as a sub-process.
                job.report.offload_attempts += 1
                prefix = _PrefixRun(self)
                job.active_offloads[prefix] = self.sample_id
                env._tail_call(_PrefixRun.start, prefix)
                return
            pool = job.handles.storage_pool(self.sample_id)
            assert pool is not None  # split > 0 implies an offload-capable spec
            self.pool = pool
            pool.request(self, _SampleRun.prefix_granted)

    def prefix_granted(self) -> None:
        """A storage core is held: run the prefix (inline, fault-free)."""
        job = self.job
        at = job.env.now + self.prefix_cpu_s * job.storage_cpu_factor
        heappush(job.heap, (at, next(job.counter), _SampleRun.prefix_done, self))

    def prefix_done(self) -> None:
        job = self.job
        assert self.pool is not None
        self.pool.release(self)
        if job.stamp is not None:
            attrs = {"cpu_s": self.prefix_cpu_s}
            job.stamp(self.trace, "storage.prefix", END, job.env.now, attrs)
        self._start_transmit()

    def chunk_granted(self) -> None:
        """The link is held: one chunk crosses it."""
        job = self.job
        now = job.env.now
        chunk = self.remaining
        if chunk > job.link_chunk:
            chunk = job.link_chunk
        faults = job.faults
        if faults is None:
            at = now + chunk / job.bandwidth
        else:
            factor = faults.bandwidth_factor(now)
            if factor < 1.0:
                job.report.brownout_chunks += 1
            at = now + chunk / (job.bandwidth * factor)
        heappush(job.heap, (at, next(job.counter), _SampleRun.chunk_done, self))

    def chunk_done(self) -> None:
        job = self.job
        link = job.link
        chunk = self.remaining
        if chunk > job.link_chunk:
            chunk = job.link_chunk
        self.remaining -= chunk
        if self.remaining > 0:
            link.release(self)
            link.request(self, _SampleRun.chunk_granted, job.flow_key, True)
            return
        job.traffic["bytes"] += self.payload
        if job.faults is not None and self._corrupted():
            link.release(self)
            self._send()
            return
        now = job.env.now
        if job.stamp is not None:
            job.stamp(self.trace, "link.transmit", END, now)
        at = now + job.half_rtt()
        if at > now:
            # The response and the hand-over are due at different
            # instants, so their push order is free: hand over last.
            heappush(job.heap, (at, next(job.counter), _SampleRun.responded, self))
            link.release(self, True)
        else:
            link.release(self)
            heappush(job.heap, (at, next(job.counter), _SampleRun.responded, self))

    def responded(self) -> None:
        """The trailing half-RTT elapsed: the payload is on the compute node."""
        job = self.job
        if self.suffix_cpu_s > 0:
            if job.stamp is not None:
                job.stamp(self.trace, "compute.suffix", BEGIN, job.env.now)
            job.compute_cpu.request(self, _SampleRun.suffix_granted)
        else:
            self._finish()

    def suffix_granted(self) -> None:
        job = self.job
        at = job.env.now + self.suffix_cpu_s * job.compute_cpu_factor
        heappush(job.heap, (at, next(job.counter), _SampleRun.suffix_done, self))

    def suffix_done(self) -> None:
        job = self.job
        job.compute_cpu.release(self)
        if job.stamp is not None:
            attrs = {"cpu_s": self.suffix_cpu_s}
            job.stamp(self.trace, "compute.suffix", END, job.env.now, attrs)
        self._finish()

    def prefix_ended(self, prefix: "_PrefixRun") -> None:
        """The prefix sub-process's end entry (faulted runs)."""
        job = self.job
        env = job.env
        job.active_offloads.pop(prefix, None)
        if job.stamp is not None:
            outcome = "ok" if prefix.ok else "interrupted"
            job.stamp(self.trace, "storage.prefix", END, env.now, {"outcome": outcome})
        report = job.report
        if prefix.ok:
            report.note_success(env.now)
        else:
            report.note_failure(env.now)
            self._demote()
        self._start_transmit()

    def _demote(self) -> None:
        """Degrade to No-Off: raw fetch + local preprocessing, never lost."""
        job = self.job
        job.report.demoted_samples += 1
        if job.stamp is not None:
            attrs = {"planned_split": self.split}
            job.stamp(self.trace, "fault.demote", INSTANT, job.env.now, attrs)
        assert job.fallback_work is not None
        fallback = job.fallback_work(self.sample_id)
        self.split = fallback.split
        self.wire_bytes = fallback.wire_bytes
        self.prefix_cpu_s = fallback.prefix_cpu_s
        self.suffix_cpu_s = fallback.suffix_cpu_s

    def _start_transmit(self) -> None:
        job = self.job
        self.payload = self.wire_bytes + job.overhead
        if job.stamp is not None:
            attrs = {"payload_bytes": self.payload}
            job.stamp(self.trace, "link.transmit", BEGIN, job.env.now, attrs)
        self._send()

    def _send(self) -> None:
        """Queue the first chunk of one full send of the payload."""
        job = self.job
        self.remaining = self.payload
        job.link.request(self, _SampleRun.chunk_granted, job.flow_key)

    def _corrupted(self) -> bool:
        """Draw this send's corruption coin; True when the payload goes again.

        A damaged payload never reaches the pipeline; the re-send's bytes
        count as traffic, exactly as a checksum-triggered re-fetch would.
        """
        job = self.job
        assert job.faults is not None
        if not job.faults.corrupts(next(job.messages)):
            return False
        send = self.sends
        self.sends = send + 1
        job.report.corrupted_payloads += 1
        if self.sends < _MAX_PAYLOAD_SENDS:
            job.report.corrupt_retries += 1
        if job.stamp is not None:
            job.stamp(self.trace, "fault.corruption", INSTANT, job.env.now, {"send": send})
        return self.sends < _MAX_PAYLOAD_SENDS

    def _finish(self) -> None:
        job = self.job
        env = job.env
        if job.stamp is not None:
            job.stamp(self.trace, "sample.fetch", END, env.now)
        env._tail_call(_BatchRun.child_end, self.batch)


class _PrefixRun:
    """An offloaded prefix under fault injection (the seed's ``prefix_proc``).

    A sub-process of its sample -- a start entry its sample schedules,
    an end entry calling the sample's ``prefix_ended`` with this cursor --
    so a crash window can interrupt it wherever it waits.  Each wait point
    is a handler, as in :class:`_SampleRun`.  ``over`` is set once it ends
    or is interrupted: its pending wake (start, grant or timeout) then
    fires as a no-op and crash watches skip it.  ``ok`` is False if
    interrupted.
    """

    __slots__ = ("sample", "pool", "ok", "over")

    def __init__(self, sample: _SampleRun) -> None:
        self.sample = sample
        self.pool: Optional[Resource] = None
        self.ok = False
        self.over = False

    def start(self) -> None:
        # A crash entry due at the same instant may have popped first.
        if self.over:
            return
        sample = self.sample
        self.pool = pool = sample.job.handles.storage_pool(sample.sample_id)
        assert pool is not None  # split > 0 implies an offload-capable spec
        pool.request(self, _PrefixRun.granted)

    def granted(self) -> None:
        """A storage core is held: run the prefix for its CPU time."""
        if self.over:
            return
        sample = self.sample
        job = sample.job
        env = job.env
        assert job.faults is not None
        cpu_s = sample.prefix_cpu_s * job.storage_cpu_factor
        env._call_at(
            env.now + cpu_s * job.faults.storage_cpu_factor(env.now), _PrefixRun.done, self
        )

    def done(self) -> None:
        if self.over:
            return
        assert self.pool is not None
        self.pool.release(self)
        self.ok = True
        self._end()

    def interrupt(self) -> None:
        """Abandon the pending wait and deliver the crash through the queue."""
        self.over = True
        env = self.sample.job.env
        env._call_at(env.now, _PrefixRun.throw_in, self)

    def throw_in(self) -> None:
        # Never started: nothing requested.  Otherwise the grant may have
        # landed since the interrupt, so check before choosing.
        pool = self.pool
        if pool is not None:
            if pool.holds(self):
                pool.release(self)
            else:
                pool.cancel(self)
        self._end()

    def _end(self) -> None:
        self.over = True
        self.sample.job.env._tail_call(self.sample.prefix_ended, self)


class _CrashWatch:
    """One crash window's watcher: interrupts every prefix in flight."""

    __slots__ = ("job", "start")

    def __init__(self, job: _Job, start: float) -> None:
        self.job = job
        self.start = start
        job.env._call_at(job.env.now, _CrashWatch.arm, self)

    def arm(self) -> None:
        env = self.job.env
        env._call_at(env.now + self.start, _CrashWatch.fire, self)

    def fire(self) -> None:
        job = self.job
        for prefix, sample_id in list(job.active_offloads.items()):
            if prefix.over:
                continue
            job.report.crash_interrupts += 1
            if job.stamp is not None:
                job.stamp(
                    trace_id(sample_id, job.epoch), "fault.crash_interrupt", INSTANT, job.env.now
                )
            prefix.interrupt()


class _BatchRun:
    """One batch's prefetch-token wait and child join (``batch_proc``).

    The token's holder is the batch index, which the GPU consumer
    releases, so the GPU keeps no reference to this cursor."""

    __slots__ = ("job", "index", "ids", "pending")

    def __init__(self, job: _Job, index: int, ids: List[int]) -> None:
        self.job = job
        self.index = index
        self.ids = ids
        self.pending = 0
        job.env._call_at(job.env.now, _BatchRun.start, self)

    def start(self) -> None:
        # First resume: claim a prefetch-window token, wait for it.
        self.job.handles.prefetch.request(self.index, self.granted)

    def granted(self, _index: int) -> None:
        # Token granted.  The samples' start entries would pop back to
        # back from the first one's position, so one entry starts them all.
        self.job.env._tail_call(_BatchRun.launch, self)

    def launch(self) -> None:
        # Start every sample, join them via countdown (one child_end per
        # sample plays the child's process-end event; the final one stands
        # in for the all-of join).
        job = self.job
        self.pending = len(self.ids)
        for sample_id in self.ids:
            _SampleRun.start(_SampleRun(job, sample_id, self))
        if not self.ids:
            self.all_done()

    def child_end(self) -> None:
        self.pending -= 1
        if self.pending == 0:
            self.job.env._tail_call(_BatchRun.all_done, self)

    def all_done(self) -> None:
        job = self.job
        if job.timeline is not None:
            job.timeline.trace(self.index).ready_at = job.env.now
        job.env._tail_call(_BatchRun.deliver, self)

    def deliver(self) -> None:
        """The batch is ready: wake the GPU if it waits on this batch."""
        job = self.job
        job.delivered[self.index] = True
        gpu = job.waiting_gpu
        if gpu is not None and gpu.index == self.index:
            job.waiting_gpu = None
            gpu.ready()


class _GpuRun:
    """The in-order GPU consumer (``gpu_proc``), one handler per wait point.

    A batch the GPU asks for before it is delivered parks the cursor on
    the job (``waiting_gpu``) until :meth:`_BatchRun.deliver` wakes it;
    the job holds the cursor only while it waits, so a drained epoch
    leaves no cycle."""

    __slots__ = ("job", "index")

    def __init__(self, job: _Job) -> None:
        self.job = job
        self.index = 0
        job.env._call_at(job.env.now, _GpuRun.wait, self)

    def wait(self) -> None:
        """Wait for batch ``index`` (from the start entry and after each
        batch); past the last batch the epoch is over."""
        job = self.job
        env = job.env
        if self.index < len(job.batches):
            if job.delivered[self.index]:
                # Relay through the queue, like a process waiting on an
                # already-fired event.
                env._tail_call(_GpuRun.ready, self)
            else:
                job.waiting_gpu = self
            return
        job.traffic["done"] = 1
        job.traffic["finished_at"] = env.now
        if job.timeline is not None:
            job.timeline.epoch_end = env.now

    def ready(self) -> None:
        self.job.handles.gpu.request(self, _GpuRun.granted)

    def granted(self) -> None:
        job = self.job
        env = job.env
        index = self.index
        if job.timeline is not None:
            job.timeline.trace(index).gpu_start = env.now
        if job.stamp is not None:
            job.stamp(
                f"b{index}-e{job.epoch}", "gpu.batch", BEGIN, env.now,
                {"batch": index, **job.labels},
            )
        env._call_at(
            env.now + job.model.batch_time_s(len(job.batches[index])), _GpuRun.batch_done, self
        )

    def batch_done(self) -> None:
        job = self.job
        env = job.env
        index = self.index
        if job.timeline is not None:
            job.timeline.trace(index).gpu_end = env.now
        if job.stamp is not None:
            job.stamp(f"b{index}-e{job.epoch}", "gpu.batch", END, env.now)
        job.handles.gpu.release(self)
        job.handles.prefetch.release(index)
        self.index += 1
        self.wait()


def launch_training_job(
    env: Environment,
    spec: ClusterSpec,
    work: "EpochWork",
    batches: List[List[int]],
    model: ModelProfile,
    handles: "JobHandles",
    timeline: Optional[Timeline] = None,
    faults: Optional[FaultSchedule] = None,
    fault_report: Optional[FaultReport] = None,
    fallback_work: Optional[Callable[[int], "SampleWork"]] = None,
    tracer: Optional[Tracer] = None,
    epoch: int = 0,
) -> Dict[str, Any]:
    """Register one training job's epoch on ``env``.

    Returns the job's live traffic counter (key ``"bytes"``); multi-job
    callers watch its ``"done"`` flag and ``"finished_at"`` time.

    faults: optional fault schedule on virtual time.  When present (and
        non-empty), ``fallback_work`` must map a sample id to its split-0
        work so failed offloads can demote; observations accumulate into
        ``fault_report``.  An empty/None schedule simulates exactly the
        fault-free epoch.
    tracer: optional per-sample span collector; ``epoch`` names the traces
        (trace id = sample id + epoch).  Events are stamped with
        ``env.now`` through :meth:`Tracer.stamp`, so the tracer must not
        be written from another thread during the run.  Emission never
        touches the event queue, so a run with a tracer simulates
        identically to one without.
    timeline: optional per-batch timeline to fill in.
    """
    if faults is not None and faults.is_empty:
        faults = None
    if faults is not None and fallback_work is None:
        raise ValueError("fault injection needs fallback_work for demotions")
    report = fault_report if fault_report is not None else FaultReport()
    job = _Job(
        env, spec, work, batches, model, handles,
        timeline, faults, report, fallback_work, tracer, epoch,
    )
    for index, ids in enumerate(batches):
        _BatchRun(job, index, ids)
    _GpuRun(job)
    if faults is not None:
        for window in faults.crashes:
            _CrashWatch(job, window.start)
    return job.traffic
