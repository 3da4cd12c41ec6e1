"""The bounded worker queue between request handlers and planner workers.

Handler threads (one per in-flight HTTP request) never run the decision
engine themselves: they enqueue a :class:`PlanTask` and block on its
completion event until the deadline.  Worker threads drain the queue.
The queue is *bounded* on purpose -- when profiling falls behind the
arrival rate the right failure mode is to shed new work immediately
(:class:`QueueFullError` becomes a 503 with ``Retry-After``), not to grow
an unbounded backlog of requests whose clients have long timed out.
"""

import dataclasses
import queue
import threading
from typing import Dict, Optional

from repro.telemetry.flight import FlightRecorder
from repro.telemetry.registry import get_default_registry


class QueueFullError(Exception):
    """The work queue is at capacity; the request must be shed."""


@dataclasses.dataclass
class PlanTask:
    """One queued plan request and the slot its response lands in.

    deadline_at: absolute time (service clock) after which nobody is
        waiting; workers drop expired tasks without planning.
    abandoned: set by :meth:`abandon` when the handler stops waiting (its
        client's deadline passed); the worker then skips the task, or
        rolls back its ledger commitment if it had already made one.
    claimed: set by :meth:`claim` when the worker is about to journal a
        grant; the handler then waits for that answer instead of a 504.
    """

    request: Dict[str, object]
    enqueued_at: float
    deadline_at: Optional[float] = None
    done: threading.Event = dataclasses.field(default_factory=threading.Event)
    status: int = 0
    body: Dict[str, object] = dataclasses.field(default_factory=dict)
    retry_after_s: Optional[float] = None
    outcome: str = "pending"
    abandoned: bool = False
    claimed: bool = False
    #: Trace id from the request's ``X-Sophon-Trace`` header (if any);
    #: the queue brackets this task's wait with ``service.queue_wait``.
    trace_id: Optional[str] = None
    _lock: threading.Lock = dataclasses.field(default_factory=threading.Lock, repr=False)

    def claim(self) -> bool:
        """Worker side: take the task for granting, unless it was abandoned."""
        with self._lock:
            if not self.abandoned:
                self.claimed = True
            return self.claimed

    def abandon(self) -> bool:
        """Handler side: give up on the task, unless a worker has claimed it."""
        with self._lock:
            if not self.claimed:
                self.abandoned = True
            return self.abandoned

    def finish(
        self,
        status: int,
        body: Dict[str, object],
        outcome: str,
        retry_after_s: Optional[float] = None,
    ) -> None:
        self.status = status
        self.body = body
        self.outcome = outcome
        self.retry_after_s = retry_after_s
        self.done.set()


#: Sentinel a worker interprets as "stop draining and exit".
_STOP = object()


class BoundedWorkQueue:
    """A capacity-capped FIFO with shed accounting and depth telemetry.

    The bound applies to :class:`PlanTask` submissions only; stop
    sentinels always land (a full queue must never block shutdown), so
    the backing queue is unbounded and the capacity check is explicit.
    """

    def __init__(
        self, capacity: int, recorder: Optional[FlightRecorder] = None
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        #: Flight recorder receiving ``service.queue_wait`` spans for
        #: traced tasks; the service attaches its own after construction.
        self.recorder = recorder
        self._queue: "queue.Queue[object]" = queue.Queue()
        self._lock = threading.Lock()
        self._pending_tasks = 0
        self.shed_count = 0
        self.max_depth = 0

    @property
    def depth(self) -> int:
        """Plan tasks waiting for a worker (sentinels excluded)."""
        with self._lock:
            return self._pending_tasks

    def submit(self, task: PlanTask) -> None:
        """Enqueue ``task`` or raise :class:`QueueFullError` immediately."""
        registry = get_default_registry()
        with self._lock:
            if self._pending_tasks >= self.capacity:
                self.shed_count += 1
                full = True
            else:
                self._pending_tasks += 1
                depth = self._pending_tasks
                if depth > self.max_depth:
                    self.max_depth = depth
                full = False
        if full:
            registry.counter(
                "service_shed_total", "plan requests shed by cause",
                labels=["cause"],
            ).inc(cause="queue_full")
            if self.recorder is not None and task.trace_id is not None:
                self.recorder.instant(
                    task.trace_id, "service.shed", cause="queue_full"
                )
            raise QueueFullError(
                f"work queue at capacity ({self.capacity}); shedding"
            )
        if self.recorder is not None and task.trace_id is not None:
            self.recorder.begin(task.trace_id, "service.queue_wait", depth=depth)
        self._queue.put(task)
        registry.gauge(
            "service_queue_depth", "plan requests waiting for a worker"
        ).set(depth)

    def take(self, timeout: Optional[float] = 0.1) -> Optional[PlanTask]:
        """Next task for a worker; None on timeout or stop sentinel."""
        try:
            item = self._queue.get(timeout=timeout)
        except queue.Empty:
            return None
        if item is _STOP:
            self._queue.task_done()
            return None
        assert isinstance(item, PlanTask)
        with self._lock:
            self._pending_tasks -= 1
            depth = self._pending_tasks
        get_default_registry().gauge(
            "service_queue_depth", "plan requests waiting for a worker"
        ).set(depth)
        if self.recorder is not None and item.trace_id is not None:
            self.recorder.end(item.trace_id, "service.queue_wait")
        return item

    def task_done(self) -> None:
        self._queue.task_done()

    def push_stop(self, count: int = 1) -> None:
        """Wake ``count`` workers with stop sentinels (bypasses the bound)."""
        for _ in range(count):
            self._queue.put(_STOP)

    def join(self) -> None:
        """Block until every submitted task has been processed."""
        self._queue.join()

    def drain_pending(self) -> int:
        """Drop every queued task (hard kill); returns how many were dropped.

        Each dropped task is finished with a 503 so any handler thread
        still waiting on it wakes up instead of hanging until timeout.
        """
        dropped = 0
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return dropped
            if isinstance(item, PlanTask):
                item.finish(
                    503, {"error": "service killed"}, outcome="killed"
                )
                if self.recorder is not None and item.trace_id is not None:
                    self.recorder.end(
                        item.trace_id, "service.queue_wait", outcome="killed"
                    )
                dropped += 1
                with self._lock:
                    self._pending_tasks -= 1
            self._queue.task_done()
