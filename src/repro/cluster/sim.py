"""A minimal callback-driven discrete-event simulation kernel.

Events carry callback lists; the environment fires them in ``(time,
sequence)`` order off a binary heap.  The cursor engine
(:mod:`repro.cluster.engine`) drives it for every
:class:`~repro.cluster.trainer.TrainerSim` epoch; generator processes
survive only in the frozen seed kernel, :mod:`repro.cluster.refsim`.

Every push lands at the (time, sequence) position the seed kernel would
have used, which keeps the two byte-identical on every
:class:`~repro.cluster.trainer.EpochStats` field.  What makes it faster:

- **Slot-based callbacks.**  Where the seed kernel allocated a relay
  :class:`Event` to wake a process, callers push a two-slot
  :class:`_Callback` via :meth:`Environment._call_at`; fired slots are
  recycled through a free list.
- **O(1) queue discipline.**  Resource wait queues are deques.
- **A tight drain loop.**  ``run()`` binds the heap and ``heappop``
  locally.
"""

import heapq
import itertools
from collections import OrderedDict, deque
from typing import Any, Callable, Deque, List, Optional

__all__ = [
    "Environment",
    "Event",
    "FairResource",
    "Resource",
    "SimulationError",
]


class SimulationError(RuntimeError):
    """A caller misused the kernel (e.g. triggered an event twice)."""


class _Callback:
    """A heap entry that calls ``fn(self)`` when it fires.

    The slot-based replacement for single-shot relay events: two slots, no
    callback list, recycled through :attr:`Environment._cb_pool` after
    firing.  ``fn`` may be cleared to ``None`` to neuter a pending entry
    (the engine's interrupt path abandons in-flight wakes this way).
    ``value`` mirrors :attr:`Event.value` so callback code can read it
    without caring which kind of entry woke it.
    """

    __slots__ = ("fn", "value")

    def __init__(self, fn: Optional[Callable[["_Callback"], None]], value: Any) -> None:
        self.fn = fn
        self.value = value

    def _fire(self) -> None:
        fn = self.fn
        if fn is not None:
            fn(self)


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
        env = self.env
        heapq.heappush(env._heap, (env.now, next(env._counter), self))
        return self

    def _fire(self) -> None:
        self.processed = True
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)


class Environment:
    """The virtual clock and event queue."""

    __slots__ = ("now", "_heap", "_counter", "_cb_pool")

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List = []
        self._counter = itertools.count()
        #: Free list of fired _Callback slots, recycled by the run loop.
        self._cb_pool: List[_Callback] = []

    def _call_at(
        self, at: float, fn: Callable[[_Callback], None], value: Any = None
    ) -> _Callback:
        """Schedule ``fn(slot)`` at virtual time ``at``.

        Allocation goes through the free list; the run loop recycles each
        slot after it fires.  The returned slot is only valid until then --
        holders that need to abandon it clear ``slot.fn`` instead of
        keeping it.
        """
        pool = self._cb_pool
        if pool:
            cb = pool.pop(-1)
            cb.fn = fn
            cb.value = value
        else:
            cb = _Callback(fn, value)
        heapq.heappush(self._heap, (at, next(self._counter), cb))
        return cb

    def event(self) -> Event:
        return Event(self)

    def run(self) -> None:
        """Process events until the queue drains.

        A tight loop with local bindings and no per-event dispatch.  Heap
        order guarantees non-decreasing times (every push is at ``now`` or
        ``now + delay`` with ``delay >= 0``), so no monotonicity check.
        """
        heap = self._heap
        pop = heapq.heappop
        pool = self._cb_pool
        pool_push = pool.append
        callback_cls = _Callback
        while heap:
            at, _, event = pop(heap)
            self.now = at
            event._fire()
            if event.__class__ is callback_cls:
                event.fn = None
                event.value = None
                pool_push(event)


class Resource:
    """A FIFO resource with integer capacity (CPU pool, GPU, NIC).

    ``acquire`` returns an event that fires when a slot is granted; pass the
    same event to ``release``.  ``busy_time`` integrates slot-seconds of use
    for utilization reporting.  Grant bookkeeping is slot-based: the wait
    queue is a deque and grant timestamps live in a dict keyed by request,
    so acquire/release/queue-jump are all O(1).
    """

    __slots__ = ("env", "capacity", "name", "_in_use", "_waiting", "_grant_times", "busy_time")

    def __init__(self, env: Environment, capacity: int, name: str = "resource") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiting: Deque[Event] = deque()
        self._grant_times: dict = {}
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
            self._waiting.appendleft(event)
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
            self._grant(self._waiting.popleft())

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

    __slots__ = ("_flow_queues",)

    def __init__(self, env: Environment, capacity: int = 1, name: str = "fair") -> None:
        super().__init__(env, capacity, name)
        self._flow_queues: "OrderedDict[Any, Deque[Event]]" = OrderedDict()

    def acquire(self, key: Any = None, front: bool = False) -> Event:
        event = Event(self.env)
        if self._in_use < self.capacity:
            self._grant(event)
            return event
        queue = self._flow_queues.get(key)
        if queue is None:
            queue = self._flow_queues[key] = deque()
        if front:
            # Continue the current payload of this flow ahead of the flow's
            # other waiters; the flow rotation itself is unaffected, so
            # other flows still interleave between chunks.
            queue.appendleft(event)
        else:
            queue.append(event)
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
            event = queue.popleft()
            del self._flow_queues[key]
            if queue:
                self._flow_queues[key] = queue
            self._grant(event)

    @property
    def queue_length(self) -> int:
        return sum(len(q) for q in self._flow_queues.values())
