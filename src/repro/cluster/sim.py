"""A minimal callback-driven discrete-event simulation kernel.

Callbacks fire in ``(time, sequence)`` order off a binary heap.  The
kernel is the clock (:class:`Environment`) and FIFO and fair-queued
resources; there are no event objects.  The cursor engine
(:mod:`repro.cluster.engine`) drives it for every
:class:`~repro.cluster.trainer.TrainerSim` epoch; generator processes
and events survive only in the frozen seed kernel,
:mod:`repro.cluster.refsim`.

Every entry pops at the (time, sequence) position the seed kernel would
have popped it, which keeps the two byte-identical on every
:class:`~repro.cluster.trainer.EpochStats` field.  What makes it faster:

- **Bare callback entries.**  Where the seed kernel allocated a relay
  event to wake a process, callers push a ``(time, sequence, fn, arg)``
  heap entry via :meth:`Environment._call_at`; popping it calls
  ``fn(arg)``, with no object in between.
- **Event-free grants.**  A resource grant pushes the waiter's wake
  callback, with the holder as its argument, at the position where the
  seed kernel pushed its grant event; grants are keyed by the holder, so
  no request object exists at all.
- **Same-instant wakes run inline.**  While ``run()`` drains, a wake at
  ``now`` that its caller pushes as its very last action runs at once
  when no heap entry is due at ``now`` (:meth:`Environment._tail_call`):
  it would have been the very next pop, and skipping its sequence number
  shifts every later one uniformly, so pop order is unchanged.
- **O(1) queue discipline.**  Resource wait queues are deques.
- **A tight drain loop.**  ``run()`` binds the heap and ``heappop``
  locally.
- **No collector passes mid-drain.**  The engine builds no reference
  cycles (``tests/cluster/test_engine_gc.py``), so ``run()`` pauses the
  cycle collector while it drains and restores it on the way out; its
  allocation-triggered passes would otherwise scan every live object
  and find nothing.
"""

import gc
import itertools
from collections import OrderedDict, deque
from heapq import heappop, heappush
from typing import Any, Callable, Deque, Hashable, List, Tuple

__all__ = [
    "Environment",
    "FairResource",
    "Resource",
    "SimulationError",
]


class SimulationError(RuntimeError):
    """A caller misused the kernel (e.g. released a slot it never held)."""


#: A scheduled callback: called with the argument pushed alongside it.
Wake = Callable[[Any], None]


class Environment:
    """The virtual clock and event queue.

    Heap entries are ``(time, sequence, fn, arg)`` tuples; popping one
    calls ``fn(arg)``.  ``_counter`` hands out the sequence numbers, so
    after a run its next value is the number of pushes the run made.
    ``_draining`` is True only inside :meth:`run`.
    """

    __slots__ = ("now", "_heap", "_counter", "_draining")

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List[Tuple[float, int, Wake, Any]] = []
        self._counter = itertools.count()
        self._draining = False

    def _call_at(self, at: float, fn: Wake, arg: Any = None) -> None:
        """Schedule ``fn(arg)`` at virtual time ``at``."""
        heappush(self._heap, (at, next(self._counter), fn, arg))

    def _tail_call(self, fn: Wake, arg: Any = None) -> None:
        """Schedule ``fn(arg)`` at ``now``, or call it if it is the next pop.

        Only for a caller's very last action, with nothing left to do in
        any frame up to the drain loop.  While :meth:`run` drains and no
        entry is due at ``now``, the entry would pop next, so calling it
        here is the same simulation minus one push.  Otherwise -- or
        outside ``run()`` -- it is pushed.
        """
        heap = self._heap
        if self._draining and (not heap or heap[0][0] > self.now):
            fn(arg)
        else:
            heappush(heap, (self.now, next(self._counter), fn, arg))

    def run(self) -> None:
        """Process events until the queue drains.

        A tight loop with local bindings and no per-event dispatch.  Heap
        order guarantees non-decreasing times (every push is at ``now`` or
        ``now + delay`` with ``delay >= 0``), so no monotonicity check.
        The cycle collector is off while it drains and back on afterwards
        if it was on before.
        """
        heap = self._heap
        pop = heappop
        self._draining = True
        collecting = gc.isenabled()
        gc.disable()
        try:
            while heap:
                at, _, fn, arg = pop(heap)
                self.now = at
                fn(arg)
        finally:
            self._draining = False
            if collecting:
                gc.enable()


def _drop(queue: Deque[Tuple[Hashable, Wake]], holder: Hashable) -> bool:
    """Remove ``holder``'s entry from a wait queue; False if it has none."""
    for index, (waiting, _) in enumerate(queue):
        if waiting is holder:
            del queue[index]
            return True
    return False


class Resource:
    """A FIFO resource with integer capacity (CPU pool, GPU, NIC).

    ``request(holder, wake)`` asks for a slot on behalf of ``holder`` (any
    hashable object: a waiting cursor, or a batch index for prefetch
    tokens); when the slot is granted, ``wake(holder)`` is scheduled at
    the grant instant -- immediately if a slot is free, else when a
    ``release`` hands one over -- so a cursor can pass its class's plain
    step function and keep no bound method.  An immediate grant goes
    through :meth:`Environment._tail_call`, so call ``request`` as the
    last action of a queued callback: its wake may run before
    ``request`` returns.
    ``release``, ``cancel`` and ``holds`` take the same holder, which has
    at most one request per resource at a time.
    ``busy_time`` integrates slot-seconds of use for utilization
    reporting.  The wait queue is a deque of ``(holder, wake)`` pairs and
    grant timestamps live in a dict keyed by holder, so request, release
    and queue-jump are all O(1).
    """

    __slots__ = ("env", "capacity", "name", "_in_use", "_waiting", "_grant_times", "busy_time")

    def __init__(self, env: Environment, capacity: int, name: str = "resource") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiting: Deque[Tuple[Hashable, Wake]] = deque()
        self._grant_times: dict = {}
        self.busy_time = 0.0

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiting)

    def request(self, holder: Hashable, wake: Wake, key: Any = None, front: bool = False) -> None:
        """Ask for a slot; ``wake`` is pushed when ``holder`` gets it.

        key: accepted (and ignored) so callers can treat FIFO and
            fair-queued resources uniformly.
        front: queue-jump to the head of the line -- used by transfers
            continuing a multi-chunk payload, so a payload in flight
            finishes before the next one starts (otherwise chunking would
            round-robin *all* waiting payloads and destroy delivery order).
        """
        if self._in_use < self.capacity:
            self._in_use += 1
            env = self.env
            self._grant_times[holder] = env.now
            env._tail_call(wake, holder)
        elif front:
            self._waiting.appendleft((holder, wake))
        else:
            self._waiting.append((holder, wake))

    def holds(self, holder: Hashable) -> bool:
        """True if ``holder`` has been granted a slot and not yet released it."""
        return holder in self._grant_times

    def cancel(self, holder: Hashable) -> None:
        """Withdraw a request that has not been granted yet.

        Interrupted cursors use this to leave the queue cleanly; granted
        requests must be ``release``d instead.  A holder with no request
        waiting is left alone.
        """
        if holder in self._grant_times:
            raise SimulationError("cannot cancel a granted request; release it")
        _drop(self._waiting, holder)

    def release(self, holder: Hashable, tail: bool = False) -> None:
        """Return ``holder``'s slot; the next waiter, if any, is granted it.

        tail: the release is the caller's very last action, so a waiter
            handed the slot wakes through :meth:`Environment._tail_call`
            instead of a pushed entry.
        """
        grant_times = self._grant_times
        granted_at = grant_times.pop(holder, None)
        if granted_at is None:
            raise SimulationError("released a request that was never granted")
        env = self.env
        now = env.now
        self.busy_time += now - granted_at
        if not self._waiting:
            self._in_use -= 1
            return
        # Hand the slot straight over: in_use stays the same.
        waiter, wake = self._waiting.popleft()
        grant_times[waiter] = now
        if tail:
            env._tail_call(wake, waiter)
        else:
            env._call_at(now, wake, waiter)

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
    ``request(holder, wake, key)`` files the request under its flow; when
    a slot frees, the next grant comes from the next non-empty flow in
    rotation.
    """

    __slots__ = ("_flow_queues",)

    def __init__(self, env: Environment, capacity: int = 1, name: str = "fair") -> None:
        super().__init__(env, capacity, name)
        self._flow_queues: "OrderedDict[Any, Deque[Tuple[Hashable, Wake]]]" = OrderedDict()

    def request(self, holder: Hashable, wake: Wake, key: Any = None, front: bool = False) -> None:
        if self._in_use < self.capacity:
            super().request(holder, wake)  # granted at once
            return
        queue = self._flow_queues.get(key)
        if queue is None:
            queue = self._flow_queues[key] = deque()
        if front:
            # Continue the current payload of this flow ahead of the flow's
            # other waiters; the flow rotation itself is unaffected, so
            # other flows still interleave between chunks.
            queue.appendleft((holder, wake))
        else:
            queue.append((holder, wake))

    def cancel(self, holder: Hashable) -> None:
        if holder in self._grant_times:
            raise SimulationError("cannot cancel a granted request; release it")
        for key, queue in list(self._flow_queues.items()):
            if _drop(queue, holder):
                if not queue:
                    del self._flow_queues[key]
                return

    def release(self, holder: Hashable, tail: bool = False) -> None:
        super().release(holder)  # the FIFO queue stays empty: frees the slot
        if self._flow_queues:
            # Serve the flow at the front of the rotation, then move it to
            # the back (dropping it if its queue drained).
            key, queue = next(iter(self._flow_queues.items()))
            waiter, wake = queue.popleft()
            del self._flow_queues[key]
            if queue:
                self._flow_queues[key] = queue
            # Re-take the slot for it.  The flow rotation hands over
            # through a pushed wake, in tail position or not.
            self._in_use += 1
            env = self.env
            self._grant_times[waiter] = env.now
            env._call_at(env.now, wake, waiter)

    @property
    def queue_length(self) -> int:
        return sum(len(q) for q in self._flow_queues.values())
