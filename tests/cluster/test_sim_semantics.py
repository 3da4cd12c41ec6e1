"""Kernel-semantics regression suite: the contract the DES rewrite must keep.

These tests were pinned against the *seed* kernel before the performance
overhaul (see docs/performance.md) and encode its observable semantics.

- **Resource ordering** -- FIFO grant order under arbitrary interleavings
  of acquire / release / cancel / withdrawal, fair-queue rotation, busy
  time -- is shared by both kernels and parameterized over them.  These
  cases are driven through callbacks scheduled on the queue (the way the
  cursor engine drives the live kernel), so ``sim`` and the frozen
  ``refsim`` copy can never drift apart silently.  The two grant APIs
  differ -- ``sim`` keys grants by a holder and pushes its wake callback,
  ``refsim`` returns a grant ``Event`` -- and :func:`on_grant` hides that.
- **Events and generator processes** -- ``AllOf`` joins with
  already-fired children, interrupt delivery windows (including
  interrupting a process that already finished), and queue-mediated
  resumption -- live only in the seed kernel, so those cases run on
  ``refsim``.
"""

import random

import pytest

import repro.cluster.refsim as refsim
import repro.cluster.sim as optsim
from repro.cluster.refsim import Interrupt
from repro.cluster.sim import SimulationError

#: Both kernels must satisfy the resource contract.  ``sim`` is the live
#: (optimized) kernel; ``refsim`` is the byte-for-byte seed snapshot.
KERNELS = [pytest.param(optsim, id="sim"), pytest.param(refsim, id="refsim")]


@pytest.fixture(params=KERNELS)
def kernel(request):
    return request.param


@pytest.fixture(params=[pytest.param(refsim, id="refsim")])
def seed_kernel(request):
    """The only kernel that still runs generator processes."""
    return request.param


def call_at(env, at, fn):
    """Run ``fn()`` at virtual time ``at`` through the kernel's queue."""
    if isinstance(env, optsim.Environment):
        env._call_at(at, lambda _arg: fn())
    else:  # the seed kernel: a pre-triggered bare event on the heap
        event = refsim.Event(env)
        event.triggered = True
        event.callbacks.append(lambda _event: fn())
        env._schedule(at, event)


class Hook:
    """A grant's wake-up: runs ``fn()`` unless :func:`withdraw` disarmed it."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, _event):
        if self.fn is not None:
            self.fn()


def on_grant(env, res, fn, key=None, front=False):
    """Request a slot of ``res``; ``fn()`` runs when it is granted.

    Returns ``(request, hook)``: ``request`` is what ``release`` /
    ``cancel`` / ``holds`` take -- a fresh holder on ``sim``, the grant
    event on ``refsim`` -- and ``hook`` is the wake-up to unhook.
    """
    hook = Hook(fn)
    if isinstance(env, optsim.Environment):
        request = object()
        res.request(request, hook, key, front)
    else:
        request = res.acquire(key, front=front)
        request.callbacks.append(hook)
    return request, hook


def hold(env, res, duration, key=None, front=False, on_start=None, on_done=None):
    """Request, hold for ``duration``, release -- as queued callbacks."""

    def granted():
        if on_start is not None:
            on_start()

        def finish():
            res.release(request)
            if on_done is not None:
                on_done()

        call_at(env, env.now + duration, finish)

    request, _ = on_grant(env, res, granted, key, front)
    return request


def withdraw(env, res, request, hook):
    """Interrupt a request the way the engine does: unhook its wake-up,
    then -- through the queue -- release it if it was granted by then,
    otherwise cancel it.  On ``sim`` the wake may already be on the heap,
    so unhooking disarms it; on ``refsim`` it leaves the event's callbacks."""
    if hook is not None:
        if isinstance(env, optsim.Environment):
            hook.fn = None
        elif hook in request.callbacks:
            request.callbacks.remove(hook)
    call_at(
        env,
        env.now,
        lambda: res.release(request) if res.holds(request) else res.cancel(request),
    )


# ---------------------------------------------------------------------------
# Resource FIFO ordering under interleaved acquire / release / withdrawal
# ---------------------------------------------------------------------------


class TestResourceFifo:
    def test_grant_order_is_request_order(self, kernel):
        env = kernel.Environment()
        res = kernel.Resource(env, capacity=1)
        order = []
        for name in ("a", "b", "c", "d"):
            hold(env, res, 1.0, on_start=lambda name=name: order.append(name))
        env.run()
        assert order == ["a", "b", "c", "d"]

    def test_front_queues_ahead_of_waiters_but_behind_holder(self, kernel):
        env = kernel.Environment()
        res = kernel.Resource(env, capacity=1)
        order = []
        hold(env, res, 1.0)
        hold(env, res, 0.0, on_start=lambda: order.append("p1"))
        hold(env, res, 0.0, on_start=lambda: order.append("p2"))
        hold(env, res, 0.0, front=True, on_start=lambda: order.append("j"))
        env.run()
        assert order == ["j", "p1", "p2"]

    def test_interrupted_waiter_leaves_queue_without_consuming_slot(self, kernel):
        env = kernel.Environment()
        res = kernel.Resource(env, capacity=1)
        order = []
        hold(env, res, 2.0)
        victim, hook = on_grant(env, res, lambda: order.append("v"))
        hold(env, res, 0.0, on_start=lambda: order.append("w"))

        def interrupt():
            withdraw(env, res, victim, hook)
            order.append("v-interrupted")

        call_at(env, 1.0, interrupt)
        env.run()
        assert order == ["v-interrupted", "w"]
        assert res.in_use == 0
        assert res.queue_length == 0

    def test_interrupted_holder_releases_slot_to_next_waiter(self, kernel):
        env = kernel.Environment()
        res = kernel.Resource(env, capacity=1)
        order = []
        alive = {"holder": True}

        def holder_done():
            if alive["holder"]:  # the abandoned timeout fires into the void
                res.release(holder)

        holder, _ = on_grant(env, res, lambda: call_at(env, env.now + 10.0, holder_done))
        hold(env, res, 0.0, on_start=lambda: order.append(("waiter", env.now)))

        def interrupt():
            alive["holder"] = False
            withdraw(env, res, holder, None)
            order.append("holder-interrupted")

        call_at(env, 3.0, interrupt)
        env.run()
        assert order == ["holder-interrupted", ("waiter", 3.0)]

    def test_busy_time_survives_interleaved_interrupts(self, kernel):
        env = kernel.Environment()
        res = kernel.Resource(env, capacity=2)
        alive = {"doomed": True}
        doomed, _ = on_grant(
            env, res,
            lambda: call_at(
                env, env.now + 100.0,
                lambda: res.release(doomed) if alive["doomed"] else None,
            ),
        )
        hold(env, res, 2.0)
        call_at(env, 0.5, lambda: hold(env, res, 1.0))

        def interrupt():
            alive["doomed"] = False
            withdraw(env, res, doomed, None)

        call_at(env, 1.5, interrupt)
        env.run()
        # doomed held [0, 1.5], holder1 [0, 2.0], holder2 granted at 1.5
        # (capacity 2: slots busy until doomed dies) and held 1.0.
        assert res.busy_time == pytest.approx(1.5 + 2.0 + 1.0)

    def test_randomized_interleavings_match_fifo_model(self, kernel):
        """Property test: arbitrary acquire/release/withdrawal interleavings
        grant in request order, never exceed capacity, and leak nothing."""
        for trial in range(12):
            rng = random.Random(1000 + trial)
            env = kernel.Environment()
            capacity = rng.randint(1, 3)
            res = kernel.Resource(env, capacity=capacity)
            n = rng.randint(4, 12)
            grant_log = []
            request_log = []
            live = {"holding": 0, "peak": 0}
            workers = []

            class Worker:
                def __init__(self, name, start, hold_s):
                    self.name = name
                    self.hold_s = hold_s
                    self.state = "idle"
                    self.request = None
                    self.hook = None
                    call_at(env, start, self.arrive)

                def arrive(self):
                    if self.state != "idle":
                        return  # interrupted before it started
                    self.state = "waiting"
                    request_log.append(self.name)
                    self.request, self.hook = on_grant(env, res, self.granted)

                def granted(self):
                    self.state = "holding"
                    grant_log.append(self.name)
                    live["holding"] += 1
                    live["peak"] = max(live["peak"], live["holding"])
                    call_at(env, env.now + self.hold_s, self.finish)

                def finish(self):
                    if self.state != "holding":
                        return  # cut short by an interrupt
                    self.state = "done"
                    live["holding"] -= 1
                    res.release(self.request)

                def interrupt(self):
                    if self.state == "idle":
                        self.state = "done"
                    elif self.state == "waiting":
                        self.state = "done"
                        withdraw(env, res, self.request, self.hook)
                    elif self.state == "holding":
                        self.state = "done"
                        live["holding"] -= 1
                        withdraw(env, res, self.request, None)

            for i in range(n):
                workers.append(Worker(i, rng.random() * 4.0, rng.random() * 2.0))

            def chaos():
                rng.choice(workers).interrupt()
                if rng.random() >= 0.3:
                    call_at(env, env.now + rng.random() * 1.5, chaos)

            call_at(env, rng.random() * 1.5, chaos)
            env.run()
            assert live["peak"] <= capacity
            assert res.in_use == 0
            assert res.queue_length == 0
            # FIFO: the granted subsequence respects request order.
            positions = {name: i for i, name in enumerate(request_log)}
            granted_positions = [positions[name] for name in grant_log]
            assert granted_positions == sorted(granted_positions)


# ---------------------------------------------------------------------------
# AllOf joins
# ---------------------------------------------------------------------------


class TestAllOfSemantics:
    def test_all_children_already_fired(self, seed_kernel):
        env = seed_kernel.Environment()
        done = []

        def child(value):
            yield env.timeout(0.5)
            return value

        c1 = env.process(child(1))
        c2 = env.process(child(2))
        env.run()
        assert c1.processed and c2.processed

        def joiner():
            values = yield env.all_of([c1, c2])
            done.append(values)

        env.process(joiner())
        env.run()
        assert done == [[1, 2]]

    def test_mixed_fired_and_pending_children(self, seed_kernel):
        env = seed_kernel.Environment()
        done = []

        def fast():
            yield env.timeout(0.1)
            return "fast"

        def slow():
            yield env.timeout(5.0)
            return "slow"

        f = env.process(fast())
        s = env.process(slow())

        def joiner():
            yield env.timeout(1.0)  # fast already fired, slow pending
            assert f.processed and not s.processed
            values = yield env.all_of([f, s])
            done.append((env.now, values))

        env.process(joiner())
        env.run()
        assert done == [(5.0, ["fast", "slow"])]

    def test_empty_all_of_fires_at_current_time(self, seed_kernel):
        env = seed_kernel.Environment()
        done = []

        def joiner():
            yield env.timeout(2.0)
            values = yield env.all_of([])
            done.append((env.now, values))

        env.process(joiner())
        env.run()
        assert done == [(2.0, [])]

    def test_all_of_value_order_is_child_order_not_firing_order(self, seed_kernel):
        env = seed_kernel.Environment()
        done = []

        def child(delay, value):
            yield env.timeout(delay)
            return value

        slow = env.process(child(3.0, "slow"))
        fast = env.process(child(1.0, "fast"))

        def joiner():
            values = yield env.all_of([slow, fast])
            done.append(values)

        env.process(joiner())
        env.run()
        assert done == [["slow", "fast"]]


# ---------------------------------------------------------------------------
# Interrupt delivery windows
# ---------------------------------------------------------------------------


class TestInterruptDelivery:
    def test_interrupt_after_completion_is_noop(self, seed_kernel):
        env = seed_kernel.Environment()

        def quick():
            yield env.timeout(1.0)
            return "done"

        p = env.process(quick())
        env.run()
        assert p.processed and p.value == "done"
        p.interrupt("too late")  # must not raise, must not reschedule
        env.run()
        assert p.value == "done"

    def test_double_interrupt_delivers_both_or_ends_cleanly(self, seed_kernel):
        env = seed_kernel.Environment()
        caught = []

        def tough():
            try:
                yield env.timeout(10.0)
            except Interrupt as exc:
                caught.append(exc.cause)
            try:
                yield env.timeout(10.0)
            except Interrupt as exc:
                caught.append(exc.cause)

        p = env.process(tough())

        def killer():
            yield env.timeout(1.0)
            p.interrupt("first")
            yield env.timeout(1.0)
            p.interrupt("second")

        env.process(killer())
        env.run()
        assert caught == ["first", "second"]

    def test_uncaught_interrupt_becomes_process_value(self, seed_kernel):
        env = seed_kernel.Environment()

        def victim():
            yield env.timeout(10.0)

        p = env.process(victim())

        def killer():
            yield env.timeout(1.0)
            p.interrupt("cause-object")

        env.process(killer())
        env.run()
        assert p.processed
        assert isinstance(p.value, Interrupt)
        assert p.value.cause == "cause-object"

    def test_abandoned_event_still_fires_without_resuming_victim(self, seed_kernel):
        env = seed_kernel.Environment()
        resumed = []

        def victim():
            try:
                yield env.timeout(5.0)
                resumed.append("not-interrupted")
            except Interrupt:
                resumed.append("interrupted")

        p = env.process(victim())

        def killer():
            yield env.timeout(1.0)
            p.interrupt()

        env.process(killer())
        env.run()
        assert resumed == ["interrupted"]
        assert env.now == 5.0  # the abandoned timeout still drained

    def test_interrupt_delivery_goes_through_queue(self, seed_kernel):
        """interrupt() must not throw synchronously into the generator."""
        env = seed_kernel.Environment()
        log = []

        def victim():
            try:
                yield env.timeout(10.0)
            except Interrupt:
                log.append(("victim", env.now))

        p = env.process(victim())

        def killer():
            yield env.timeout(1.0)
            p.interrupt()
            log.append(("killer-after-interrupt-call", env.now))

        env.process(killer())
        env.run()
        # The killer's code after interrupt() runs before delivery.
        assert log == [("killer-after-interrupt-call", 1.0), ("victim", 1.0)]

    def test_interrupt_while_waiting_on_already_fired_event(self, seed_kernel):
        """The relay window: a process waiting on an *already processed*
        event sits on a same-time relay; an interrupt inside that window
        must win, and the abandoned relay must not resurrect it."""
        env = seed_kernel.Environment()
        log = []
        fired = env.event()
        fired.trigger("early")
        env.run()  # fired is processed before anyone waits on it
        assert fired.processed

        def victim():
            yield env.timeout(1.0)
            try:
                yield fired  # processed -> queued relay at t=1
                log.append("resumed")
            except Interrupt:
                log.append("interrupted")

        p = env.process(victim())

        def killer():
            # Scheduled after the victim, so at t=1 this runs while the
            # victim is parked on its relay.
            yield env.timeout(1.0)
            p.interrupt("window")

        env.process(killer())
        env.run()
        assert log == ["interrupted"]


# ---------------------------------------------------------------------------
# Queue-mediated resumption and error paths
# ---------------------------------------------------------------------------


class TestSchedulingDiscipline:
    def test_already_fired_event_resumes_after_queued_same_time_events(self, seed_kernel):
        env = seed_kernel.Environment()
        log = []
        fired = env.event()
        fired.trigger("early")

        def other():
            yield env.timeout(1.0)
            log.append("other")

        def waiter():
            yield env.timeout(1.0)
            value = yield fired  # processed long ago -> queue relay
            log.append(("waiter", value))

        env.process(waiter())
        env.process(other())
        env.run()
        # waiter's resumption is queued, so `other` (scheduled at the same
        # virtual time, earlier in FIFO order) runs first.
        assert log == ["other", ("waiter", "early")]

    def test_deep_chain_of_fired_events_does_not_recurse(self, seed_kernel):
        env = seed_kernel.Environment()
        fired = []
        for _ in range(4000):
            e = env.event()
            e.trigger()
            fired.append(e)
        env.run()

        def walker():
            for e in fired:
                yield e
            return "walked"

        p = env.process(walker())
        env.run()  # would blow the C stack if relays were synchronous
        assert p.value == "walked"

    def test_yielding_non_event_raises_simulation_error(self, seed_kernel):
        env = seed_kernel.Environment()

        def bad():
            yield 42

        env.process(bad())
        with pytest.raises(SimulationError):
            env.run()

    def test_event_cannot_trigger_twice(self, seed_kernel):
        env = seed_kernel.Environment()
        e = env.event()
        e.trigger()
        with pytest.raises(SimulationError):
            e.trigger()

    def test_release_unacquired_raises(self, kernel):
        env = kernel.Environment()
        res = kernel.Resource(env, capacity=1)
        with pytest.raises(SimulationError):
            res.release(object())

    def test_cancel_granted_request_raises(self, kernel):
        env = kernel.Environment()
        res = kernel.Resource(env, capacity=1)
        checked = []

        def granted():
            with pytest.raises(SimulationError):
                res.cancel(req)
            res.release(req)
            checked.append(True)

        req, _ = on_grant(env, res, granted)
        env.run()
        assert checked == [True]


class TestInlineWakes:
    """``sim`` runs a same-instant tail wake inline only when it would be
    the very next pop; everywhere else it queues, exactly as the seed did."""

    def test_request_outside_run_queues_its_wake(self):
        env = optsim.Environment()
        res = optsim.Resource(env, capacity=1)
        log = []
        res.request("holder", log.append)
        assert log == [] and res.holds("holder")
        env.run()
        assert log == ["holder"]

    def test_request_with_an_entry_due_now_queues_its_wake(self, kernel):
        env = kernel.Environment()
        res = kernel.Resource(env, capacity=1)
        log = []

        def ask():
            log.append("ask")
            on_grant(env, res, lambda: log.append("granted"))

        call_at(env, 1.0, ask)
        call_at(env, 1.0, lambda: log.append("due now"))
        env.run()
        assert log == ["ask", "due now", "granted"]

    def test_the_next_pop_runs_inline_in_the_same_order(self, kernel):
        env = kernel.Environment()
        res = kernel.Resource(env, capacity=1)
        log = []
        call_at(env, 1.0, lambda: on_grant(env, res, lambda: log.append(("granted", env.now))))
        call_at(env, 2.0, lambda: log.append(("later", env.now)))
        env.run()
        assert log == [("granted", 1.0), ("later", 2.0)]
        if kernel is optsim:  # the grant's wake was never pushed
            assert next(env._counter) == 2

    @pytest.mark.parametrize("tail", [False, True])
    def test_only_a_tail_release_hands_over_inline(self, tail):
        # One release body: ``release`` pushes the hand-over's wake, the
        # tail form runs it inline when it would be the next pop.
        env = optsim.Environment()
        res = optsim.Resource(env, capacity=1)
        log = []
        res.request("first", log.append)  # outside run(): pushed
        res.request("second", log.append)  # queued behind it
        call_at(env, 1.0, lambda: res.release("first", tail=tail))
        env.run()
        assert log == ["first", "second"] and res.holds("second")
        assert next(env._counter) == (2 if tail else 3)


# ---------------------------------------------------------------------------
# FairResource rotation
# ---------------------------------------------------------------------------


class TestFairResourceSemantics:
    @staticmethod
    def chunked(env, res, flow, chunks, order, continue_front):
        """A flow's requests one after another; each holds the link 1.0."""

        def send(index):
            if index == chunks:
                return
            hold(
                env, res, 1.0, key=flow, front=continue_front and index > 0,
                on_start=lambda: order.append((flow, index)),
                on_done=lambda: send(index + 1),
            )

        send(0)

    def test_rotation_interleaves_flows(self, kernel):
        env = kernel.Environment()
        res = kernel.FairResource(env, capacity=1)
        order = []
        self.chunked(env, res, "a", 3, order, continue_front=False)
        self.chunked(env, res, "b", 3, order, continue_front=False)
        env.run()
        # After the first grant the flows alternate.
        assert order[:4] == [("a", 0), ("b", 0), ("a", 1), ("b", 1)]

    def test_front_continues_payload_within_flow(self, kernel):
        env = kernel.Environment()
        res = kernel.FairResource(env, capacity=1)
        order = []
        self.chunked(env, res, "a", 2, order, continue_front=True)
        self.chunked(env, res, "b", 2, order, continue_front=True)
        env.run()
        flows = [f for f, _ in order]
        # Chunk continuation keeps intra-flow order while flows interleave.
        for flow in ("a", "b"):
            chunks = [i for f, i in order if f == flow]
            assert chunks == sorted(chunks)
        assert flows[0] != flows[1]  # rotation interleaved the two flows

    def test_cancelled_flow_request_drops_out(self, kernel):
        env = kernel.Environment()
        res = kernel.FairResource(env, capacity=1)
        order = []
        hold(env, res, 2.0, key="h")
        quitter, hook = on_grant(env, res, lambda: order.append("q"), "q")
        hold(env, res, 0.0, key="s", on_start=lambda: order.append("s"))
        call_at(env, 1.0, lambda: withdraw(env, res, quitter, hook))
        env.run()
        assert order == ["s"]
        assert res.queue_length == 0
