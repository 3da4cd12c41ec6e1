"""Discrete-event simulation kernel tests.

The live kernel (:mod:`repro.cluster.sim`) is callback-driven: bare
``_call_at`` heap entries and resources whose grants push the holder's
wake callback.  Its cases below drive it the way the cursor engine
does.  Events, generator processes, timeouts, all-of joins and
interrupts survive only in the frozen seed kernel
(:mod:`repro.cluster.refsim`), so those cases run there.
"""

import pytest

from repro.cluster import refsim
from repro.cluster.refsim import Interrupt
from repro.cluster.sim import Environment, FairResource, Resource, SimulationError


def after(env, delay, fn):
    """Run ``fn()`` ``delay`` virtual seconds from now (one heap entry)."""
    env._call_at(env.now + delay, lambda _arg: fn())


def ask(resource, key=None, front=False, on_grant=None):
    """Request a slot for a fresh holder; returns the holder."""
    holder = object()

    def wake(_arg):
        if on_grant is not None:
            on_grant()

    resource.request(holder, wake, key, front)
    return holder


def hold_for(env, resource, duration, key=None, front=False, on_start=None, on_done=None):
    """Request, hold for ``duration``, release -- as queued callbacks."""

    def granted():
        if on_start is not None:
            on_start()

        def finish():
            resource.release(holder)
            if on_done is not None:
                on_done()

        after(env, duration, finish)

    holder = ask(resource, key, front, on_grant=granted)
    return holder


class TestEnvironment:
    def test_clock_starts_at_zero(self):
        assert Environment().now == 0.0

    def test_timeout_advances_clock(self):
        env = refsim.Environment()

        def proc():
            yield env.timeout(2.5)
            yield env.timeout(1.5)

        env.process(proc())
        env.run()
        assert env.now == 4.0

    def test_events_fire_in_time_order(self):
        env = Environment()
        log = []
        for delay, tag in ((3.0, "c"), (1.0, "a"), (2.0, "b")):
            after(env, delay, lambda delay=delay, tag=tag: log.append((env.now, tag)))
        env.run()
        assert log == [(1.0, "a"), (2.0, "b"), (3.0, "c")]

    def test_simultaneous_events_fifo(self):
        env = Environment()
        log = []
        for tag in "abc":
            after(env, 1.0, lambda tag=tag: log.append(tag))
        env.run()
        assert log == ["a", "b", "c"]

    def test_negative_timeout_rejected(self):
        env = refsim.Environment()
        with pytest.raises(ValueError):
            env.timeout(-1.0)


class TestEventsAndProcesses:
    def test_event_value_delivered_to_waiter(self):
        env = refsim.Environment()
        received = []
        evt = env.event()

        def waiter():
            value = yield evt
            received.append(value)

        def firer():
            yield env.timeout(1.0)
            evt.trigger("payload")

        env.process(waiter())
        env.process(firer())
        env.run()
        assert received == ["payload"]

    def test_process_return_value_is_event_value(self):
        env = refsim.Environment()
        results = []

        def child():
            yield env.timeout(1.0)
            return 42

        def parent():
            value = yield env.process(child())
            results.append(value)

        env.process(parent())
        env.run()
        assert results == [42]

    def test_yielding_non_event_raises(self):
        env = refsim.Environment()

        def bad():
            yield 5

        env.process(bad())
        with pytest.raises(SimulationError):
            env.run()

    def test_waiting_on_already_processed_event_resumes(self):
        env = refsim.Environment()
        log = []
        evt = env.event()
        evt.trigger("early")

        def late_waiter():
            yield env.timeout(5.0)
            value = yield evt
            log.append((env.now, value))

        env.process(late_waiter())
        env.run()
        assert log == [(5.0, "early")]

    def test_long_chain_of_processed_events_no_recursion(self):
        env = refsim.Environment()
        events = [env.event() for _ in range(5000)]
        for evt in events:
            evt.trigger(1)

        def consumer():
            total = 0
            for evt in events:
                total += yield evt
            return total

        proc = env.process(consumer())
        env.run()
        assert proc.value == 5000


class TestAllOf:
    def test_waits_for_all_children(self):
        env = refsim.Environment()
        done = []

        def child(delay):
            yield env.timeout(delay)
            return delay

        def parent():
            values = yield env.all_of([env.process(child(d)) for d in (3.0, 1.0, 2.0)])
            done.append((env.now, values))

        env.process(parent())
        env.run()
        assert done == [(3.0, [3.0, 1.0, 2.0])]

    def test_empty_all_of_fires_immediately(self):
        env = refsim.Environment()
        log = []

        def parent():
            yield env.all_of([])
            log.append(env.now)

        env.process(parent())
        env.run()
        assert log == [0.0]


class TestResource:
    def test_capacity_limits_concurrency(self):
        env = Environment()
        cpu = Resource(env, capacity=2)
        finish_times = []
        for _ in range(4):
            hold_for(env, cpu, 1.0, on_done=lambda: finish_times.append(env.now))
        env.run()
        assert finish_times == [1.0, 1.0, 2.0, 2.0]

    def test_fifo_granting(self):
        env = Environment()
        gate = Resource(env, capacity=1)
        order = []
        for tag, arrive in (("first", 0.0), ("second", 1.0), ("third", 2.0)):
            after(
                env, arrive,
                lambda tag=tag: hold_for(
                    env, gate, 10.0, on_start=lambda: order.append(tag)
                ),
            )
        env.run()
        assert order == ["first", "second", "third"]

    def test_busy_time_accounting(self):
        env = Environment()
        cpu = Resource(env, capacity=1)
        hold_for(env, cpu, 3.0)
        env.run()
        assert cpu.busy_time == pytest.approx(3.0)
        assert cpu.utilization(6.0) == pytest.approx(0.5)

    def test_utilization_of_multi_slot_resource(self):
        env = Environment()
        cpu = Resource(env, capacity=2)
        hold_for(env, cpu, 4.0)
        hold_for(env, cpu, 2.0)
        env.run()
        assert cpu.utilization(4.0) == pytest.approx(6.0 / 8.0)

    def test_release_of_ungranted_request_raises(self):
        env = Environment()
        cpu = Resource(env, capacity=1)
        with pytest.raises(SimulationError):
            cpu.release(object())

    def test_queue_length_visible(self):
        env = Environment()
        cpu = Resource(env, capacity=1)
        ask(cpu)
        ask(cpu)
        ask(cpu)
        assert cpu.in_use == 1
        assert cpu.queue_length == 2

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            Resource(Environment(), capacity=0)

    def test_zero_horizon_utilization(self):
        env = Environment()
        assert Resource(env, 1).utilization(0.0) == 0.0


class TestFairResource:
    def run_flows(self, bursts, hold_s=1.0):
        """Each flow enqueues its burst at t=0; returns per-flow finish times."""
        env = Environment()
        link = FairResource(env, capacity=1)
        finish = {}

        def flow(key, count):
            def done():
                if count > 1:
                    flow(key, count - 1)
                else:
                    finish[key] = env.now

            hold_for(env, link, hold_s, key=key, on_done=done)

        for key, count in bursts.items():
            flow(key, count)
        env.run()
        return finish

    def test_round_robin_interleaves_bursts(self):
        # Flow a bursts 4 requests before flow b's 4; FIFO would finish a
        # at t=4 and b at t=8.  Fair queueing alternates them.
        finish = self.run_flows({"a": 4, "b": 4})
        assert finish["a"] == pytest.approx(7.0)  # a,b,a,b,a,b,a(,b)
        assert finish["b"] == pytest.approx(8.0)

    def test_equal_flows_finish_together(self):
        finish = self.run_flows({"a": 10, "b": 10, "c": 10})
        values = sorted(finish.values())
        assert values[-1] - values[0] <= 2.0 + 1e-9

    def test_single_flow_behaves_like_fifo(self):
        finish = self.run_flows({"only": 5})
        assert finish["only"] == pytest.approx(5.0)

    def test_short_flow_not_starved_by_long_one(self):
        finish = self.run_flows({"elephant": 100, "mouse": 2})
        assert finish["mouse"] < 6.0  # not 100+

    def test_busy_accounting_still_works(self):
        env = Environment()
        link = FairResource(env, capacity=1)
        hold_for(env, link, 3.0)
        env.run()
        assert link.busy_time == pytest.approx(3.0)

    def test_queue_length(self):
        env = Environment()
        link = FairResource(env, capacity=1)
        ask(link, "a")
        ask(link, "a")
        ask(link, "b")
        assert link.in_use == 1
        assert link.queue_length == 2

    def test_release_of_ungranted_raises(self):
        env = Environment()
        link = FairResource(env, capacity=1)
        with pytest.raises(SimulationError):
            link.release(object())

    def test_front_acquisition_preserves_payload_order(self):
        # Many 3-chunk payloads of one flow, all queued at t=0.  With
        # front=True continuations, at most two payloads interleave at a
        # time and delivery order is preserved -- without it, all four
        # would round-robin and finish together at the very end.
        env = Environment()
        link = FairResource(env, capacity=1)
        finish = {}

        def payload(tag, chunk=0):
            def done():
                if chunk < 2:
                    payload(tag, chunk + 1)
                else:
                    finish[tag] = env.now

            hold_for(env, link, 1.0, key="flow", front=chunk > 0, on_done=done)

        for index in range(4):
            payload(index)
        env.run()
        assert finish == {0: 5.0, 1: 6.0, 2: 11.0, 3: 12.0}
        # Order preserved: payload k always beats payload k+2.
        assert finish[0] < finish[2] and finish[1] < finish[3]

    def test_front_acquisition_on_plain_resource(self):
        env = Environment()
        gate = Resource(env, capacity=1)
        order = []
        hold_for(env, gate, 1.0)
        for tag, front in (("normal", False), ("jumper", True)):
            after(
                env, 0.1,
                lambda tag=tag, front=front: hold_for(
                    env, gate, 1.0, front=front, on_start=lambda: order.append(tag)
                ),
            )
        env.run()
        assert order == ["jumper", "normal"]


class TestInterrupt:
    def test_interrupt_delivers_cause_at_current_time(self):
        env = refsim.Environment()
        seen = []

        def sleeper():
            try:
                yield env.timeout(100.0)
            except Interrupt as exc:
                seen.append((env.now, exc.cause))

        def saboteur(victim):
            yield env.timeout(3.0)
            victim.interrupt(cause="node-crash")

        victim = env.process(sleeper())
        env.process(saboteur(victim))
        env.run()
        assert seen == [(3.0, "node-crash")]

    def test_interrupted_process_can_continue(self):
        env = refsim.Environment()
        log = []

        def worker():
            try:
                yield env.timeout(100.0)
            except Interrupt:
                pass
            yield env.timeout(2.0)  # keeps running after the interrupt
            log.append(env.now)

        def saboteur(victim):
            yield env.timeout(1.0)
            victim.interrupt()

        victim = env.process(worker())
        env.process(saboteur(victim))
        env.run()
        assert log == [3.0]

    def test_abandoned_event_does_not_resume_the_process(self):
        env = refsim.Environment()
        resumes = []

        def worker():
            try:
                yield env.timeout(5.0)
            except Interrupt:
                resumes.append("interrupted")
                yield env.timeout(10.0)
                resumes.append("second-wait")

        def saboteur(victim):
            yield env.timeout(1.0)
            victim.interrupt()

        victim = env.process(worker())
        env.process(saboteur(victim))
        env.run()
        # The original t=5 timeout fires into the void; the process resumes
        # only from its post-interrupt wait, at t=11.
        assert resumes == ["interrupted", "second-wait"]
        assert env.now == 11.0

    def test_interrupt_after_completion_is_a_noop(self):
        env = refsim.Environment()

        def quick():
            yield env.timeout(1.0)
            return "done"

        proc = env.process(quick())
        env.run()
        proc.interrupt(cause="too late")
        assert proc.value == "done"

    def test_uncaught_interrupt_ends_the_process(self):
        env = refsim.Environment()

        def oblivious():
            yield env.timeout(100.0)
            return "never"

        def saboteur(victim):
            yield env.timeout(2.0)
            victim.interrupt(cause="brownout")

        victim = env.process(oblivious())
        env.process(saboteur(victim))
        env.run()
        assert isinstance(victim.value, Interrupt)
        assert victim.value.cause == "brownout"
        # The abandoned timeout still drains from the queue, so the clock
        # runs on to t=100 -- but the process ended at t=2.


class TestGrantWake:
    def test_free_slot_wakes_through_the_queue(self):
        # The grant is immediate, but the wake is a heap entry: it runs
        # after callbacks already queued for the same instant.
        env = Environment()
        res = Resource(env, capacity=1)
        log = []
        after(env, 0.0, lambda: log.append("queued first"))
        holder = ask(res, on_grant=lambda: log.append("granted"))
        assert res.holds(holder) and log == []
        env.run()
        assert log == ["queued first", "granted"]

    def test_release_hands_the_slot_to_the_next_waiter(self):
        env = Environment()
        res = Resource(env, capacity=1)
        first = ask(res)
        second = ask(res)
        after(env, 2.0, lambda: res.release(first))
        env.run()
        assert res.holds(second) and not res.holds(first)
        assert res.in_use == 1 and res.queue_length == 0
        assert res.busy_time == pytest.approx(2.0)


class TestResourceCancel:
    def test_holds_tracks_grant_lifecycle(self):
        env = Environment()
        res = Resource(env, capacity=1)
        req = ask(res)
        assert res.holds(req)
        res.release(req)
        assert not res.holds(req)

    def test_cancel_removes_a_waiting_request(self):
        env = Environment()
        res = Resource(env, capacity=1)
        first = ask(res)
        second = ask(res)  # queued
        third = ask(res)  # queued behind it
        res.cancel(second)
        res.release(first)
        env.run()
        # The cancelled request is skipped; the third waiter gets the slot.
        assert not res.holds(second)
        assert res.holds(third)

    def test_cancel_granted_request_is_an_error(self):
        env = Environment()
        res = Resource(env, capacity=1)
        req = ask(res)
        with pytest.raises(SimulationError):
            res.cancel(req)

    def test_fair_resource_cancel_clears_its_flow(self):
        env = Environment()
        res = FairResource(env, capacity=1)
        first = ask(res, key="a")
        waiting = ask(res, key="b")
        res.cancel(waiting)
        res.release(first)
        env.run()
        assert not res.holds(waiting)
        follow_up = ask(res, key="c")
        assert res.holds(follow_up)  # the slot was genuinely free

    def test_cancel_without_a_request_is_a_noop(self):
        env = Environment()
        res = Resource(env, capacity=1)
        res.cancel(object())
        assert res.queue_length == 0 and res.in_use == 0

    def test_fair_resource_cancel_granted_is_an_error(self):
        env = Environment()
        res = FairResource(env, capacity=1)
        req = ask(res, key="a")
        with pytest.raises(SimulationError):
            res.cancel(req)
