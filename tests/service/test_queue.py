"""Bounded work queue tests: shedding, depth accounting, kill drain."""

import pytest

from repro.service.queue import BoundedWorkQueue, PlanTask, QueueFullError


def task() -> PlanTask:
    return PlanTask(request={"job": "job-a"}, enqueued_at=0.0)


class TestSubmit:
    def test_fifo_order(self):
        q = BoundedWorkQueue(4)
        first, second = task(), task()
        q.submit(first)
        q.submit(second)
        assert q.take() is first
        assert q.take() is second

    def test_full_queue_sheds_immediately(self):
        q = BoundedWorkQueue(2)
        q.submit(task())
        q.submit(task())
        with pytest.raises(QueueFullError, match="capacity"):
            q.submit(task())
        assert q.shed_count == 1

    def test_max_depth_tracks_high_water_mark(self):
        q = BoundedWorkQueue(4)
        for _ in range(3):
            q.submit(task())
        q.take()
        q.task_done()
        assert q.max_depth == 3
        assert q.depth == 2

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            BoundedWorkQueue(0)


class TestTake:
    def test_timeout_returns_none(self):
        assert BoundedWorkQueue(1).take(timeout=0.01) is None

    def test_stop_sentinel_returns_none(self):
        q = BoundedWorkQueue(1)
        q.push_stop()
        assert q.take(timeout=0.5) is None

    def test_stop_sentinels_bypass_capacity(self):
        q = BoundedWorkQueue(1)
        q.submit(task())
        q.push_stop(3)  # queue is "full" yet all three sentinels land
        assert isinstance(q.take(timeout=0.5), PlanTask)
        q.task_done()
        for _ in range(3):
            assert q.take(timeout=0.5) is None


class TestDrainPending:
    def test_dropped_tasks_wake_their_waiters(self):
        q = BoundedWorkQueue(4)
        waiting = [task(), task()]
        for t in waiting:
            q.submit(t)
        assert q.drain_pending() == 2
        for t in waiting:
            assert t.done.is_set()
            assert t.status == 503
            assert t.outcome == "killed"
        assert q.depth == 0

    def test_join_returns_after_drain(self):
        q = BoundedWorkQueue(4)
        q.submit(task())
        q.drain_pending()
        q.join()  # must not hang: drain_pending marked the task done


class TestClaimAndAbandon:
    def test_claimed_task_cannot_be_abandoned(self):
        t = task()
        assert t.claim()
        assert not t.abandon()
        assert t.claimed and not t.abandoned

    def test_abandoned_task_cannot_be_claimed(self):
        t = task()
        assert t.abandon()
        assert not t.claim()
        assert t.abandoned and not t.claimed
