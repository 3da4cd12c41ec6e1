"""Per-batch timelines and stall accounting."""

import dataclasses
from typing import List


@dataclasses.dataclass
class BatchTrace:
    """Lifecycle timestamps of one batch (virtual seconds)."""

    index: int
    ready_at: float = 0.0  # input pipeline delivered the batch
    gpu_start: float = 0.0
    gpu_end: float = 0.0

    @property
    def gpu_time_s(self) -> float:
        return self.gpu_end - self.gpu_start


@dataclasses.dataclass
class Timeline:
    """All batch traces of one epoch, in batch order.

    Faults are counted in the epoch's
    :class:`~repro.faults.schedule.FaultReport` and, with spans on, stamped
    as span instants; the timeline holds batches only.
    """

    batches: List[BatchTrace] = dataclasses.field(default_factory=list)
    epoch_end: float = 0.0

    def trace(self, index: int) -> BatchTrace:
        while len(self.batches) <= index:
            self.batches.append(BatchTrace(index=len(self.batches)))
        return self.batches[index]

    def validate(self) -> None:
        """Sanity-check monotonicity; raises on malformed recordings."""
        previous_end = 0.0
        for trace in self.batches:
            if not trace.ready_at <= trace.gpu_start <= trace.gpu_end:
                raise ValueError(f"batch {trace.index} timestamps out of order")
            if trace.gpu_start < previous_end - 1e-12:
                raise ValueError(f"batch {trace.index} overlaps its predecessor")
            previous_end = trace.gpu_end


@dataclasses.dataclass(frozen=True)
class StallBreakdown:
    """Where the epoch's wall-clock went, from the GPU's point of view.

    data_stall_s: GPU idle because the next batch was not ready -- the
        quantity remote-I/O bottlenecks inflate and SOPHON attacks.
    """

    epoch_time_s: float
    gpu_busy_s: float
    data_stall_s: float

    @property
    def stall_fraction(self) -> float:
        if self.epoch_time_s <= 0:
            return 0.0
        return self.data_stall_s / self.epoch_time_s

    @property
    def gpu_utilization(self) -> float:
        if self.epoch_time_s <= 0:
            return 0.0
        return self.gpu_busy_s / self.epoch_time_s

    def __str__(self) -> str:
        return (
            f"StallBreakdown(epoch={self.epoch_time_s:.2f}s, "
            f"gpu={self.gpu_utilization:.0%}, stall={self.stall_fraction:.0%})"
        )


def stall_breakdown(timeline: Timeline) -> StallBreakdown:
    """Decompose an epoch timeline into GPU-busy vs data-stall time.

    For a single-tenant GPU the time between one batch finishing and the
    next starting is exactly the wait for the input pipeline (there is no
    other contender), so stall = sum of those gaps plus the initial fill.
    """
    timeline.validate()
    if not timeline.batches:
        return StallBreakdown(timeline.epoch_end, 0.0, timeline.epoch_end)
    busy = sum(trace.gpu_time_s for trace in timeline.batches)
    stall = timeline.batches[0].gpu_start
    for prev, nxt in zip(timeline.batches, timeline.batches[1:]):
        stall += nxt.gpu_start - prev.gpu_end
    tail = timeline.epoch_end - timeline.batches[-1].gpu_end
    return StallBreakdown(
        epoch_time_s=timeline.epoch_end,
        gpu_busy_s=busy,
        data_stall_s=stall + tail,
    )
