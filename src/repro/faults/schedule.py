"""Deterministic, seeded fault schedules for chaos experiments.

A :class:`FaultSchedule` describes *when* the two-node cluster misbehaves,
on a single time axis shared by every consumer:

- the event simulator reads it against virtual time (``env.now``);
- the in-memory channel reads it against a call-index clock (one fetch ==
  one time unit) via :class:`repro.faults.injector.FaultInjector`.

Everything is derived from explicit windows plus one seed, so two runs of
the same schedule inject byte-identical faults -- chaos results are
reproducible and an *empty* schedule is guaranteed to change nothing.

Fault classes (tentpole of the robustness issue):

- :class:`CrashWindow`: the storage node is down (crash .. restart);
- :class:`Brownout`: the link's bandwidth collapses and/or RTT rises;
- :class:`CpuDrift`: the storage node's CPUs slow down (noisy neighbour);
- payload corruption: a seeded per-message coin flips bytes on the wire.
"""

import dataclasses
import math
from typing import Optional, Tuple

from repro.utils.floats import checked, is_exact_zero

_MASK64 = (1 << 64) - 1


def _mix64(x: int) -> int:
    """SplitMix64 finalizer: full-avalanche 64-bit hash.

    A CRC is too linear here -- nearby seeds XOR every draw with the same
    constant, so two seeds can agree on *every* corruption decision.
    """
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def fault_draw(seed: int, index: int, salt: int = 0) -> float:
    """Deterministic uniform draw in [0, 1) for (seed, index, salt)."""
    return _mix64(_mix64(seed ^ (salt << 32)) ^ index) / 2**64


def _window_check(start: float, end: float, kind: str) -> None:
    """A finite start >= 0 and an end after it (``math.inf``: never ends)."""
    checked(f"{kind} start", start, 0.0)
    if not end > start:  # also rejects a NaN end
        raise ValueError(f"{kind} must end after it starts: [{start}, {end})")


@dataclasses.dataclass(frozen=True)
class CrashWindow:
    """The storage node is unreachable during [start, end).

    ``end=math.inf`` models a crash with no restart (permanent outage).
    """

    start: float
    end: float = math.inf

    def __post_init__(self) -> None:
        _window_check(self.start, self.end, "crash window")

    def covers(self, t: float) -> bool:
        return self.start <= t < self.end


@dataclasses.dataclass(frozen=True)
class Brownout:
    """Link degradation during [start, end).

    bandwidth_factor: remaining fraction of the nominal bandwidth (0 < f <= 1).
    extra_rtt_s: additional round-trip latency while the window covers t.
    """

    start: float
    end: float
    bandwidth_factor: float = 0.1
    extra_rtt_s: float = 0.0

    def __post_init__(self) -> None:
        _window_check(self.start, self.end, "brownout")
        if not 0 < self.bandwidth_factor <= 1:
            raise ValueError(
                f"bandwidth_factor must be in (0, 1], got {self.bandwidth_factor}"
            )
        checked("extra_rtt_s", self.extra_rtt_s, 0.0)

    def covers(self, t: float) -> bool:
        return self.start <= t < self.end


@dataclasses.dataclass(frozen=True)
class CpuDrift:
    """Storage-node CPU slowdown during [start, end); factor > 1 is slower."""

    start: float
    end: float
    factor: float = 2.0

    def __post_init__(self) -> None:
        _window_check(self.start, self.end, "cpu drift")
        checked("drift factor", self.factor, 1.0)

    def covers(self, t: float) -> bool:
        return self.start <= t < self.end


@dataclasses.dataclass(frozen=True)
class FaultSchedule:
    """Every fault the run will inject, on one deterministic time axis."""

    crashes: Tuple[CrashWindow, ...] = ()
    brownouts: Tuple[Brownout, ...] = ()
    cpu_drifts: Tuple[CpuDrift, ...] = ()
    #: Probability that any given wire message has its payload corrupted.
    corruption_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.corruption_rate <= 1.0:
            raise ValueError(
                f"corruption_rate must be in [0, 1], got {self.corruption_rate}"
            )

    # -- builders -----------------------------------------------------------

    def with_crash(self, start: float, duration: float = math.inf) -> "FaultSchedule":
        return dataclasses.replace(
            self, crashes=self.crashes + (CrashWindow(start, start + duration),)
        )

    def with_brownout(
        self,
        start: float,
        duration: float,
        bandwidth_factor: float = 0.1,
        extra_rtt_s: float = 0.0,
    ) -> "FaultSchedule":
        window = Brownout(start, start + duration, bandwidth_factor, extra_rtt_s)
        return dataclasses.replace(self, brownouts=self.brownouts + (window,))

    def with_cpu_drift(
        self, start: float, duration: float, factor: float = 2.0
    ) -> "FaultSchedule":
        window = CpuDrift(start, start + duration, factor)
        return dataclasses.replace(self, cpu_drifts=self.cpu_drifts + (window,))

    def with_corruption(self, rate: float) -> "FaultSchedule":
        return dataclasses.replace(self, corruption_rate=rate)

    # -- queries ------------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return (
            not self.crashes
            and not self.brownouts
            and not self.cpu_drifts
            and is_exact_zero(self.corruption_rate)
        )

    # Point queries run per simulated chunk, so they loop inline; window
    # validation makes each seed value the neutral element of its min/max.

    def storage_down(self, t: float) -> bool:
        for w in self.crashes:
            if w.start <= t < w.end:
                return True
        return False

    def restart_time(self, t: float) -> Optional[float]:
        """When the storage node covering ``t`` comes back (None if up)."""
        ends = [w.end for w in self.crashes if w.covers(t)]
        return max(ends) if ends else None

    def next_crash_start(self, t: float) -> Optional[float]:
        """The first crash boundary at or after ``t`` (None if no more)."""
        starts = [w.start for w in self.crashes if w.start >= t]
        return min(starts) if starts else None

    def bandwidth_factor(self, t: float) -> float:
        """Remaining link bandwidth fraction at ``t`` (worst covering window)."""
        factor = 1.0
        for w in self.brownouts:
            if w.start <= t < w.end and w.bandwidth_factor < factor:
                factor = w.bandwidth_factor
        return factor

    def extra_rtt_s(self, t: float) -> float:
        extra = 0.0
        for w in self.brownouts:
            if w.start <= t < w.end and w.extra_rtt_s > extra:
                extra = w.extra_rtt_s
        return extra

    def storage_cpu_factor(self, t: float) -> float:
        factor = 1.0
        for w in self.cpu_drifts:
            if w.start <= t < w.end and w.factor > factor:
                factor = w.factor
        return factor

    def corrupts(self, message_index: int) -> bool:
        """Seeded per-message corruption coin (stable across runs)."""
        if self.corruption_rate <= 0.0:
            return False
        if message_index < 0:
            raise ValueError(f"message_index must be >= 0, got {message_index}")
        return fault_draw(self.seed, message_index) < self.corruption_rate


@dataclasses.dataclass
class FaultReport:
    """What the fault layer observed while an epoch (or loader run) survived.

    Recovery latency is measured from the first failed offload to the first
    *successful* offloaded fetch afterwards -- the paper-relevant number:
    how long the job ran in degraded No-Off mode.
    """

    demoted_samples: int = 0
    crash_interrupts: int = 0
    corrupted_payloads: int = 0
    corrupt_retries: int = 0
    brownout_chunks: int = 0
    offload_attempts: int = 0
    offload_failures: int = 0
    first_failure_s: Optional[float] = None
    recovered_at_s: Optional[float] = None

    def note_failure(self, now: float) -> None:
        self.offload_failures += 1
        if self.first_failure_s is None:
            self.first_failure_s = now
        # A later failure re-opens the outage until the next success.
        if self.recovered_at_s is not None and now > self.recovered_at_s:
            pass  # keep the *first* recovery; chaos reports one latency

    def note_success(self, now: float) -> None:
        if self.first_failure_s is not None and self.recovered_at_s is None:
            self.recovered_at_s = now

    @property
    def recovery_latency_s(self) -> Optional[float]:
        if self.first_failure_s is None or self.recovered_at_s is None:
            return None
        return self.recovered_at_s - self.first_failure_s

    @property
    def saw_faults(self) -> bool:
        return (
            self.demoted_samples > 0
            or self.corrupted_payloads > 0
            or self.brownout_chunks > 0
            or self.crash_interrupts > 0
        )
