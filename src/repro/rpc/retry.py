"""Bounded-retry wrapper around the storage client.

Fetches cross a network; transient transport failures (connection resets,
timeouts, checksum-detected corruption) should be retried a bounded number
of times -- with exponential backoff and full jitter, so a struggling
storage node is not hammered by a synchronized retry storm -- before the
data loader gives up.  Protocol errors are *not* retryable: a malformed
response will be malformed again.  :class:`ChecksumError` is the
exception's exception: the *sender's* frame was fine, the wire damaged it,
so a re-fetch is exactly the right move.

The sleep and clock are injectable so tests (and the simulator) run the
retry logic without real delays.
"""

import dataclasses
import random
import time
from typing import Callable, Optional, Tuple, Type

from repro.preprocessing.payload import Payload, SupportsFetch
from repro.rpc.messages import ChecksumError
from repro.telemetry.registry import get_default_registry
from repro.telemetry.spans import Tracer, trace_id


class FetchFailedError(Exception):
    """All retry attempts were exhausted; the cause is chained."""


class DeadlineExceededError(FetchFailedError):
    """The per-fetch deadline elapsed before an attempt succeeded."""


class RetryBudgetExhaustedError(FetchFailedError):
    """The client's lifetime retry budget is spent; no more backoff.

    Distinct from :class:`DeadlineExceededError` (one fetch ran out of
    time) -- this is the *client* running out of patience across fetches,
    the signal a data loader uses to stop retrying a dead peer and demote
    to local preprocessing instead.
    """


def failure_outcome(exc: BaseException) -> str:
    """The ``rpc_fetch_seconds`` outcome label for a failed fetch.

    Keeps shed-vs-timeout distinguishable on one histogram: ``deadline``
    (per-fetch deadline), ``budget`` (client-wide retry budget),
    ``exhausted`` (attempts spent), ``error`` (non-retryable failure).
    """
    if isinstance(exc, DeadlineExceededError):
        return "deadline"
    if isinstance(exc, RetryBudgetExhaustedError):
        return "budget"
    if isinstance(exc, FetchFailedError):
        return "exhausted"
    return "error"


@dataclasses.dataclass
class RetryStats:
    """Attempt accounting across the client's lifetime.

    attempts counts every call of the inner fetcher, including the one
    that ultimately fails -- so ``attempts == fetches + retries`` always
    holds, where retries counts re-attempts actually performed.
    """

    fetches: int = 0
    attempts: int = 0
    retries: int = 0
    failures: int = 0
    checksum_failures: int = 0
    backoff_s: float = 0.0
    #: Fetches that failed because the lifetime retry budget was spent.
    budget_exhaustions: int = 0


class RetryingClient:
    """Wraps any fetcher with bounded, backed-off retries on transient errors.

    base_delay/max_delay: exponential backoff bounds; the delay before
        retry k is drawn uniformly from [0, min(max_delay, base_delay*2^k)]
        (full jitter) unless ``jitter=False``, which uses the cap itself.
    deadline_s: optional wall-clock budget per fetch; once spent, the fetch
        fails with :class:`DeadlineExceededError` instead of retrying on.
    budget_s: optional *lifetime* retry budget -- total backoff seconds
        this client may spend across every fetch it ever makes.  A fetch
        whose next backoff would overdraw it fails immediately with
        :class:`RetryBudgetExhaustedError` (outcome label ``budget``); a
        peer that is down does not get to cost every fetch its full
        per-fetch retry dance.
    sleep/clock: injectable for instant tests; default to ``time.sleep``
        and ``time.monotonic``.
    """

    def __init__(
        self,
        inner: SupportsFetch,
        max_attempts: int = 3,
        retryable: Tuple[Type[BaseException], ...] = (
            ConnectionError,
            TimeoutError,
            ChecksumError,
        ),
        base_delay: float = 0.05,
        max_delay: float = 2.0,
        jitter: bool = True,
        deadline_s: Optional[float] = None,
        budget_s: Optional[float] = None,
        sleep: Optional[Callable[[float], None]] = None,
        clock: Optional[Callable[[], float]] = None,
        seed: int = 0,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if base_delay < 0 or max_delay < 0:
            raise ValueError("backoff delays must be >= 0")
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError(f"deadline_s must be > 0, got {deadline_s}")
        if budget_s is not None and budget_s <= 0:
            raise ValueError(f"budget_s must be > 0, got {budget_s}")
        self.inner = inner
        self.max_attempts = max_attempts
        self.retryable = retryable
        self.base_delay = base_delay
        self.max_delay = max_delay
        self.jitter = jitter
        self.deadline_s = deadline_s
        self.budget_s = budget_s
        self._sleep = sleep if sleep is not None else time.sleep
        self._clock = clock if clock is not None else time.monotonic
        self._rng = random.Random(seed)
        self.stats = RetryStats()
        self.tracer = tracer

    def backoff_delay(self, retry_index: int) -> float:
        """The delay before re-attempt ``retry_index`` (0-based)."""
        cap = min(self.max_delay, self.base_delay * (2**retry_index))
        if not self.jitter:
            return cap
        return self._rng.uniform(0.0, cap)

    @property
    def budget_remaining_s(self) -> Optional[float]:
        """Lifetime backoff seconds still spendable (None: unlimited)."""
        if self.budget_s is None:
            return None
        return max(0.0, self.budget_s - self.stats.backoff_s)

    def fetch(self, sample_id: int, epoch: int, split: int) -> Payload:
        trace = trace_id(sample_id, epoch)
        duration = get_default_registry().histogram(
            "rpc_fetch_seconds",
            "end-to-end fetch latency including backoff and retries",
            labels=["outcome"],
        )
        started = self._clock()
        if self.tracer is not None:
            self.tracer.begin(trace, "rpc.fetch", split=split)
        try:
            payload = self._fetch(trace, sample_id, epoch, split)
        except BaseException as exc:
            outcome = failure_outcome(exc)
            duration.observe(self._clock() - started, outcome=outcome)
            if self.tracer is not None:
                self.tracer.end(
                    trace, "rpc.fetch", outcome=outcome, error=type(exc).__name__
                )
            raise
        duration.observe(self._clock() - started, outcome="ok")
        if self.tracer is not None:
            self.tracer.end(trace, "rpc.fetch", outcome="ok")
        return payload

    def _fetch(
        self, trace: str, sample_id: int, epoch: int, split: int
    ) -> Payload:
        registry = get_default_registry()
        attempts_total = registry.counter(
            "rpc_fetch_attempts_total",
            "individual fetch attempts, including the failing last one",
        )
        self.stats.fetches += 1
        registry.counter("rpc_fetches_total", "fetches through RetryingClient").inc()
        started = self._clock()
        last_error = None
        deadline_hit = False
        for attempt in range(self.max_attempts):
            if attempt > 0:
                delay = self.backoff_delay(attempt - 1)
                if self.deadline_s is not None:
                    remaining = self.deadline_s - (self._clock() - started)
                    if remaining <= delay:
                        deadline_hit = True
                        break  # sleeping would blow the deadline
                budget_left = self.budget_remaining_s
                if budget_left is not None and delay > budget_left:
                    self.stats.failures += 1
                    self.stats.budget_exhaustions += 1
                    registry.counter(
                        "rpc_fetch_failures_total",
                        "fetches that exhausted their budget",
                    ).inc()
                    raise RetryBudgetExhaustedError(
                        f"sample {sample_id}: the client's {self.budget_s}s "
                        f"retry budget is spent ({budget_left:.3f}s left, "
                        f"next backoff {delay:.3f}s)"
                    ) from last_error
                if delay > 0:
                    self._sleep(delay)
                    self.stats.backoff_s += delay
                    registry.counter(
                        "rpc_backoff_seconds_total", "time spent in retry backoff"
                    ).inc(delay)
                self.stats.retries += 1
                registry.counter(
                    "rpc_fetch_retries_total", "re-attempts after a transient error"
                ).inc()
                if self.tracer is not None:
                    self.tracer.instant(
                        trace, "rpc.retry", attempt=attempt, backoff_s=delay
                    )
            self.stats.attempts += 1
            attempts_total.inc()
            try:
                return self.inner.fetch(sample_id, epoch, split)
            except self.retryable as exc:
                last_error = exc
                registry.counter(
                    "rpc_fetch_errors_total",
                    "retryable attempt errors by exception type",
                    labels=["error"],
                ).inc(error=type(exc).__name__)
                if isinstance(exc, ChecksumError):
                    self.stats.checksum_failures += 1
                if (
                    self.deadline_s is not None
                    and self._clock() - started >= self.deadline_s
                ):
                    self.stats.failures += 1
                    raise DeadlineExceededError(
                        f"sample {sample_id} missed its {self.deadline_s}s "
                        f"deadline after {attempt + 1} attempts"
                    ) from exc
        self.stats.failures += 1
        registry.counter(
            "rpc_fetch_failures_total", "fetches that exhausted their budget"
        ).inc()
        if deadline_hit or (
            self.deadline_s is not None
            and self._clock() - started >= self.deadline_s
        ):
            raise DeadlineExceededError(
                f"sample {sample_id} missed its {self.deadline_s}s deadline"
            ) from last_error
        raise FetchFailedError(
            f"sample {sample_id} failed after {self.max_attempts} attempts"
        ) from last_error
