"""Degraded-mode fetching: the No-Off fallback that keeps epochs alive.

When the storage node crashes (or the link browns out badly enough to trip
the circuit breaker), SOPHON must not lose samples or stall the epoch.
:class:`DegradedModeFetcher` wraps the normal RPC fetcher: while the
breaker is closed it is a transparent pass-through, and the moment offload
fetches start failing it *demotes* affected samples to split 0 -- fetch the
raw bytes (from a local fallback replica when one exists) and run the
offloaded prefix locally.  Because every op draws its augmentation
parameters from a per-(seed, epoch, sample, op) derived generator, the
demoted sample is bit-identical to what the storage node would have sent.

Each contiguous run of failures is recorded as an :class:`OutageReport`
(start, recovery, demotions), which :mod:`repro.harness.adaptive` can fold
into its spec schedule to re-plan around the fault.
"""

import dataclasses
import time
from typing import Callable, List, Optional

from repro.preprocessing.payload import Payload, SupportsFetch, SupportsScanFetch
from repro.preprocessing.pipeline import Pipeline
from repro.rpc.breaker import CircuitBreaker
from repro.rpc.messages import ChecksumError
from repro.rpc.retry import FetchFailedError
from repro.telemetry.registry import get_default_registry
from repro.telemetry.spans import Tracer, trace_id

#: Failures that mean "the transport or the storage node is unhealthy".
#: ProtocolError deliberately stays out: a malformed frame is a sender bug,
#: and demoting around it would hide the bug instead of surfacing it.
#: (ChecksumError subclasses ProtocolError but is wire damage, so it is in.)
TRANSPORT_FAILURES = (
    ConnectionError,
    TimeoutError,
    FetchFailedError,
    ChecksumError,
    OSError,
)


@dataclasses.dataclass(frozen=True)
class Demotion:
    """One sample served at split 0 because its offload path was down.

    ``scan_count`` is set when the sample rode the fidelity rung: instead
    of the full raw bytes, only that many scans of its progressive stream
    crossed the (already stressed) link.  None means the classic
    bit-identical full-fidelity demotion.
    """

    sample_id: int
    epoch: int
    planned_split: int
    at_s: float
    reason: str
    scan_count: Optional[int] = None


@dataclasses.dataclass
class OutageReport:
    """One contiguous outage as the fetcher observed it.

    ``recovered_at_s`` is None while the outage is still in progress.
    """

    started_at_s: float
    recovered_at_s: Optional[float] = None
    demotions: List[Demotion] = dataclasses.field(default_factory=list)

    @property
    def demotion_count(self) -> int:
        return len(self.demotions)

    @property
    def duration_s(self) -> Optional[float]:
        if self.recovered_at_s is None:
            return None
        return self.recovered_at_s - self.started_at_s


class DegradedModeFetcher:
    """Loader-compatible fetcher that survives storage-node outages.

    primary: the normal fetcher (typically a RetryingClient around the RPC
        client); all healthy traffic goes through it untouched.
    pipeline: used to run the offloaded prefix locally for demoted samples.
    fallback: optional split-0 source consulted when the primary is down
        (e.g. a DirectFetcher over a local replica).  Without one, demoted
        raw fetches are attempted against the primary as a last resort.
    breaker: circuit breaker guarding the primary; after enough consecutive
        failures it opens and samples demote without paying a network
        timeout each.  A fresh breaker is created when omitted.
    seed: must match the DataLoader's seed so local prefix execution draws
        the same augmentation parameters the storage node would have.
    scan_fallback: optional scan-capable split-0 source (e.g. an
        ObjectLambdaFetcher with a ScanTruncationLambda installed).  With
        ``degraded_scan_count`` set, demoted samples take the *fidelity
        rung* between full offload and classic demotion: fetch only that
        many scans of the raw progressive stream -- fewer bytes over a link
        that is already struggling -- and run the prefix locally at reduced
        fidelity.  Both default to None, preserving the bit-identical
        full-fidelity demotion.
    """

    def __init__(
        self,
        primary: SupportsFetch,
        pipeline: Pipeline,
        fallback: Optional[SupportsFetch] = None,
        breaker: Optional[CircuitBreaker] = None,
        seed: int = 0,
        clock: Callable[[], float] = time.monotonic,
        tracer: Optional[Tracer] = None,
        scan_fallback: Optional[SupportsScanFetch] = None,
        degraded_scan_count: Optional[int] = None,
    ) -> None:
        if degraded_scan_count is not None:
            if degraded_scan_count < 1:
                raise ValueError(
                    f"degraded_scan_count must be >= 1, got {degraded_scan_count}"
                )
            if scan_fallback is None:
                raise ValueError(
                    "degraded_scan_count needs a scan_fallback to fetch from"
                )
        self.primary = primary
        self.pipeline = pipeline
        self.fallback = fallback
        self.scan_fallback = scan_fallback
        self.degraded_scan_count = degraded_scan_count
        self.breaker = (
            breaker
            if breaker is not None
            else CircuitBreaker(clock=clock, tracer=tracer)
        )
        self.seed = seed
        self.clock = clock
        self.tracer = tracer
        #: Every outage observed so far, in order; the last one may be open.
        self.outages: List[OutageReport] = []
        self._current: Optional[OutageReport] = None

    # -- reporting ---------------------------------------------------------

    @property
    def demotion_count(self) -> int:
        return sum(o.demotion_count for o in self.outages)

    @property
    def last_outage(self) -> Optional[OutageReport]:
        return self.outages[-1] if self.outages else None

    @property
    def in_outage(self) -> bool:
        return self._current is not None

    # -- fetcher protocol --------------------------------------------------

    def fetch(self, sample_id: int, epoch: int, split: int) -> Payload:
        """Return the sample with ops 1..split applied -- always.

        The loader never sees the outage: a demoted sample arrives with the
        same prefix applied (locally instead of remotely), so the loader's
        ``start=split`` continuation is unchanged.
        """
        if self.breaker.allow():
            try:
                payload = self.primary.fetch(sample_id, epoch, split)
            except TRANSPORT_FAILURES as exc:
                self.breaker.record_failure()
                self._note_failure()
                if split <= 0 and self.fallback is None and not self._scan_rung:
                    raise  # nothing else can serve raw bytes
                return self._demote(
                    sample_id, epoch, split, reason=type(exc).__name__
                )
            self.breaker.record_success()
            self._note_success()
            get_default_registry().counter(
                "degraded_fetches_total",
                "fetches through DegradedModeFetcher by path",
                labels=["path"],
            ).inc(path="primary")
            return payload
        return self._demote(sample_id, epoch, split, reason="breaker-open")

    # -- degraded path -----------------------------------------------------

    @property
    def _scan_rung(self) -> bool:
        """Whether demotions take the reduced-fidelity scan-prefix rung."""
        return self.scan_fallback is not None and self.degraded_scan_count is not None

    def _demote(self, sample_id: int, epoch: int, split: int, reason: str) -> Payload:
        registry = get_default_registry()
        registry.counter(
            "degraded_fetches_total",
            "fetches through DegradedModeFetcher by path",
            labels=["path"],
        ).inc(path="fidelity" if self._scan_rung else "demoted")
        if split > 0:
            self._note_failure()  # ensure an outage report exists
            assert self._current is not None
            self._current.demotions.append(
                Demotion(
                    sample_id=sample_id,
                    epoch=epoch,
                    planned_split=split,
                    at_s=self.clock(),
                    reason=reason,
                    scan_count=(
                        self.degraded_scan_count if self._scan_rung else None
                    ),
                )
            )
            registry.counter(
                "degraded_demotions_total",
                "samples demoted to split 0 by reason",
                labels=["reason"],
            ).inc(reason=reason)
            if self.tracer is not None:
                self.tracer.instant(
                    trace_id(sample_id, epoch),
                    "degraded.demote",
                    planned_split=split,
                    reason=reason,
                )
        raw = self._raw_payload(sample_id, epoch)
        if split <= 0:
            return raw
        run = self.pipeline.run(
            raw, seed=self.seed, epoch=epoch, sample_id=sample_id, start=0, stop=split
        )
        assert run.payload is not None
        return run.payload

    def _raw_payload(self, sample_id: int, epoch: int) -> Payload:
        if self._scan_rung:
            assert self.scan_fallback is not None
            assert self.degraded_scan_count is not None
            payload = self.scan_fallback.fetch_scans(
                sample_id, epoch, self.degraded_scan_count
            )
            if self.tracer is not None:
                self.tracer.instant(
                    trace_id(sample_id, epoch),
                    "degraded.fidelity",
                    scan_count=self.degraded_scan_count,
                )
            return payload
        if self.fallback is not None:
            return self.fallback.fetch(sample_id, epoch, 0)
        # Last resort: raw bytes from the primary itself.  If this works the
        # node is actually reachable, which is recovery evidence.
        payload = self.primary.fetch(sample_id, epoch, 0)
        self.breaker.record_success()
        self._note_success()
        return payload

    # -- outage bookkeeping ------------------------------------------------

    def _note_failure(self) -> None:
        if self._current is None:
            self._current = OutageReport(started_at_s=self.clock())
            self.outages.append(self._current)
            get_default_registry().counter(
                "degraded_outages_total", "contiguous outages observed"
            ).inc()
            if self.tracer is not None:
                self.tracer.instant("degraded", "outage.start")

    def _note_success(self) -> None:
        if self._current is not None:
            self._current.recovered_at_s = self.clock()
            duration = self._current.recovered_at_s - self._current.started_at_s
            self._current = None
            if self.tracer is not None:
                self.tracer.instant("degraded", "outage.recovered", duration_s=duration)
