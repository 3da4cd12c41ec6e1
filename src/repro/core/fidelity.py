"""The fidelity axis: choosing how many bytes of a sample to ship.

Following *Progressive Compressed Records* (Kuchnik et al., PAPERS.md),
samples encoded with :class:`repro.codec.progressive.ProgressiveJpegCodec`
can be fetched as any scan prefix, trading PSNR for wire bytes.  The
:class:`FidelityPlanner` widens SOPHON's decision from ``split`` to
``(split, scan_count)``:

1. Run the ordinary :class:`DecisionEngine` pass (where to split).
2. If the epoch is *still* network-bound after every worthwhile split has
   been offloaded, the split axis is out of levers -- spend fidelity:
   truncate the raw fetches of progressive samples the engine left at
   split 0, ranked by bytes saved per dB of PSNR given up and within the
   quality floor, through the shared accept step
   (:class:`~repro.cluster.epoch_model.EpochBudget`).

Truncation only ever *removes* wire bytes and moves no CPU work, so the
pass runs without the ``never_worsen`` guard.  With nothing to degrade
(no progressive records, or the split pass already un-bound the network)
the planner returns the engine's plan object untouched -- plans, audit
logs, and serialized output are byte-identical to fidelity-free planning,
gated by ``tests/core/test_fidelity.py``.
"""

import dataclasses
import logging
from typing import List, Optional, Sequence

import numpy as np

from repro.cluster.epoch_model import EpochBudget
from repro.cluster.spec import ClusterSpec
from repro.core.decision import DecisionEngine
from repro.core.plan import OffloadPlan
from repro.preprocessing.records import ProgressiveSampleRecord, RecordTable, SampleRecord
from repro.telemetry.audit import FIDELITY_DEGRADED, AuditLog
from repro.telemetry.registry import get_default_registry
from repro.telemetry.spans import Tracer, trace_id
from repro.utils.floats import checked

logger = logging.getLogger(__name__)


@dataclasses.dataclass(frozen=True)
class FidelityConfig:
    """Knobs for the fidelity-degradation pass.

    min_psnr_db: quality floor -- never ship a prefix whose PSNR against
        the full decode is below this (finite, >= 0).
    min_scans: never ship fewer than this many scans (scan 0 alone is the
        DC image; some workloads want at least one AC band).
    psnr_cap_db: stand-in for the full prefix's infinite PSNR when
        computing dB given up; also caps finite PSNRs so one near-perfect
        prefix doesn't dominate the ranking (finite, > 0).
    """

    min_psnr_db: float = 30.0
    min_scans: int = 1
    psnr_cap_db: float = 60.0

    def __post_init__(self) -> None:
        checked("min_psnr_db", self.min_psnr_db, 0.0)
        checked("min_scans", self.min_scans, 1, integral=True)
        checked("psnr_cap_db", self.psnr_cap_db, 0.0, open_low=True)


@dataclasses.dataclass(frozen=True)
class _Rung:
    """One admissible degradation: ship ``scan_count`` scans of a sample."""

    record: ProgressiveSampleRecord
    scan_count: int
    saved_bytes: int
    psnr_db: float
    #: Bytes saved per dB of (capped) PSNR given up -- the ranking key,
    #: mirroring the paper's bytes-per-CPU-second offloading efficiency.
    efficiency: float


class FidelityPlanner:
    """Two-axis planner: the engine's split pass, then a fidelity pass."""

    def __init__(
        self,
        engine: Optional[DecisionEngine] = None,
        config: Optional[FidelityConfig] = None,
    ) -> None:
        self.engine = engine if engine is not None else DecisionEngine()
        self.config = config if config is not None else FidelityConfig()

    # -- rung construction -------------------------------------------------

    def _best_rung(self, record: ProgressiveSampleRecord) -> Optional[_Rung]:
        """The deepest admissible truncation for one sample, or None.

        One sample contributes one rung (its best jump) rather than a
        ladder of intermediate steps: truncation moves no CPU, so there is
        no budget reason to degrade a sample halfway when a deeper prefix
        still clears the quality floor.
        """
        cap = self.config.psnr_cap_db
        best: Optional[_Rung] = None
        for count in range(self.config.min_scans, record.num_scans):
            psnr = record.psnr_at(count)
            if psnr < self.config.min_psnr_db:
                continue
            saved = record.fidelity_savings(count)
            if saved <= 0:
                continue
            lost_db = cap - min(psnr, cap)
            efficiency = saved / lost_db if lost_db > 0 else float("inf")
            rung = _Rung(
                record=record,
                scan_count=count,
                saved_bytes=saved,
                psnr_db=psnr,
                efficiency=efficiency,
            )
            # Deeper prefixes save more bytes; keep the deepest admissible
            # one (first hit wins -- counts ascend, savings descend).
            if best is None or rung.saved_bytes > best.saved_bytes:
                best = rung
        return best

    # -- planning ----------------------------------------------------------

    def plan(
        self,
        records: Sequence[SampleRecord],
        spec: ClusterSpec,
        gpu_time_s: float,
        overhead_bytes: Optional[int] = None,
        audit: Optional[AuditLog] = None,
        tracer: Optional[Tracer] = None,
    ) -> OffloadPlan:
        """Plan splits, then spend fidelity if the network is still bound.

        Same signature as :meth:`DecisionEngine.plan`; when the fidelity
        pass has nothing to do, the engine's plan is returned *unchanged*
        (the same object).
        """
        base = self.engine.plan(
            records,
            spec,
            gpu_time_s,
            overhead_bytes=overhead_bytes,
            audit=audit,
            tracer=tracer,
        )
        if not spec.can_offload:
            return base
        if overhead_bytes is None:
            overhead_bytes = spec.response_overhead_bytes

        table = RecordTable.from_records(records)
        budget = EpochBudget(
            spec,
            table.epoch_metrics(gpu_time_s, overhead_bytes, base.splits),
            never_worsen=False,
        )
        if not budget.network_bound:
            return base

        rungs: List[_Rung] = []
        for record, split in zip(records, base.splits):
            if split != 0 or not isinstance(record, ProgressiveSampleRecord):
                continue
            rung = self._best_rung(record)
            if rung is not None:
                rungs.append(rung)
        if not rungs:
            return base
        rungs.sort(key=lambda r: (-r.efficiency, r.record.sample_id))

        degraded = get_default_registry().counter(
            "fidelity_degraded_total",
            "samples planned at reduced fidelity (truncated scan prefix)",
        )
        scan_counts: List[Optional[int]] = [None] * len(records)
        accepted = 0
        saved_total = 0
        reason = "exhausted degradable samples"
        # The order is fixed, so the run up to the first stop is accepted in
        # one step and only the rest is offered one by one.
        zeros = np.zeros(len(rungs))
        head = budget.offer_run(
            zeros, zeros, np.array([-rung.saved_bytes for rung in rungs], dtype=np.float64)
        )
        for index, rung in enumerate(rungs):
            if index >= head:
                if not budget.network_bound:
                    reason = (
                        "network no longer predominant (bottleneck: "
                        f"{budget.estimate().bottleneck.value}) after {accepted} degradations"
                    )
                    break
                budget.offer(0.0, 0.0, -rung.saved_bytes)
            sample_id = rung.record.sample_id
            scan_counts[sample_id] = rung.scan_count
            accepted += 1
            saved_total += rung.saved_bytes
            degraded.inc()
            if audit is not None and sample_id in audit:
                previous = audit.get(sample_id)
                audit.amend(
                    sample_id,
                    outcome=FIDELITY_DEGRADED,
                    reason=(
                        f"was {previous.outcome}; network still bound after the "
                        f"split pass, shipping {rung.scan_count}/"
                        f"{rung.record.num_scans} scans "
                        f"(saves {rung.saved_bytes}B at {rung.psnr_db:.1f}dB)"
                    ),
                    chosen_scans=rung.scan_count,
                    fidelity_psnr_db=rung.psnr_db,
                )
            if tracer is not None:
                tracer.instant(
                    trace_id(sample_id, 0),
                    "fidelity",
                    outcome=FIDELITY_DEGRADED,
                    scan_count=rung.scan_count,
                    psnr_db=rung.psnr_db,
                )
        if accepted == 0:
            return base

        final = budget.estimate()
        logger.info(
            "fidelity: degraded %d/%d samples, saved %dB; %s",
            accepted,
            len(records),
            saved_total,
            reason,
        )
        return OffloadPlan(
            splits=base.splits,
            reason=(
                f"{base.reason}; fidelity: degraded {accepted} samples "
                f"(saved {saved_total}B); {reason}"
            ),
            expected=final,
            scan_counts=scan_counts,
        )
