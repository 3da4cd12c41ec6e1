"""The greedy planner loops as they ran before the shared accept step.

``FidelityPlanner``'s fidelity pass, ``SelectiveCompressor.plan`` and
``JointPlanner.plan`` each kept their own running ``EpochMetrics`` and
their own network-bound / never-worsen checks; they now offer candidates
to :class:`~repro.cluster.epoch_model.EpochBudget` and size their
baselines with :meth:`~repro.preprocessing.records.RecordTable.epoch_metrics`.
The old loops are kept here verbatim as differential oracles (the
fidelity copy minus its removed ``enabled`` switch), the way
:mod:`tests.core.reference_decision` keeps the scalar engine loop.
"""

import heapq
import logging
from typing import Dict, List, Optional, Sequence

from repro.cluster.epoch_model import EpochMetrics, EpochModel
from repro.cluster.spec import ClusterSpec
from repro.compression.joint import JointPlan, JointPlanner
from repro.compression.selective import (
    CompressionDecision,
    CompressionPlan,
    SelectiveCompressor,
    stage_kinds,
)
from repro.core.fidelity import FidelityPlanner, _Rung
from repro.core.plan import OffloadPlan
from repro.preprocessing.pipeline import Pipeline
from repro.preprocessing.records import ProgressiveSampleRecord, SampleRecord
from repro.telemetry.audit import FIDELITY_DEGRADED, AuditLog
from repro.telemetry.registry import get_default_registry
from repro.telemetry.spans import Tracer, trace_id

logger = logging.getLogger(__name__)


class ReferenceFidelityPlanner(FidelityPlanner):
    """The split pass, then the fidelity pass over hand-built metrics."""

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
        (the same object), so disabling the axis is byte-identical to
        never having had it.
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

        # Reconstruct the post-split epoch metrics from the plan.
        metrics = EpochMetrics(
            gpu_time_s=gpu_time_s,
            compute_cpu_s=sum(
                r.total_cost - r.prefix_cost(s) for r, s in zip(records, base.splits)
            ),
            storage_cpu_s=sum(
                r.prefix_cost(s) for r, s in zip(records, base.splits)
            ),
            traffic_bytes=float(
                sum(r.size_at(s) for r, s in zip(records, base.splits))
                + overhead_bytes * len(records)
            ),
        )
        model = EpochModel(spec)
        if not model.estimate(metrics).network_bound:
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
        for rung in rungs:
            estimate = model.estimate(metrics)
            if not estimate.network_bound:
                reason = (
                    "network no longer predominant (bottleneck: "
                    f"{estimate.bottleneck.value}) after {accepted} degradations"
                )
                break
            sample_id = rung.record.sample_id
            scan_counts[sample_id] = rung.scan_count
            metrics = metrics.replace(
                traffic_bytes=metrics.traffic_bytes - rung.saved_bytes
            )
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

        final = model.estimate(metrics)
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



class ReferenceSelectiveCompressor(SelectiveCompressor):
    """Greedy compression over hand-built post-offload metrics."""

    def plan(
        self,
        records: Sequence[SampleRecord],
        offload_plan: OffloadPlan,
        pipeline: Pipeline,
        spec: ClusterSpec,
        gpu_time_s: float,
        overhead_bytes: Optional[int] = None,
    ) -> CompressionPlan:
        if len(records) != len(offload_plan):
            raise ValueError(
                f"records cover {len(records)} samples, plan has {len(offload_plan)}"
            )
        if overhead_bytes is None:
            overhead_bytes = spec.response_overhead_bytes
        if not spec.can_offload:
            return CompressionPlan(
                decisions={}, reason="no storage cores: nowhere to run compression"
            )

        kinds = stage_kinds(pipeline)
        epoch_model = EpochModel(spec)

        # Post-offload baseline metrics.
        metrics = EpochMetrics(
            gpu_time_s=gpu_time_s,
            compute_cpu_s=sum(
                r.suffix_cost(offload_plan.split_for(r.sample_id)) for r in records
            ),
            storage_cpu_s=sum(
                r.prefix_cost(offload_plan.split_for(r.sample_id)) for r in records
            ),
            traffic_bytes=float(
                offload_plan.expected_traffic_bytes(records, overhead_bytes)
            ),
        )

        candidates: List[CompressionDecision] = []
        for record in records:
            split = offload_plan.split_for(record.sample_id)
            if split == 0:
                continue  # raw payloads are already entropy coded
            kind = kinds[split]
            wire = record.size_at(split)
            saved = self.model.savings_bytes(kind, wire)
            if saved <= 0:
                continue
            candidates.append(
                CompressionDecision(
                    sample_id=record.sample_id,
                    kind=kind,
                    saved_bytes=saved,
                    storage_cpu_s=self.model.compress_seconds(kind, wire),
                    compute_cpu_s=self.model.decompress_seconds(kind, wire),
                )
            )
        candidates.sort(key=lambda d: d.efficiency, reverse=True)

        decisions: Dict[int, CompressionDecision] = {}
        reason = "exhausted compressible candidates"
        for decision in candidates:
            estimate = epoch_model.estimate(metrics)
            if not estimate.network_bound:
                reason = (
                    f"network no longer predominant after {len(decisions)} samples"
                )
                break
            trial = metrics.replace(
                storage_cpu_s=metrics.storage_cpu_s + decision.storage_cpu_s,
                compute_cpu_s=metrics.compute_cpu_s + decision.compute_cpu_s,
                traffic_bytes=metrics.traffic_bytes - decision.saved_bytes,
            )
            if epoch_model.estimate(trial).epoch_time_s > estimate.epoch_time_s + 1e-9:
                continue
            decisions[decision.sample_id] = decision
            metrics = trial

        return CompressionPlan(
            decisions=decisions,
            reason=f"compressed {len(decisions)}/{len(records)} samples; {reason}",
            expected=epoch_model.estimate(metrics),
        )


class ReferenceJointPlanner(JointPlanner):
    """One heap of offload and compression actions over hand-built metrics."""

    def plan(
        self,
        records: Sequence[SampleRecord],
        pipeline: Pipeline,
        spec: ClusterSpec,
        gpu_time_s: float,
        overhead_bytes: Optional[int] = None,
    ) -> JointPlan:
        num_samples = len(records)
        if overhead_bytes is None:
            overhead_bytes = spec.response_overhead_bytes
        if not spec.can_offload:
            return JointPlan(
                offload=OffloadPlan.no_offload(
                    num_samples, reason="no storage cores"
                ),
                compression=CompressionPlan(decisions={}, reason="no storage cores"),
            )

        kinds = stage_kinds(pipeline)
        epoch_model = EpochModel(spec)
        metrics = EpochMetrics(
            gpu_time_s=gpu_time_s,
            compute_cpu_s=sum(r.total_cost for r in records),
            storage_cpu_s=0.0,
            traffic_bytes=float(
                sum(r.raw_size for r in records) + overhead_bytes * num_samples
            ),
        )

        def compress_action(record: SampleRecord) -> Optional[CompressionDecision]:
            split = record.min_stage
            kind = kinds[split]
            wire = record.size_at(split)
            saved = self.model.savings_bytes(kind, wire)
            if saved <= 0:
                return None
            return CompressionDecision(
                sample_id=record.sample_id,
                kind=kind,
                saved_bytes=saved,
                storage_cpu_s=self.model.compress_seconds(kind, wire),
                compute_cpu_s=self.model.decompress_seconds(kind, wire),
            )

        # Heap entries: (-efficiency, seq, kind, record/decision)
        heap = []
        seq = 0
        for record in records:
            if record.offload_efficiency > 0:
                heapq.heappush(
                    heap, (-record.offload_efficiency, seq, "offload", record)
                )
                seq += 1

        splits = [0] * num_samples
        decisions: Dict[int, CompressionDecision] = {}
        accepted_offloads = accepted_compressions = 0
        reason = "exhausted candidate actions"

        while heap:
            estimate = epoch_model.estimate(metrics)
            if not estimate.network_bound:
                reason = (
                    "network no longer predominant (bottleneck: "
                    f"{estimate.bottleneck.value})"
                )
                break
            _, _, action, payload = heapq.heappop(heap)
            if action == "offload":
                record = payload
                split = record.min_stage
                moved = record.prefix_cost(split)
                # Clamp float cancellation in the running sum at zero.
                local_cpu = metrics.compute_cpu_s - moved
                trial = metrics.replace(
                    compute_cpu_s=local_cpu if local_cpu >= 0 else 0.0,
                    storage_cpu_s=metrics.storage_cpu_s + moved,
                    traffic_bytes=metrics.traffic_bytes - record.savings(split),
                )
                if (
                    epoch_model.estimate(trial).epoch_time_s
                    > estimate.epoch_time_s + 1e-9
                ):
                    continue
                splits[record.sample_id] = split
                metrics = trial
                accepted_offloads += 1
                # Offloading unlocks compressing this sample's payload.
                follow_up = compress_action(record)
                if follow_up is not None:
                    heapq.heappush(
                        heap, (-follow_up.efficiency, seq, "compress", follow_up)
                    )
                    seq += 1
            else:
                decision = payload
                trial = metrics.replace(
                    storage_cpu_s=metrics.storage_cpu_s + decision.storage_cpu_s,
                    compute_cpu_s=metrics.compute_cpu_s + decision.compute_cpu_s,
                    traffic_bytes=metrics.traffic_bytes - decision.saved_bytes,
                )
                if (
                    epoch_model.estimate(trial).epoch_time_s
                    > estimate.epoch_time_s + 1e-9
                ):
                    continue
                decisions[decision.sample_id] = decision
                metrics = trial
                accepted_compressions += 1

        final = epoch_model.estimate(metrics)
        return JointPlan(
            offload=OffloadPlan(
                splits=splits,
                reason=(
                    f"joint: offloaded {accepted_offloads}/{num_samples}, "
                    f"compressed {accepted_compressions}; {reason}"
                ),
                expected=final,
            ),
            compression=CompressionPlan(
                decisions=decisions,
                reason=f"joint planning; {reason}",
                expected=final,
            ),
        )
