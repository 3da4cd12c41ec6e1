"""The selective-compression planner (paper section 6 extension).

Runs *after* the offload decision engine: for samples whose offloaded
payload crosses the wire uncompressed (uint8 pixels or float tensors), the
storage node can spend extra CPU to deflate the payload and the compute
node extra CPU to inflate it.  The planner offers compressions, highest
bytes-saved-per-storage-CPU-second first, to the offload engine's accept
step (:class:`~repro.cluster.epoch_model.EpochBudget`).
"""

import dataclasses
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.cluster.epoch_model import EpochBudget, EpochEstimate
from repro.cluster.spec import ClusterSpec
from repro.cluster.trainer import WorkAdjustment
from repro.compression.codecs import CompressionModel
from repro.core.plan import OffloadPlan
from repro.preprocessing.payload import PayloadKind
from repro.preprocessing.pipeline import Pipeline
from repro.preprocessing.records import RecordTable, SampleRecord


@dataclasses.dataclass(frozen=True)
class CompressionDecision:
    """Compress one sample's wire payload."""

    sample_id: int
    kind: PayloadKind
    saved_bytes: int
    storage_cpu_s: float
    compute_cpu_s: float

    @property
    def efficiency(self) -> float:
        if self.storage_cpu_s <= 0:
            return float("inf")
        return self.saved_bytes / self.storage_cpu_s

    @classmethod
    def of(
        cls, model: CompressionModel, sample_id: int, kind: PayloadKind, wire: int
    ) -> Optional["CompressionDecision"]:
        """Deflating a ``wire``-byte payload, or None when that saves nothing."""
        saved = model.savings_bytes(kind, wire)
        if saved <= 0:
            return None
        return cls(
            sample_id,
            kind,
            saved,
            storage_cpu_s=model.compress_seconds(kind, wire),
            compute_cpu_s=model.decompress_seconds(kind, wire),
        )


@dataclasses.dataclass
class CompressionPlan:
    """Which samples get compressed, plus provenance."""

    decisions: Dict[int, CompressionDecision]
    reason: str
    expected: Optional[EpochEstimate] = None

    @property
    def num_compressed(self) -> int:
        return len(self.decisions)

    @property
    def total_saved_bytes(self) -> int:
        return sum(d.saved_bytes for d in self.decisions.values())

    def adjustments(self) -> Dict[int, WorkAdjustment]:
        """Per-sample deltas to feed TrainerSim.run_epoch."""
        return {
            sid: WorkAdjustment(
                wire_bytes_delta=-d.saved_bytes,
                extra_storage_cpu_s=d.storage_cpu_s,
                extra_compute_cpu_s=d.compute_cpu_s,
            )
            for sid, d in self.decisions.items()
        }


def stage_kinds(pipeline: Pipeline) -> List[PayloadKind]:
    """Payload kind at each stage 0..n (0 = stored encoded form)."""
    return [PayloadKind.ENCODED] + [op.output_kind for op in pipeline.ops]


class SelectiveCompressor:
    """Greedy compression planning on top of an offload plan."""

    def __init__(self, model: Optional[CompressionModel] = None) -> None:
        self.model = model if model is not None else CompressionModel()

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
        table = RecordTable.covering(records)
        if overhead_bytes is None:
            overhead_bytes = spec.response_overhead_bytes
        if not spec.can_offload:
            return CompressionPlan(
                decisions={}, reason="no storage cores: nowhere to run compression"
            )

        kinds = stage_kinds(pipeline)
        budget = EpochBudget(
            spec,
            table.epoch_metrics(
                gpu_time_s, overhead_bytes, offload_plan.splits, offload_plan.scan_counts
            ),
        )

        candidates: List[CompressionDecision] = []
        for record, split in zip(table, offload_plan.splits):
            if split == 0:
                continue  # raw payloads are already entropy coded
            decision = CompressionDecision.of(
                self.model, record.sample_id, kinds[split], record.size_at(split)
            )
            if decision is not None:
                candidates.append(decision)
        candidates.sort(key=lambda d: d.efficiency, reverse=True)

        # The order is fixed, so the run up to the first refusal or stop is
        # accepted in one step and only the rest is offered one by one.
        head = budget.offer_run(
            np.array([d.compute_cpu_s for d in candidates], dtype=np.float64),
            np.array([d.storage_cpu_s for d in candidates], dtype=np.float64),
            np.array([-d.saved_bytes for d in candidates], dtype=np.float64),
        )
        decisions: Dict[int, CompressionDecision] = {
            decision.sample_id: decision for decision in candidates[:head]
        }
        reason = "exhausted compressible candidates"
        for decision in candidates[head:]:
            if not budget.network_bound:
                reason = (
                    f"network no longer predominant after {len(decisions)} samples"
                )
                break
            if budget.offer(
                decision.compute_cpu_s, decision.storage_cpu_s, -decision.saved_bytes
            ):
                decisions[decision.sample_id] = decision

        return CompressionPlan(
            decisions=decisions,
            reason=f"compressed {len(decisions)}/{len(records)} samples; {reason}",
            expected=budget.estimate(),
        )
