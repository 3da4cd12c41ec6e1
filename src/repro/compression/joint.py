"""Joint offload + compression planning.

:class:`~repro.compression.selective.SelectiveCompressor` runs *after* the
offload engine, so under a tight storage-CPU budget the offload pass can
spend the whole budget before compression gets a look -- even when
compressing an already-offloaded sample saves more bytes per CPU-second
than offloading the next marginal sample.  The joint planner fixes that:
both action types compete in one efficiency-ordered greedy queue.

Actions:

- *offload(i)*: move sample i's prefix to the storage node (unlocks a
  follow-up compression action for i);
- *compress(i)*: deflate sample i's offloaded payload on the storage node.

Both are ranked by bytes saved per storage-CPU-second, admitted while the
network stays predominant and the epoch estimate improves -- the same
discipline as the sequential planners, in one queue.
"""

import dataclasses
import heapq
from typing import Dict, Optional, Sequence

from repro.cluster.epoch_model import EpochMetrics, EpochModel
from repro.cluster.spec import ClusterSpec
from repro.compression.codecs import CompressionModel
from repro.compression.selective import CompressionDecision, CompressionPlan, stage_kinds
from repro.core.plan import OffloadPlan
from repro.preprocessing.pipeline import Pipeline
from repro.preprocessing.records import SampleRecord


@dataclasses.dataclass
class JointPlan:
    """The joint outcome: an offload plan plus a compression plan."""

    offload: OffloadPlan
    compression: CompressionPlan

    @property
    def num_offloaded(self) -> int:
        return self.offload.num_offloaded

    @property
    def num_compressed(self) -> int:
        return self.compression.num_compressed


class JointPlanner:
    """One greedy queue over offload and compression actions."""

    def __init__(self, model: Optional[CompressionModel] = None) -> None:
        self.model = model if model is not None else CompressionModel()

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
