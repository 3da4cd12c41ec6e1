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

Both are ranked by bytes saved per storage-CPU-second and offered, from
one queue, to the accept step the sequential planners share
(:class:`~repro.cluster.epoch_model.EpochBudget`).
"""

import dataclasses
import heapq
from typing import Dict, Optional, Sequence

from repro.cluster.epoch_model import EpochBudget
from repro.cluster.spec import ClusterSpec
from repro.compression.codecs import CompressionModel
from repro.compression.selective import CompressionDecision, CompressionPlan, stage_kinds
from repro.core.plan import OffloadPlan
from repro.preprocessing.pipeline import Pipeline
from repro.preprocessing.records import RecordTable, SampleRecord


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
    """One greedy queue over offload and compression actions.

    Each accepted offload pushes its follow-up compression into the queue,
    so the offer order is not known before the loop and every action goes
    through the scalar :meth:`EpochBudget.offer`, never the bulk
    :meth:`EpochBudget.offer_run` the fixed-order planners start with.
    """

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
        table = RecordTable.covering(records)
        num_samples = len(table)
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
        budget = EpochBudget(spec, table.epoch_metrics(gpu_time_s, overhead_bytes))

        # Heap entries: (-efficiency, seq, kind, record/decision)
        heap = []
        seq = 0
        for record in table:
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
            if not budget.network_bound:
                reason = (
                    "network no longer predominant (bottleneck: "
                    f"{budget.estimate().bottleneck.value})"
                )
                break
            _, _, action, payload = heapq.heappop(heap)
            if action == "offload":
                record = payload
                split = record.min_stage
                moved = record.prefix_cost(split)
                if not budget.offer(-moved, moved, -record.savings(split)):
                    continue
                splits[record.sample_id] = split
                accepted_offloads += 1
                # Offloading unlocks compressing this sample's payload.
                follow_up = CompressionDecision.of(
                    self.model, record.sample_id, kinds[split], record.size_at(split)
                )
                if follow_up is not None:
                    heapq.heappush(
                        heap, (-follow_up.efficiency, seq, "compress", follow_up)
                    )
                    seq += 1
            else:
                decision = payload
                if not budget.offer(
                    decision.compute_cpu_s, decision.storage_cpu_s, -decision.saved_bytes
                ):
                    continue
                decisions[decision.sample_id] = decision
                accepted_compressions += 1

        final = budget.estimate()
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
