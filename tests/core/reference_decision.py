"""The scalar decision loop, kept as the plan oracle.

This is ``DecisionEngine.plan`` as it ran before the engine moved onto
:class:`~repro.preprocessing.records.RecordTable` columns: one
``SampleRecord`` at a time, a ``dataclasses.replace`` and up to two
``EpochModel.estimate`` calls per candidate, and one counter increment,
audit record and tracer event per sample.  The differential tests plan
with both and require equal splits, reasons, estimates, audit records,
tracer events and ``decision_outcomes_total`` series -- the same role
``repro.cluster.refsim`` plays for the epoch simulator.
"""

import logging
from typing import Optional, Sequence, Tuple

from repro.cluster.epoch_model import EpochEstimate, EpochMetrics, EpochModel
from repro.cluster.spec import ClusterSpec
from repro.core.decision import DecisionConfig
from repro.core.plan import OffloadPlan
from repro.preprocessing.records import SampleRecord
from repro.telemetry.audit import (
    NOT_BENEFICIAL,
    OFFLOADED,
    PLANNING_STOPPED,
    SKIPPED_WOULD_WORSEN,
    AuditLog,
    BudgetState,
    CandidateSplit,
    DecisionRecord,
)
from repro.telemetry.registry import get_default_registry
from repro.telemetry.spans import Tracer, trace_id

logger = logging.getLogger(__name__)


def _candidate_splits(record: SampleRecord) -> Tuple[CandidateSplit, ...]:
    """Every split the engine could have chosen, as the profiler costed it."""
    return tuple(
        CandidateSplit(
            split=split,
            size_bytes=record.size_at(split),
            prefix_cpu_s=record.prefix_cost(split),
            savings_bytes=record.savings(split),
        )
        for split in range(record.num_ops + 1)
    )


def _budget_state(
    accepted: int, metrics: EpochMetrics, estimate: EpochEstimate
) -> BudgetState:
    return BudgetState(
        accepted_samples=accepted,
        epoch_estimate_s=estimate.epoch_time_s,
        bottleneck=estimate.bottleneck.value,
        network_bound=estimate.network_bound,
        storage_cpu_s=metrics.storage_cpu_s,
        traffic_bytes=metrics.traffic_bytes,
    )


class ReferenceDecisionEngine:
    """Greedy efficiency-ordered sample selection, one record at a time."""

    def __init__(self, config: DecisionConfig = DecisionConfig()) -> None:
        self.config = config

    def plan(
        self,
        records: Sequence[SampleRecord],
        spec: ClusterSpec,
        gpu_time_s: float,
        overhead_bytes: Optional[int] = None,
        audit: Optional[AuditLog] = None,
        tracer: Optional[Tracer] = None,
    ) -> OffloadPlan:
        """Build the offload plan for one epoch's worth of records.

        gpu_time_s: the epoch's T_G (from the stage-one GPU probe).
        overhead_bytes: per-response protocol framing; defaults to the
            cluster spec's value.
        audit: when given, receives one :class:`DecisionRecord` per sample
            explaining its outcome (the ``sophon-repro audit`` data source).
        tracer: when given, each sample's decision is emitted as an instant
            event on its epoch-0 trace (the plan applies to every epoch).
        """
        num_samples = len(records)
        if any(r.sample_id != i for i, r in enumerate(records)):
            raise ValueError(
                "records must be ordered by sample id covering 0..n-1 "
                "(as produced by the stage-two profiler)"
            )
        if overhead_bytes is None:
            overhead_bytes = spec.response_overhead_bytes

        outcomes = get_default_registry().counter(
            "decision_outcomes_total",
            "per-sample offload decisions by outcome",
            labels=["outcome"],
        )

        def note(
            record: SampleRecord,
            chosen: int,
            outcome: str,
            reason: str,
            budget: Optional[BudgetState] = None,
            rank: Optional[int] = None,
        ) -> None:
            outcomes.inc(outcome=outcome)
            if audit is not None:
                audit.add(
                    DecisionRecord(
                        sample_id=record.sample_id,
                        candidates=_candidate_splits(record),
                        chosen_split=chosen,
                        best_split=record.min_stage,
                        efficiency=record.offload_efficiency,
                        efficiency_rank=rank,
                        outcome=outcome,
                        reason=reason,
                        budget=budget,
                    )
                )
            if tracer is not None:
                tracer.instant(
                    trace_id(record.sample_id, 0),
                    "decision",
                    outcome=outcome,
                    split=chosen,
                    reason=reason,
                )

        if not spec.can_offload:
            reason = "storage node has no CPU cores for offloading"
            for record in records:
                note(record, 0, PLANNING_STOPPED, reason)
            return OffloadPlan.no_offload(num_samples, reason=reason)

        model = EpochModel(spec)
        splits = [0] * num_samples

        # Baseline: everything fetched raw, all preprocessing local.
        metrics = EpochMetrics(
            gpu_time_s=gpu_time_s,
            compute_cpu_s=sum(r.total_cost for r in records),
            storage_cpu_s=0.0,
            traffic_bytes=float(
                sum(r.raw_size for r in records) + overhead_bytes * num_samples
            ),
        )

        beneficial = [r for r in records if r.offload_efficiency > 0]
        if self.config.order == "efficiency":
            candidates = sorted(
                beneficial, key=lambda r: r.offload_efficiency, reverse=True
            )
        elif self.config.order == "savings":
            candidates = sorted(beneficial, key=lambda r: r.best_savings, reverse=True)
        else:  # arrival order
            candidates = sorted(beneficial, key=lambda r: r.sample_id)

        ranked = {r.sample_id: i + 1 for i, r in enumerate(candidates)}
        for record in records:
            if record.sample_id not in ranked:
                note(
                    record,
                    0,
                    NOT_BENEFICIAL,
                    "no split with positive offloading efficiency",
                )

        if not candidates:
            return OffloadPlan(
                splits=splits,
                reason="no samples with positive offloading efficiency",
                expected=model.estimate(metrics),
            )

        accepted = 0
        skipped = 0
        stopped_at = len(candidates)
        reason = "exhausted candidates with positive efficiency"
        for index, record in enumerate(candidates):
            estimate = model.estimate(metrics)
            if not estimate.network_bound:
                reason = (
                    "network no longer predominant (bottleneck: "
                    f"{estimate.bottleneck.value}) after {accepted} samples"
                )
                stopped_at = index
                break
            budget = _budget_state(accepted, metrics, estimate)
            split = record.min_stage
            moved_cpu = record.prefix_cost(split)
            # The prefix work moves from the compute node to the storage
            # node; the sample's remaining ops still run locally.  Float
            # cancellation can push the running sum a hair below zero.
            local_cpu = metrics.compute_cpu_s - moved_cpu
            trial = metrics.replace(
                compute_cpu_s=local_cpu if local_cpu >= 0 else 0.0,
                storage_cpu_s=metrics.storage_cpu_s + moved_cpu,
                traffic_bytes=metrics.traffic_bytes - record.savings(split),
            )
            if self.config.never_worsen:
                post = model.estimate(trial)
                if post.epoch_time_s > estimate.epoch_time_s + self.config.epsilon_s:
                    skipped += 1
                    note(
                        record,
                        0,
                        SKIPPED_WOULD_WORSEN,
                        "offload would raise the epoch estimate "
                        f"{estimate.epoch_time_s:.6f}s -> {post.epoch_time_s:.6f}s",
                        budget=budget,
                        rank=ranked[record.sample_id],
                    )
                    continue
            splits[record.sample_id] = split
            metrics = trial
            accepted += 1
            note(
                record,
                split,
                OFFLOADED,
                f"best remaining candidate (order={self.config.order}) "
                "while network-bound",
                budget=budget,
                rank=ranked[record.sample_id],
            )
        final_estimate = model.estimate(metrics)
        for record in candidates[stopped_at:]:
            note(
                record,
                0,
                PLANNING_STOPPED,
                reason,
                budget=_budget_state(accepted, metrics, final_estimate),
                rank=ranked[record.sample_id],
            )

        final = final_estimate
        note_text = f"offloaded {accepted}/{num_samples} samples"
        if skipped:
            note_text += f", skipped {skipped} (would worsen epoch estimate)"
        logger.info(
            "decision: %s; %s (expected epoch %.2fs, bottleneck %s)",
            note_text,
            reason,
            final.epoch_time_s,
            final.bottleneck.value,
        )
        return OffloadPlan(
            splits=splits, reason=f"{note_text}; {reason}", expected=final
        )
