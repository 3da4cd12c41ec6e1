"""SOPHON's decision engine (paper section 3.2).

Starting from the no-offload baseline (T_Net predominant, T_CS = 0), the
engine repeatedly selects the remaining sample with the highest offloading
efficiency -- bytes saved per CPU-second of offloaded work -- moving that
sample's pipeline prefix to the storage node.  Selection stops when either

1. T_Net ceases to be the predominant metric, or
2. no samples with positive efficiency remain.

An optional ``never_worsen`` guard additionally skips a sample whose
addition would *raise* the analytic epoch estimate (a prefix so expensive
that T_CS overshoots the network time it saves); this keeps the plan
monotone under severe storage-CPU scarcity and is ablated in the extension
benchmarks.
"""

import dataclasses
import logging
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.epoch_model import EpochEstimate, EpochMetrics, EpochModel
from repro.cluster.spec import ClusterSpec
from repro.core.plan import OffloadPlan
from repro.preprocessing.records import RecordTable, SampleRecord
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


@dataclasses.dataclass(frozen=True)
class DecisionConfig:
    """Engine knobs.

    never_worsen: skip samples whose offload would raise the epoch estimate.
    epsilon_s: tolerance when comparing epoch estimates.
    order: candidate ranking -- "efficiency" (the paper's bytes saved per
        CPU-second), "savings" (absolute bytes saved; ignores CPU cost), or
        "arrival" (sample-id order; no ranking at all).  The alternatives
        exist for the Finding-#4 ablation: under storage-CPU scarcity,
        efficiency ordering wins.
    """

    never_worsen: bool = True
    epsilon_s: float = 1e-9
    order: str = "efficiency"

    _ORDERS = ("efficiency", "savings", "arrival")

    def __post_init__(self) -> None:
        if self.order not in self._ORDERS:
            raise ValueError(
                f"order must be one of {self._ORDERS}, got {self.order!r}"
            )


class _Notes:
    """Per-sample decision outcomes: counted per outcome, audited and
    traced row by row only when an audit log or tracer asks for them."""

    def __init__(
        self, table: RecordTable, audit: Optional[AuditLog], tracer: Optional[Tracer]
    ) -> None:
        self.table = table
        self.audit = audit
        self.tracer = tracer
        self.detailed = audit is not None or tracer is not None
        self.counts: Dict[str, int] = {}

    def count(self, outcome: str, samples: int) -> None:
        if samples:
            self.counts[outcome] = self.counts.get(outcome, 0) + samples

    def note(
        self,
        row: int,
        chosen: int,
        outcome: str,
        reason: str,
        budget: Optional[BudgetState] = None,
        rank: Optional[int] = None,
    ) -> None:
        """One sample's audit record and tracer event (callers count)."""
        record = self.table[row]
        if self.audit is not None:
            self.audit.add(
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
        if self.tracer is not None:
            self.tracer.instant(
                trace_id(record.sample_id, 0),
                "decision",
                outcome=outcome,
                split=chosen,
                reason=reason,
            )

    def publish(self) -> None:
        """One ``decision_outcomes_total`` increment per outcome that occurred."""
        outcomes = get_default_registry().counter(
            "decision_outcomes_total",
            "per-sample offload decisions by outcome",
            labels=["outcome"],
        )
        for outcome, samples in self.counts.items():
            outcomes.inc(samples, outcome=outcome)


class DecisionEngine:
    """Greedy efficiency-ordered sample selection against the epoch model."""

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

        records: a :class:`RecordTable` (what ``build_records`` returns);
            any other sequence of records is converted to one first.
        gpu_time_s: the epoch's T_G (from the stage-one GPU probe).
        overhead_bytes: per-response protocol framing; defaults to the
            cluster spec's value.
        audit: when given, receives one :class:`DecisionRecord` per sample
            explaining its outcome (the ``sophon-repro audit`` data source).
        tracer: when given, each sample's decision is emitted as an instant
            event on its epoch-0 trace (the plan applies to every epoch).
        """
        table = RecordTable.from_records(records)
        num_samples = len(table)
        if not np.array_equal(table.sample_ids, np.arange(num_samples)):
            raise ValueError(
                "records must be ordered by sample id covering 0..n-1 "
                "(as produced by the stage-two profiler)"
            )
        if overhead_bytes is None:
            overhead_bytes = spec.response_overhead_bytes
        notes = _Notes(table, audit, tracer)
        try:
            return self._plan(table, spec, gpu_time_s, overhead_bytes, notes)
        finally:
            notes.publish()

    def _plan(
        self,
        table: RecordTable,
        spec: ClusterSpec,
        gpu_time_s: float,
        overhead_bytes: int,
        notes: _Notes,
    ) -> OffloadPlan:
        num_samples = len(table)
        if not spec.can_offload:
            reason = "storage node has no CPU cores for offloading"
            notes.count(PLANNING_STOPPED, num_samples)
            if notes.detailed:
                for row in range(num_samples):
                    notes.note(row, 0, PLANNING_STOPPED, reason)
            return OffloadPlan.no_offload(num_samples, reason=reason)

        model = EpochModel(spec)
        splits = [0] * num_samples

        # Baseline: everything fetched raw, all preprocessing local.  The
        # totals are builtin sums over Python numbers, in sample order --
        # exactly the scalar sums (compensated on Python >= 3.12).
        metrics = EpochMetrics(
            gpu_time_s=gpu_time_s,
            compute_cpu_s=sum(table.total_costs()),
            storage_cpu_s=0.0,
            traffic_bytes=float(
                sum(table.raw_size.tolist()) + overhead_bytes * num_samples
            ),
        )

        efficiency = table.offload_efficiency
        beneficial = np.flatnonzero(efficiency > 0)
        # Stable ascending sorts of the negated keys keep equal keys in
        # sample-id order, as ``sorted(..., reverse=True)`` does.
        if self.config.order == "efficiency":
            candidates = beneficial[np.argsort(-efficiency[beneficial], kind="stable")]
        elif self.config.order == "savings":
            candidates = beneficial[
                np.argsort(-table.best_savings[beneficial], kind="stable")
            ]
        else:  # arrival order
            candidates = beneficial

        notes.count(NOT_BENEFICIAL, num_samples - len(candidates))
        if notes.detailed:
            for row in np.flatnonzero(~(efficiency > 0)).tolist():
                notes.note(
                    row, 0, NOT_BENEFICIAL, "no split with positive offloading efficiency"
                )

        if not len(candidates):
            return OffloadPlan(
                splits=splits,
                reason="no samples with positive offloading efficiency",
                expected=model.estimate(metrics),
            )

        # The greedy loop runs over Python numbers with EpochModel.estimate
        # inlined term by term, so every value equals the scalar engine's.
        t_g = metrics.gpu_time_s
        compute_cpu_s = metrics.compute_cpu_s
        storage_cpu_s = metrics.storage_cpu_s
        traffic_bytes = metrics.traffic_bytes
        compute_scale, compute_cores = spec.compute_cpu_factor, spec.compute_cores
        storage_scale, storage_cores = spec.storage_cpu_factor, spec.storage_cores
        bandwidth = spec.bandwidth_bytes_per_s
        never_worsen = self.config.never_worsen
        epsilon_s = self.config.epsilon_s
        accept_text = (
            f"best remaining candidate (order={self.config.order}) while network-bound"
        )

        t_cc = compute_cpu_s * compute_scale / compute_cores
        t_cs = 0.0 if storage_cpu_s == 0 else storage_cpu_s * storage_scale / storage_cores
        t_net = traffic_bytes / bandwidth
        accepted = 0
        skipped = 0
        stopped_at = len(candidates)
        reason = "exhausted candidates with positive efficiency"
        rows = candidates.tolist()
        try:
            for index, (row, split, moved_cpu, saved) in enumerate(
                zip(
                    rows,
                    table.min_stage[candidates].tolist(),
                    table.best_cost[candidates].tolist(),
                    table.best_savings[candidates].tolist(),
                )
            ):
                if not t_net >= max(t_g, t_cc, t_cs):
                    bottleneck = EpochEstimate(t_g, t_cc, t_cs, t_net).bottleneck.value
                    reason = (
                        "network no longer predominant (bottleneck: "
                        f"{bottleneck}) after {accepted} samples"
                    )
                    stopped_at = index
                    break
                epoch_s = max(t_g, t_cc, t_cs, t_net)
                budget = None
                if notes.audit is not None:
                    budget = _budget_state(
                        accepted,
                        EpochMetrics(t_g, compute_cpu_s, storage_cpu_s, traffic_bytes),
                        EpochEstimate(t_g, t_cc, t_cs, t_net),
                    )
                # The prefix work moves from the compute node to the storage
                # node; the sample's remaining ops still run locally.  Float
                # cancellation can push the running sum a hair below zero.
                local_cpu = compute_cpu_s - moved_cpu
                trial_compute = local_cpu if local_cpu >= 0 else 0.0
                trial_storage = storage_cpu_s + moved_cpu
                trial_traffic = traffic_bytes - saved
                if trial_storage < 0 or trial_traffic < 0:
                    EpochMetrics(t_g, trial_compute, trial_storage, trial_traffic)  # raises
                post_cc = trial_compute * compute_scale / compute_cores
                post_cs = (
                    0.0 if trial_storage == 0 else trial_storage * storage_scale / storage_cores
                )
                post_net = trial_traffic / bandwidth
                if never_worsen:
                    post_s = max(t_g, post_cc, post_cs, post_net)
                    if post_s > epoch_s + epsilon_s:
                        skipped += 1
                        if notes.detailed:
                            notes.note(
                                row,
                                0,
                                SKIPPED_WOULD_WORSEN,
                                "offload would raise the epoch estimate "
                                f"{epoch_s:.6f}s -> {post_s:.6f}s",
                                budget=budget,
                                rank=index + 1,
                            )
                        continue
                splits[row] = split
                compute_cpu_s, storage_cpu_s, traffic_bytes = (
                    trial_compute, trial_storage, trial_traffic
                )
                t_cc, t_cs, t_net = post_cc, post_cs, post_net
                accepted += 1
                if notes.detailed:
                    notes.note(row, split, OFFLOADED, accept_text, budget=budget, rank=index + 1)
        finally:
            notes.count(OFFLOADED, accepted)
            notes.count(SKIPPED_WOULD_WORSEN, skipped)
        metrics = EpochMetrics(t_g, compute_cpu_s, storage_cpu_s, traffic_bytes)
        final = model.estimate(metrics)
        notes.count(PLANNING_STOPPED, len(rows) - stopped_at)
        if notes.detailed and stopped_at < len(rows):
            final_budget = _budget_state(accepted, metrics, final)
            for index in range(stopped_at, len(rows)):
                notes.note(
                    rows[index],
                    0,
                    PLANNING_STOPPED,
                    reason,
                    budget=final_budget,
                    rank=index + 1,
                )

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
