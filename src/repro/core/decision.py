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
import itertools
import logging
from typing import Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.epoch_model import EpochBudget
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
from repro.utils.floats import checked

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


def _budget_state(accepted: int, budget: EpochBudget) -> BudgetState:
    return BudgetState(
        accepted_samples=accepted,
        epoch_estimate_s=budget.epoch_time_s,
        bottleneck=budget.estimate().bottleneck.value,
        network_bound=budget.network_bound,
        storage_cpu_s=budget.storage_cpu_s,
        traffic_bytes=budget.traffic_bytes,
    )


@dataclasses.dataclass(frozen=True)
class DecisionConfig:
    """Engine knobs.

    never_worsen: skip samples whose offload would raise the epoch estimate.
    epsilon_s: tolerance when comparing epoch estimates (finite, >= 0).
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
        checked("epsilon_s", self.epsilon_s, 0.0)
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
        table = RecordTable.covering(records)
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

        # Baseline: everything fetched raw, all preprocessing local.
        budget = EpochBudget(
            spec,
            table.epoch_metrics(gpu_time_s, overhead_bytes),
            never_worsen=self.config.never_worsen,
            epsilon_s=self.config.epsilon_s,
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
                splits=[0] * num_samples,
                reason="no samples with positive offloading efficiency",
                expected=budget.estimate(),
            )

        accept_text = (
            f"best remaining candidate (order={self.config.order}) while network-bound"
        )
        chosen = table.min_stage[candidates]
        moved = table.best_cost[candidates]
        saved = table.best_savings[candidates]
        audited = notes.audit is not None
        first_state = _budget_state(0, budget) if audited else None
        # The prefix work moves from the compute node to the storage node;
        # the sample's remaining ops still run locally.  The run up to the
        # first refusal, clamp or stop is accepted in one step.
        accepted = budget.offer_run(-moved, moved, -saved)
        splits = np.zeros(num_samples, dtype=np.int64)
        splits[candidates[:accepted]] = chosen[:accepted]
        skipped = 0
        stopped_at = len(candidates)
        reason = "exhausted candidates with positive efficiency"
        offer = budget.offer
        try:
            if notes.detailed:
                # A row's budget is the one before its offer: the baseline,
                # then the budget after each earlier offer of the run.
                states: Iterator[Optional[BudgetState]] = itertools.repeat(None)
                if audited:
                    states = itertools.chain(
                        (first_state,),
                        (
                            BudgetState(count, epoch, bottleneck.value, bound, storage, traffic)
                            for count, (epoch, bottleneck, bound, storage, traffic)
                            in enumerate(budget.trail(), 1)
                        ),
                    )
                for index, (row, split, state) in enumerate(
                    zip(candidates[:accepted].tolist(), chosen[:accepted].tolist(), states)
                ):
                    notes.note(row, split, OFFLOADED, accept_text, budget=state, rank=index + 1)
            for index, (row, split, moved_cpu, saved_bytes) in enumerate(
                zip(
                    candidates[accepted:].tolist(),
                    chosen[accepted:].tolist(),
                    moved[accepted:].tolist(),
                    saved[accepted:].tolist(),
                ),
                accepted,
            ):
                if not budget.network_bound:
                    reason = (
                        "network no longer predominant (bottleneck: "
                        f"{budget.estimate().bottleneck.value}) after {accepted} samples"
                    )
                    stopped_at = index
                    break
                state = _budget_state(accepted, budget) if audited else None
                if not offer(-moved_cpu, moved_cpu, -saved_bytes):
                    skipped += 1
                    if notes.detailed:
                        notes.note(
                            row,
                            0,
                            SKIPPED_WOULD_WORSEN,
                            "offload would raise the epoch estimate "
                            f"{budget.epoch_time_s:.6f}s -> {budget.refused_s:.6f}s",
                            budget=state,
                            rank=index + 1,
                        )
                    continue
                splits[row] = split
                accepted += 1
                if notes.detailed:
                    notes.note(row, split, OFFLOADED, accept_text, budget=state, rank=index + 1)
        finally:
            notes.count(OFFLOADED, accepted)
            notes.count(SKIPPED_WOULD_WORSEN, skipped)
        final = budget.estimate()
        notes.count(PLANNING_STOPPED, len(candidates) - stopped_at)
        if notes.detailed and stopped_at < len(candidates):
            final_budget = _budget_state(accepted, budget)
            for index, row in enumerate(candidates[stopped_at:].tolist(), stopped_at):
                notes.note(row, 0, PLANNING_STOPPED, reason, budget=final_budget, rank=index + 1)

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
            splits=splits.tolist(), reason=f"{note_text}; {reason}", expected=final
        )
