"""Multi-epoch training runs: profile on epoch 0, plan, train, re-plan.

The paper's profiling discipline (section 3.1): "we proceed with the
first training epoch without offloading any preprocessing tasks and
collect essential per-sample metrics" -- so profiling costs nothing
beyond training epoch 1 at No-Off speed, and the plan pays off over the
remaining epochs ("a typical training job spans over 50 epochs").
:class:`AdaptiveTrainingRun` plays that out: epoch 0 runs unoffloaded,
the policy plans from epoch-0 records, and every later epoch runs under
the plan.

The paper plans once.  Real clusters drift: another tenant grabs the
storage node's cores, or the egress cap changes.  A plan tuned for 48
storage cores can be actively *harmful* on 1 core (its T_CS explodes
past the No-Off epoch).  So the run re-plans whenever the cluster spec
changes between epochs, reusing the cached stage-two records -- the job
reacts at the cost of a cheap analytic pass, with no re-profiling.
"""

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.spec import ClusterSpec
from repro.cluster.trainer import EpochStats, TrainerSim
from repro.core.degraded import OutageReport
from repro.core.plan import OffloadPlan
from repro.core.policy import Policy, PolicyContext
from repro.core.sophon import Sophon
from repro.data.dataset import Dataset
from repro.preprocessing.pipeline import Pipeline, standard_pipeline
from repro.workloads.models import ModelProfile, get_model_profile


@dataclasses.dataclass
class AdaptiveEpoch:
    """One epoch of an adaptive run."""

    epoch: int
    spec: ClusterSpec
    plan: OffloadPlan
    stats: EpochStats
    replanned: bool


@dataclasses.dataclass
class AdaptiveRunResult:
    epochs: List[AdaptiveEpoch]

    @property
    def total_time_s(self) -> float:
        return sum(e.stats.epoch_time_s for e in self.epochs)

    @property
    def replan_count(self) -> int:
        return sum(1 for e in self.epochs if e.replanned)

    def epoch_times(self) -> List[float]:
        return [e.stats.epoch_time_s for e in self.epochs]

    @property
    def profile_epoch_time_s(self) -> float:
        """Epoch 0: the unoffloaded profiling epoch."""
        return self.epochs[0].stats.epoch_time_s

    @property
    def steady_epoch_time_s(self) -> float:
        """A post-plan epoch (the last one)."""
        return self.epochs[-1].stats.epoch_time_s

    def speedup_over(self, baseline: "AdaptiveRunResult") -> float:
        """End-to-end job speedup vs another run of equal epoch count."""
        if len(baseline.epochs) != len(self.epochs):
            raise ValueError(
                f"epoch counts differ: {len(self.epochs)} vs {len(baseline.epochs)}"
            )
        return baseline.total_time_s / self.total_time_s

    def instrumented_epochs(self) -> List[Tuple[int, EpochStats]]:
        """(epoch, stats) pairs: what ``harness.telemetry.emit_artifacts`` takes."""
        return [(e.epoch, e.stats) for e in self.epochs]


class AdaptiveTrainingRun:
    """Drive a training job: profile on epoch 0, plan, then train.

    policy: plans epoch 1 and every re-plan, from a context whose spec is
        the one in force; the plan is clamped to that spec.  Defaults to
        SOPHON's decision engine without the stage-one probe.
    spec_schedule: maps epoch index -> the ClusterSpec in force from that
        epoch on (epoch 0's spec defaults to ``base_spec``).
    adaptive: when False, the epoch-1 plan is kept (clamped if offloading
        becomes impossible) -- the static strawman the adaptive run is
        compared against.
    placement / num_shards: optional sample -> shard map and shard
        count, handed to every epoch's :class:`TrainerSim`; with a
        placement the epochs run on a sharded storage cluster (per-shard
        span labels and all).
    job_name: tenant label stamped onto every span (the combined chrome
        trace's per-tenant row).
    """

    def __init__(
        self,
        dataset: Dataset,
        base_spec: ClusterSpec,
        spec_schedule: Optional[Dict[int, ClusterSpec]] = None,
        model: Optional[ModelProfile] = None,
        pipeline: Optional[Pipeline] = None,
        policy: Optional[Policy] = None,
        batch_size: Optional[int] = None,
        adaptive: bool = True,
        seed: int = 0,
        placement: Optional[Sequence[int]] = None,
        num_shards: Optional[int] = None,
        job_name: Optional[str] = None,
    ) -> None:
        self.dataset = dataset
        self.base_spec = base_spec
        self.spec_schedule = dict(spec_schedule or {})
        self.model = model if model is not None else get_model_profile("alexnet")
        self.pipeline = pipeline if pipeline is not None else standard_pipeline()
        self.policy = policy if policy is not None else Sophon(skip_stage_one=True)
        self.batch_size = batch_size
        self.adaptive = adaptive
        self.seed = seed
        self.placement = list(placement) if placement is not None else None
        self.num_shards = num_shards
        self.job_name = job_name

    def _spec_in_force(self, epoch: int) -> ClusterSpec:
        """The ClusterSpec governing *epoch* under the current schedule."""
        spec = self.base_spec
        for at in sorted(self.spec_schedule):
            if at <= epoch:
                spec = self.spec_schedule[at]
        return spec

    def observe_outage(
        self,
        report: OutageReport,
        at_epoch: int,
        recovery_epoch: Optional[int] = None,
    ) -> ClusterSpec:
        """Fold an observed outage into the spec schedule.

        From ``at_epoch`` on, planning sees a storage-down spec (forcing a
        No-Off plan -- exactly what degraded-mode execution delivers
        anyway, so the plan stops promising offloads that would each pay a
        demotion).  If the outage has recovered, the prior spec is restored
        from ``recovery_epoch`` (default: the epoch after ``at_epoch``).
        Returns the degraded spec installed at ``at_epoch``.
        """
        if at_epoch < 0:
            raise ValueError(f"at_epoch must be >= 0, got {at_epoch}")
        prior = self._spec_in_force(at_epoch)
        degraded = prior.degraded(storage_down=True)
        self.spec_schedule[at_epoch] = degraded
        if report.recovered_at_s is not None:
            restore_at = recovery_epoch if recovery_epoch is not None else at_epoch + 1
            if restore_at <= at_epoch:
                raise ValueError(
                    f"recovery_epoch {restore_at} must follow at_epoch {at_epoch}"
                )
            self.spec_schedule.setdefault(restore_at, prior)
        return degraded

    def _plan_for(self, spec: ClusterSpec, context: PolicyContext) -> OffloadPlan:
        context.spec = spec
        return self.policy.plan(context).clamped_for(spec)

    def run(
        self,
        epochs: int,
        record_spans: bool = False,
        record_timeline: bool = False,
    ) -> AdaptiveRunResult:
        """Run ``epochs`` epochs, re-planning on spec changes.

        record_spans: give every epoch its own span tracer
            (``result.epochs[i].stats.spans``), on virtual time.
        record_timeline: attach a per-batch timeline per epoch.
        Neither changes the simulated schedules.
        """
        if epochs < 2:
            raise ValueError(f"need >= 2 epochs (1 profiles), got {epochs}")
        context = PolicyContext(
            dataset=self.dataset,
            pipeline=self.pipeline,
            spec=self.base_spec,
            model=self.model,
            batch_size=self.batch_size,
            seed=self.seed,
        )

        results: List[AdaptiveEpoch] = []
        current_spec = self.spec_schedule.get(0, self.base_spec)
        plan: Optional[OffloadPlan] = None

        for epoch in range(epochs):
            new_spec = self.spec_schedule.get(epoch, current_spec)
            spec_changed = new_spec != current_spec
            current_spec = new_spec
            replanned = False

            if epoch == 0:
                # Profiling epoch: unoffloaded by construction.
                epoch_plan = OffloadPlan.no_offload(
                    len(self.dataset), reason="profiling epoch"
                )
            elif plan is None:
                plan = self._plan_for(current_spec, context)
                epoch_plan = plan
                replanned = True
            elif spec_changed and self.adaptive:
                plan = self._plan_for(current_spec, context)
                epoch_plan = plan
                replanned = True
            else:
                epoch_plan = plan.clamped_for(current_spec)

            trainer = TrainerSim(
                dataset=self.dataset,
                pipeline=self.pipeline,
                model=self.model,
                spec=current_spec,
                batch_size=context.effective_batch_size,
                seed=self.seed,
                job_label=self.job_name,
                placement=self.placement,
                num_shards=self.num_shards,
            )
            stats = trainer.run_epoch(
                list(epoch_plan.splits),
                epoch=epoch,
                record_spans=record_spans,
                record_timeline=record_timeline,
            )
            results.append(
                AdaptiveEpoch(
                    epoch=epoch,
                    spec=current_spec,
                    plan=epoch_plan,
                    stats=stats,
                    replanned=replanned,
                )
            )
        return AdaptiveRunResult(epochs=results)
