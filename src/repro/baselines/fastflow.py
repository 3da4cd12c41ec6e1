"""FastFlow-style coarse-grained offloading decision.

The published FastFlow (VLDB '23) offloads input pipelines to remote CPU
workers to relieve *CPU* bottlenecks, treating the preprocessing pipeline
as a single unit and all samples uniformly.  The paper evaluates exactly
that decision rule against SOPHON: estimate epoch time with everything
offloaded versus nothing offloaded, and pick the faster.  Under the
paper's I/O-bound setups, offloading-everything inflates traffic (float
tensors), so FastFlow always chooses not to offload -- which is the
behaviour Figures 3 and 4 report.
"""

from repro.baselines.capabilities import Capabilities
from repro.cluster.epoch_model import EpochModel
from repro.core.plan import OffloadPlan
from repro.core.policy import Policy, PolicyContext


class FastFlow(Policy):
    """All-or-nothing offloading chosen by a coarse epoch-time estimate."""

    name = "fastflow"
    capabilities = Capabilities(to_near_storage=True)

    def plan(self, context: PolicyContext) -> OffloadPlan:
        num = context.num_samples
        if not context.spec.can_offload:
            return OffloadPlan.no_offload(num, reason="fastflow: no storage cores")

        records = context.records()
        model = EpochModel(context.spec)
        overhead = context.spec.response_overhead_bytes
        gpu_time = context.epoch_gpu_time_s
        full_split = len(context.pipeline)

        local = records.epoch_metrics(gpu_time, overhead)
        offloaded = records.epoch_metrics(gpu_time, overhead, [full_split] * num)

        local_est = model.estimate(local)
        off_est = model.estimate(offloaded)
        if off_est.epoch_time_s < local_est.epoch_time_s:
            return OffloadPlan.uniform(
                num,
                split=full_split,
                reason=(
                    f"fastflow: full offload predicted {off_est.epoch_time_s:.1f}s "
                    f"< local {local_est.epoch_time_s:.1f}s"
                ),
                )
        return OffloadPlan(
            splits=[0] * num,
            reason=(
                f"fastflow: full offload predicted {off_est.epoch_time_s:.1f}s "
                f">= local {local_est.epoch_time_s:.1f}s; not offloading"
            ),
            expected=local_est,
        )
