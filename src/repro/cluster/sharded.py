"""Sharded storage clusters: many storage nodes behind one egress cap.

The paper's storage side is "remote storage clusters such as distributed
file systems or object stores" -- many nodes, each holding a shard of the
dataset and contributing CPU for near-storage preprocessing, all draining
through the inter-cluster link.  This module extends the trainer to that
shape: samples map to shards, each shard has its own CPU pool, and a
sample's offloaded prefix must run on *its* shard (the data is there).

The interesting failure mode is placement skew: if the offload-heavy
samples cluster on one shard, that node becomes the bottleneck while the
others idle -- aggregate cores stop being the right capacity measure.

:class:`ShardedTrainerSim` runs :class:`~repro.cluster.trainer.TrainerSim`'s
own ``run_epoch`` -- ``record_spans``, ``record_timeline``, ``adjustments``,
``faults`` and ``kernel`` all work, and any caller written against the base
class can be handed the sharded sim unchanged; the stats it returns are a
:class:`ShardedStats`.  It overrides only the hook that makes the storage
pools (one per shard, plus the placement map).  Per-sample spans land on
the same ``trace_id(sample, epoch)`` ids as the single-node path, with a
``shard`` label naming the pool that ran the offloaded prefix.
"""

import dataclasses
from types import ModuleType
from typing import Callable, List, Optional, Sequence, Tuple

from repro.cluster.sim import Environment, Resource
from repro.cluster.spec import ClusterSpec
from repro.cluster.trainer import EpochStats, JobHandles, TrainerSim
from repro.data.dataset import Dataset
from repro.preprocessing.pipeline import Pipeline
from repro.workloads.models import ModelProfile


def round_robin_placement(num_samples: int, num_shards: int) -> List[int]:
    """sample_id -> shard, spreading consecutive ids across shards."""
    return [i % num_shards for i in range(num_samples)]


@dataclasses.dataclass
class ShardedStats(EpochStats):
    """Epoch stats plus per-shard CPU utilization.

    A true :class:`~repro.cluster.trainer.EpochStats` -- callers that treat
    trainers uniformly read ``epoch_time_s`` / ``traffic_bytes`` / ``spans``
    directly; ``shard_utilization[s]`` adds shard ``s``'s busy fraction.
    """

    shard_utilization: List[float] = dataclasses.field(default_factory=list)

    @property
    def hottest_shard(self) -> float:
        return max(self.shard_utilization) if self.shard_utilization else 0.0


class ShardedTrainerSim(TrainerSim):
    """TrainerSim over a sharded storage cluster.

    spec.storage_cores is interpreted *per shard*; aggregate storage CPU
    is ``num_shards * storage_cores``.  An offloaded sample's prefix runs
    on the shard holding it.

    num_shards: explicit shard count; defaults to ``max(placement) + 1``.
        Pass it when trailing shards may receive no samples (e.g. a
        contiguous placement of 4 samples over 8 shards), so the idle
        shards still show up in ``shard_utilization`` instead of
        silently vanishing and skewing ``hottest_shard``.
    """

    def __init__(
        self,
        dataset: Dataset,
        pipeline: Pipeline,
        model: ModelProfile,
        spec: ClusterSpec,
        placement: Sequence[int],
        batch_size: Optional[int] = None,
        num_shards: Optional[int] = None,
        seed: int = 0,
        job_label: Optional[str] = None,
    ) -> None:
        super().__init__(
            dataset, pipeline, model, spec,
            batch_size=batch_size, seed=seed, job_label=job_label,
        )
        if len(placement) != len(dataset):
            raise ValueError(
                f"placement covers {len(placement)} samples, dataset has {len(dataset)}"
            )
        if placement and min(placement) < 0:
            raise ValueError("shard ids must be >= 0")
        self.placement = list(placement)
        inferred = (max(self.placement) + 1) if self.placement else 1
        if num_shards is None:
            num_shards = inferred
        elif num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        elif inferred > num_shards:
            raise ValueError(
                f"placement references shard {inferred - 1} but num_shards is "
                f"{num_shards}"
            )
        self.num_shards = num_shards

    def shard_of(self, sample_id: int) -> int:
        """The shard holding ``sample_id`` (also the span ``shard`` label)."""
        return self.placement[sample_id]

    def _storage_pools(
        self, env: Environment, kernel: ModuleType
    ) -> Tuple[List[Resource], Optional[Callable[[int], int]]]:
        # No storage cores means no shard pools at all: a split > 0 plan is
        # rejected by the work builder exactly as on the single-node sim,
        # instead of silently granting each shard a phantom core.
        shards = range(self.num_shards) if self.spec.can_offload else ()
        pools = [
            kernel.Resource(env, self.spec.storage_cores, f"shard-{s}-cpu") for s in shards
        ]
        return pools, self.shard_of

    def _wrap_stats(
        self, stats: EpochStats, handles: JobHandles, horizon: float
    ) -> "ShardedStats":
        utilization = [pool.utilization(horizon) for pool in handles.storage_pools]
        fields = {
            f.name: getattr(stats, f.name) for f in dataclasses.fields(EpochStats)
        }
        return ShardedStats(
            shard_utilization=utilization or [0.0] * self.num_shards, **fields
        )
