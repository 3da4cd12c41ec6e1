"""Two-node cluster substrate: virtual-time simulation of DL training.

Contents:

- :mod:`repro.cluster.sim` -- a small callback-driven discrete-event
  simulation kernel (environment, FIFO / fair-queued resources),
  driven by the cursor engine in :mod:`repro.cluster.engine`.
- :class:`ClusterSpec` -- the hardware description (cores, bandwidth, CPU
  speed factors) mirroring the paper's two-node testbed.
- :class:`EpochModel` -- the analytic epoch-time model over the paper's four
  metrics (T_G, T_CC, T_CS, T_Net); used by decision logic.
- :class:`TrainerSim` -- the event-driven trainer that actually runs an
  epoch: fetch -> offloaded prefix on storage CPUs -> bandwidth-capped link
  -> local suffix on compute CPUs -> GPU, with bounded prefetching.  Given
  a sample -> shard ``placement``, the storage side is a sharded cluster
  with one CPU pool per shard.
"""

from repro.cluster.spec import ClusterSpec, standard_cluster
from repro.cluster.epoch_model import EpochEstimate, EpochMetrics, EpochModel
from repro.cluster.sim import Environment, Resource
from repro.cluster.trainer import EpochStats, TrainerSim, WorkAdjustment

__all__ = [
    "ClusterSpec",
    "Environment",
    "EpochEstimate",
    "EpochMetrics",
    "EpochModel",
    "EpochStats",
    "Resource",
    "TrainerSim",
    "WorkAdjustment",
    "standard_cluster",
]
