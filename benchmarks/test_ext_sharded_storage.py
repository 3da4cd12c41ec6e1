"""Extension: sharded storage clusters and placement skew.

The paper's storage side is a distributed cluster; "storage cores" is
really per-node CPU behind the shared egress.  With the offload-heavy
samples spread round-robin, four 1-core shards behave like the aggregate;
with a skewed placement (all heavy samples on one shard, as naive
contiguous ingest can produce when sizes correlate with ingest order), the
hot shard becomes the bottleneck while its siblings idle.
"""

import numpy as np
import pytest

from benchmarks.conftest import run_once
from repro.cluster.spec import standard_cluster
from repro.cluster.trainer import TrainerSim, round_robin_placement
from repro.core.profiler import StageTwoProfiler
from repro.data.trace import TraceDataset
from repro.utils.tables import render_table
from repro.workloads.models import get_model_profile

SHARDS = 4


def skewed_dataset_and_placement(openimages):
    """Sort samples by size, then place contiguously: shard 0 gets all the
    big (offload-heavy) samples."""
    order = sorted(
        openimages.sample_ids(),
        key=lambda i: openimages.raw_meta(i).nbytes,
        reverse=True,
    )
    sizes = [openimages.raw_meta(i).nbytes for i in order]
    heights = [openimages.raw_meta(i).height for i in order]
    widths = [openimages.raw_meta(i).width for i in order]
    dataset = TraceDataset(sizes, heights, widths, name="oi-sorted")
    per_shard = (len(dataset) + SHARDS - 1) // SHARDS
    placement = [min(i // per_shard, SHARDS - 1) for i in range(len(dataset))]
    return dataset, placement


def test_ext_sharded_storage(benchmark, openimages, pipeline):
    model = get_model_profile("alexnet")
    spec = standard_cluster(storage_cores=1)  # per shard

    def regenerate():
        records = StageTwoProfiler().profile(openimages, pipeline, seed=7)
        splits = [r.min_stage for r in records]

        spread = TrainerSim(
            openimages, pipeline, model, spec,
            placement=round_robin_placement(len(openimages), SHARDS),
            batch_size=256, seed=7,
        ).run_epoch(splits, epoch=0)

        skewed_ds, skew_placement = skewed_dataset_and_placement(openimages)
        skew_records = StageTwoProfiler().profile(skewed_ds, pipeline, seed=7)
        skew_splits = [r.min_stage for r in skew_records]
        skewed = TrainerSim(
            skewed_ds, pipeline, model, spec,
            placement=skew_placement, batch_size=256, seed=7,
        ).run_epoch(skew_splits, epoch=0)

        aggregate = TrainerSim(
            openimages, pipeline, model,
            standard_cluster(storage_cores=SHARDS),
            batch_size=256, seed=7,
        ).run_epoch(splits, epoch=0)
        return spread, skewed, aggregate

    spread, skewed, aggregate = run_once(benchmark, regenerate)

    print(f"\n{SHARDS} shards x 1 core vs one {SHARDS}-core node:")
    print(render_table(
        ("Configuration", "Epoch", "Shard utilizations"),
        [
            ("aggregate (1 node x 4 cores)", f"{aggregate.epoch_time_s:.2f}s", "-"),
            (
                "4 shards, round-robin",
                f"{spread.epoch_time_s:.2f}s",
                [f"{u:.0%}" for u in spread.shard_utilization],
            ),
            (
                "4 shards, size-skewed",
                f"{skewed.epoch_time_s:.2f}s",
                [f"{u:.0%}" for u in skewed.shard_utilization],
            ),
        ],
    ))

    # Balanced shards approximate the aggregate pool.
    assert spread.epoch_time_s == pytest.approx(aggregate.epoch_time_s, rel=0.15)

    # Skew makes one shard hot while others idle, and costs real time.
    hot = max(skewed.shard_utilization)
    cold = min(skewed.shard_utilization)
    assert hot > 0.9
    assert cold < 0.2
    assert skewed.epoch_time_s > spread.epoch_time_s * 1.5

    # The spread placement keeps shard load even.
    assert max(spread.shard_utilization) - min(spread.shard_utilization) < 0.25