"""Byte-identity of the vectorized simulator against ``Pipeline.simulate``.

SampleRecord equality compares every stage size and cost float exactly, so
``seq == vec`` failing on any sample means a single bit diverged somewhere
in the RNG emulation, the size arithmetic, or the cost fold order.
"""

import dataclasses

import pytest

from repro.cluster.spec import standard_cluster
from repro.cluster.trainer import TrainerSim
from repro.core.policy import PolicyContext
from repro.core.profiler import StageOneProfiler
from repro.data.catalog import make_openimages
from repro.data.dataset import Dataset
from repro.parallel import build_records
from repro.parallel.vectorized import (
    build_records_vectorized,
    left_fold,
    simulate_batch,
)
from repro.preprocessing.cost_model import CostModel
from repro.preprocessing.ops import RandomHorizontalFlip, RandomResizedCrop, ToTensor
from repro.preprocessing.payload import StageMeta
from repro.preprocessing.pipeline import Pipeline, standard_pipeline
from repro.preprocessing.records import build_record
from repro.workloads.models import get_model_profile


def sequential_records(pipeline, dataset, seed, epoch=0, cost_model=None):
    return [
        build_record(
            pipeline,
            dataset.raw_meta(sample_id),
            sample_id,
            seed=seed,
            epoch=epoch,
            cost_model=cost_model,
        )
        for sample_id in range(len(dataset))
    ]


@pytest.mark.parametrize("seed", [0, 42])
@pytest.mark.parametrize("epoch", [0, 3])
def test_openimages_records_bit_identical(seed, epoch):
    dataset = make_openimages(num_samples=400, seed=7)
    pipeline = standard_pipeline()
    seq = sequential_records(pipeline, dataset, seed, epoch)
    vec = build_records_vectorized(
        pipeline,
        [dataset.raw_meta(i) for i in range(len(dataset))],
        list(range(len(dataset))),
        seed=seed,
        epoch=epoch,
    )
    assert seq == vec


def test_imagenet_records_bit_identical(imagenet_small):
    pipeline = standard_pipeline()
    seq = sequential_records(pipeline, imagenet_small, seed=3)
    vec = build_records_vectorized(
        pipeline,
        [imagenet_small.raw_meta(i) for i in range(len(imagenet_small))],
        list(range(len(imagenet_small))),
        seed=3,
    )
    assert seq == vec


def test_identical_under_custom_cost_model(openimages_small):
    pipeline = standard_pipeline()
    model = CostModel(cpu_speed_factor=2.5)
    seq = sequential_records(pipeline, openimages_small, seed=1, cost_model=model)
    vec = build_records_vectorized(
        pipeline,
        [openimages_small.raw_meta(i) for i in range(len(openimages_small))],
        list(range(len(openimages_small))),
        seed=1,
        cost_model=model,
    )
    assert seq == vec


def test_cached_cost_arrays_match_public_api(openimages_small):
    """prefix/suffix/total must equal a fresh fold over op_costs exactly."""
    pipeline = standard_pipeline()
    record = build_record(
        pipeline, openimages_small.raw_meta(0), 0, seed=0, epoch=0
    )
    n_ops = len(record.op_costs)
    for split in range(n_ops + 1):
        assert record.prefix_cost(split) == sum(record.op_costs[:split])
        assert record.suffix_cost(split) == sum(record.op_costs[split:])
    assert record.total_cost == sum(record.op_costs)


def test_simulate_batch_totals_match_sequential_fold(openimages_small):
    pipeline = standard_pipeline()
    metas = [openimages_small.raw_meta(i) for i in range(64)]
    _, costs = simulate_batch(pipeline, metas, list(range(64)), seed=5)
    totals = left_fold(costs)
    for i, total in enumerate(totals):
        record = build_record(
            pipeline, openimages_small.raw_meta(i), i, seed=5, epoch=0
        )
        assert total == record.total_cost


def test_nonuniform_dims_batch(openimages_small):
    """Lanes with different raw dims must not leak across each other."""
    pipeline = standard_pipeline()
    ids = [0, 17, 101, 33, 2]  # deliberately unsorted
    metas = [openimages_small.raw_meta(i) for i in ids]
    vec = build_records_vectorized(pipeline, metas, ids, seed=9)
    for record, sample_id in zip(vec, ids):
        assert record == build_record(
            pipeline, openimages_small.raw_meta(sample_id), sample_id, seed=9, epoch=0
        )


def test_mixed_kind_batch_rejected():
    from repro.parallel.vectorized import BatchMeta

    image = StageMeta.for_image(10, 10)
    tensor = StageMeta.for_tensor(10, 10, 3)
    with pytest.raises(ValueError, match="mixes payload kinds"):
        BatchMeta.from_metas([image, tensor])


class MixedKindDataset(Dataset):
    """Raw metas alternating decoded images and float tensors."""

    name = "mixed-kinds"

    def __len__(self) -> int:
        return 48

    def raw_meta(self, sample_id: int) -> StageMeta:
        side = 96 + 8 * (sample_id % 7)
        if sample_id % 2:
            return StageMeta.for_tensor(side, side + 16, 3)
        return StageMeta.for_image(side + 16, side)


def test_mixed_kind_dataset_matches_sequential_oracle():
    """Every profiling caller takes the same per-sample rule for mixed kinds."""
    dataset = MixedKindDataset()
    pipeline = Pipeline([RandomHorizontalFlip(), RandomResizedCrop(size=64), ToTensor()])
    spec = standard_cluster(storage_cores=48)
    model = get_model_profile("alexnet")
    ids = list(dataset.sample_ids())
    sequential = build_records(pipeline, dataset, seed=4, parallel="sequential")

    assert build_records(pipeline, dataset, seed=4, parallel="vectorized") == sequential
    context = PolicyContext(dataset=dataset, pipeline=pipeline, spec=spec, model=model, seed=4)
    assert context.records() == sequential

    probe = StageOneProfiler(probe_batches=2).probe(
        dataset, pipeline, spec, model, batch_size=16, seed=4
    )
    cpu_seconds = 0.0
    for sample_id in ids[:32]:
        run = pipeline.simulate(dataset.raw_meta(sample_id), seed=4, epoch=0, sample_id=sample_id)
        cpu_seconds += run.total_cost_s
    cpu_seconds = cpu_seconds * spec.compute_cpu_factor / spec.compute_cores
    assert probe.cpu_batches_per_s == 2 / cpu_seconds

    trainer = TrainerSim(dataset, pipeline, model, spec, seed=4)
    splits = [i % 4 for i in ids]
    fast = trainer.run_epoch(splits, epoch=1)
    reference = trainer.run_epoch(splits, epoch=1, kernel="reference")
    assert dataclasses.asdict(fast) == dataclasses.asdict(reference)
