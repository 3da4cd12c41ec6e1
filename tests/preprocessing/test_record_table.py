"""RecordTable: columnar records equal the sequential ``build_record`` loop.

The table's rows are what audit, serialization and every row-wise consumer
see, and its derived columns are what the decision engine ranks by, so
both must equal the scalar :class:`SampleRecord` values bit for bit.
"""

import json

import numpy as np
import pytest

from repro.data.catalog import make_imagenet, make_openimages
from repro.data.dataset import Dataset
from repro.parallel import build_records
from repro.preprocessing.ops import RandomHorizontalFlip, RandomResizedCrop, ToTensor
from repro.preprocessing.payload import BatchMeta, StageMeta
from repro.preprocessing.pipeline import Pipeline, standard_pipeline
from repro.preprocessing.records import RecordTable, SampleRecord, build_record, split_folds


class MixedKindDataset(Dataset):
    """Raw metas alternating decoded images and float tensors."""

    name = "mixed-kinds"

    def __len__(self) -> int:
        return 40

    def raw_meta(self, sample_id: int) -> StageMeta:
        side = 96 + 8 * (sample_id % 7)
        if sample_id % 2:
            return StageMeta.for_tensor(side, side + 16, 3)
        return StageMeta.for_image(side + 16, side)


def sequential(pipeline, dataset, seed):
    return [
        build_record(pipeline, dataset.raw_meta(i), i, seed=seed) for i in dataset.sample_ids()
    ]


def assert_columns_match_rows(table):
    for row, record in enumerate(table):
        assert table.min_stage[row] == record.min_stage
        assert table.best_savings[row] == record.best_savings
        assert table.best_cost[row] == record.prefix_cost(record.min_stage)
        assert table.offload_efficiency[row] == record.offload_efficiency
        assert table.raw_size[row] == record.raw_size
    for split in range(table.num_ops + 1):
        prefix, suffix = split_folds(table.op_costs, np.full(len(table), split))
        assert prefix == [record.prefix_cost(split) for record in table]
        assert suffix == [record.suffix_cost(split) for record in table]


@pytest.mark.parametrize(
    "dataset, pipeline",
    [
        (make_openimages(num_samples=300, seed=7), standard_pipeline()),
        (make_imagenet(num_samples=300, seed=2), standard_pipeline()),
        (
            MixedKindDataset(),
            Pipeline([RandomHorizontalFlip(), RandomResizedCrop(size=64), ToTensor()]),
        ),
    ],
    ids=["openimages", "imagenet", "mixed-kinds"],
)
def test_table_rows_equal_sequential_records(dataset, pipeline):
    table = build_records(pipeline, dataset, seed=4)
    assert isinstance(table, RecordTable)
    oracle = sequential(pipeline, dataset, seed=4)
    assert list(table) == oracle
    assert table == oracle and oracle == table
    assert [table[i] for i in range(len(table))] == oracle
    assert table[-1] == oracle[-1] and table[3:7] == oracle[3:7]
    assert_columns_match_rows(table)


def test_empty_prefix_stays_int_zero():
    """Audit JSON prints ``prefix_cpu_s`` of split 0 as ``0``, not ``0.0``."""
    table = build_records(standard_pipeline(), make_openimages(num_samples=8, seed=1), seed=1)
    for record in table:
        assert type(record.prefix_cost(0)) is int
        assert json.dumps(record.prefix_cost(0)) == "0"
        assert type(record.suffix_cost(record.num_ops)) is int
    no_ops = RecordTable([0, 1], np.array([[5], [7]]), np.zeros((2, 0)))
    prefix, suffix = split_folds(no_ops.op_costs, np.zeros(2, dtype=np.int64))
    assert prefix + suffix == [0] * 4 and all(type(t) is int for t in prefix + suffix)


def test_from_records_keeps_the_original_rows():
    records = [SampleRecord(i, (100, 40, 60), (0.01, 0.02)) for i in range(5)]
    table = RecordTable.from_records(records)
    assert all(row is record for row, record in zip(table, records))
    assert RecordTable.from_records(table) is table
    assert_columns_match_rows(table)


def test_ragged_records_rejected():
    records = [SampleRecord(0, (100, 40), (0.01,)), SampleRecord(1, (100, 40, 60), (0.01, 0.02))]
    with pytest.raises(ValueError, match="mix op counts"):
        RecordTable.from_records(records)


@pytest.mark.parametrize(
    "sizes, costs",
    [
        ([[10, 5], [10, -1]], [[0.1], [0.1]]),
        ([[10, 5], [10, 5]], [[0.1], [-0.1]]),
        ([[10, 5], [10, -1]], [[-0.1], [0.1]]),
        ([[10, 5, 3], [10, 5, 3]], [[0.1], [0.1]]),
    ],
    ids=["negative-size", "negative-cost", "first-row-wins", "width-mismatch"],
)
def test_validation_matches_sample_record(sizes, costs):
    """Same message as the first SampleRecord the rows would have built."""
    with pytest.raises(ValueError) as scalar:
        for row, (size_row, cost_row) in enumerate(zip(sizes, costs)):
            SampleRecord(row, tuple(size_row), tuple(cost_row))
    with pytest.raises(ValueError) as columnar:
        RecordTable([0, 1], np.array(sizes), np.array(costs, dtype=float))
    assert str(columnar.value) == str(scalar.value)


def test_min_stage_ties_and_free_prefixes():
    table = RecordTable(
        [0, 1, 2, 3],
        np.array([[100, 50, 50, 80], [50, 50, 60, 70], [100, 90, 80, 10], [100, 20, 30, 40]]),
        np.array([[0.1, 0.2, 0.3], [0.1, 0.1, 0.1], [0.1, 0.1, 0.1], [0.0, 0.5, 0.5]]),
    )
    assert table.min_stage.tolist() == [1, 0, 3, 1]
    assert table.offload_efficiency[1] == 0.0
    assert table.offload_efficiency[3] == float("inf")
    assert_columns_match_rows(table)


def test_trace_dataset_batch_meta_equals_per_sample_metas():
    dataset = make_openimages(num_samples=50, seed=3)
    ids = [4, 0, 49, 17]
    batch = dataset.raw_metas(ids)
    assert isinstance(batch, BatchMeta)
    assert [batch.lane(i) for i in range(len(ids))] == [dataset.raw_meta(i) for i in ids]
    with pytest.raises(IndexError, match=r"sample id 50 out of range"):
        dataset.raw_metas([3, 50, -1])


def test_epoch_metrics_are_the_scalar_sums():
    """Totals equal builtin sums of the rows' cached folds, in sample order."""
    table = build_records(standard_pipeline(), make_openimages(num_samples=200, seed=3), seed=3)
    splits = [(7 * i) % (table.num_ops + 1) for i in range(len(table))]
    metrics = table.epoch_metrics(1.5, 64, splits)
    assert metrics.gpu_time_s == 1.5
    assert metrics.compute_cpu_s == sum(r.suffix_cost(s) for r, s in zip(table, splits))
    assert metrics.storage_cpu_s == sum(r.prefix_cost(s) for r, s in zip(table, splits))
    assert metrics.traffic_bytes == sum(r.size_at(s) + 64 for r, s in zip(table, splits))
    with pytest.raises(ValueError, match="bad split 9"):
        table.epoch_metrics(0.0, 0, [9] * len(table))


def test_covering_rejects_ids_not_from_zero():
    records = [SampleRecord(i, (10, 5), (0.1,)) for i in (1, 0)]
    with pytest.raises(ValueError, match="ordered by sample id covering 0..n-1"):
        RecordTable.covering(records)
    assert len(RecordTable.covering(records[::-1])) == 2
