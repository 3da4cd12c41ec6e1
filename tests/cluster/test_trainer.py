"""TrainerSim tests: the event-driven epoch against the analytic model."""

import dataclasses

import pytest

from repro.cluster.spec import standard_cluster
from repro.cluster.trainer import (
    KERNEL_CHOICES, TrainerSim, WorkAdjustment, round_robin_placement,
)
from repro.faults import FaultSchedule
from repro.parallel import vectorized
from repro.preprocessing.pipeline import Pipeline
from repro.workloads.models import get_model_profile


@pytest.fixture
def trainer(openimages_small, pipeline, alexnet):
    return TrainerSim(
        dataset=openimages_small,
        pipeline=pipeline,
        model=alexnet,
        spec=standard_cluster(storage_cores=8),
        batch_size=64,
        seed=0,
    )


class TestSampleWork:
    def test_split_zero_ships_raw(self, trainer, openimages_small):
        work = trainer.sample_work(0, split=0, epoch=0)
        assert work.wire_bytes == openimages_small.raw_meta(0).nbytes
        assert work.prefix_cpu_s == 0.0
        assert work.suffix_cpu_s > 0.0

    def test_full_split_ships_tensor(self, trainer):
        work = trainer.sample_work(0, split=5, epoch=0)
        assert work.wire_bytes == 224 * 224 * 3 * 4
        assert work.suffix_cpu_s == 0.0

    def test_split_two_ships_cropped_pixels(self, trainer):
        work = trainer.sample_work(0, split=2, epoch=0)
        assert work.wire_bytes == 224 * 224 * 3

    def test_costs_partition(self, trainer):
        full = trainer.sample_work(0, split=0, epoch=0).suffix_cpu_s
        for split in range(6):
            work = trainer.sample_work(0, split=split, epoch=0)
            assert work.prefix_cpu_s + work.suffix_cpu_s == pytest.approx(full)

    def test_invalid_split_rejected(self, trainer):
        with pytest.raises(ValueError):
            trainer.sample_work(0, split=6, epoch=0)


class TestDemotionFallback:
    @pytest.mark.parametrize("dataset_name", ["openimages_small", "imagenet_small"])
    @pytest.mark.parametrize("epoch", [0, 1, 3])
    def test_split_zero_columns_equal_sample_work(
        self, request, pipeline, alexnet, dataset_name, epoch
    ):
        dataset = request.getfixturevalue(dataset_name)
        trainer = TrainerSim(dataset, pipeline, alexnet, standard_cluster(), seed=4)
        fallback = trainer._fold_work(trainer._stages(epoch), None)
        for sample_id in range(0, len(dataset), 7):
            assert fallback[sample_id] == trainer.sample_work(sample_id, 0, epoch)

    @pytest.mark.parametrize("sharded", [False, True])
    def test_faulted_fast_epoch_runs_one_batch_simulation(
        self, openimages_small, pipeline, alexnet, monkeypatch, sharded
    ):
        # Demoted samples fall back to split-0 work folded from the epoch's
        # one simulate_batch call, never to the scalar Pipeline.simulate.
        spec = standard_cluster(storage_cores=8)
        placement = round_robin_placement(len(openimages_small), 3) if sharded else None
        trainer = TrainerSim(
            openimages_small, pipeline, alexnet, spec, batch_size=64, placement=placement
        )
        splits = [i % 6 for i in range(len(openimages_small))]
        base = trainer.run_epoch(splits, epoch=1)
        faults = FaultSchedule().with_crash(
            0.3 * base.epoch_time_s, duration=0.2 * base.epoch_time_s
        )

        def scalar(*args, **kwargs):
            raise AssertionError("scalar Pipeline.simulate on the fast path")

        calls = []
        batch = vectorized.simulate_batch

        def counting(*args, **kwargs):
            calls.append(args)
            return batch(*args, **kwargs)

        monkeypatch.setattr(Pipeline, "simulate", scalar)
        monkeypatch.setattr(vectorized, "simulate_batch", counting)
        stats = trainer.run_epoch(splits, epoch=1, faults=faults)
        assert stats.faults.demoted_samples > 0
        assert len(calls) == 1


class TestRunEpoch:
    def test_no_offload_traffic_is_raw_plus_overhead(self, trainer, openimages_small):
        stats = trainer.run_epoch(splits=None, epoch=0)
        spec = trainer.spec
        expected = openimages_small.total_raw_bytes + len(openimages_small) * spec.response_overhead_bytes
        assert stats.traffic_bytes == expected
        assert stats.offloaded_samples == 0

    def test_epoch_time_close_to_analytic_bound(self, trainer):
        from repro.cluster.epoch_model import EpochModel

        stats = trainer.run_epoch(splits=None, epoch=0)
        bound = EpochModel(trainer.spec).estimate(stats.analytic).epoch_time_s
        assert stats.epoch_time_s >= bound * 0.999
        assert stats.epoch_time_s <= bound * 1.25  # pipeline fill + jitter

    def test_offloading_reduces_traffic_for_large_samples(self, trainer, openimages_small):
        threshold = 224 * 224 * 3
        splits = [
            2 if openimages_small.raw_meta(i).nbytes > threshold else 0
            for i in range(len(openimages_small))
        ]
        base = trainer.run_epoch(splits=None, epoch=0)
        off = trainer.run_epoch(splits=splits, epoch=0)
        assert off.traffic_bytes < base.traffic_bytes
        assert off.epoch_time_s < base.epoch_time_s
        assert off.offloaded_samples == sum(1 for s in splits if s > 0)

    def test_storage_utilization_reported(self, trainer, openimages_small):
        splits = [2] * len(openimages_small)
        stats = trainer.run_epoch(splits=splits, epoch=0)
        assert 0.0 < stats.storage_cpu_utilization <= 1.0

    def test_gpu_utilization_in_range(self, trainer):
        stats = trainer.run_epoch(splits=None, epoch=0)
        assert 0.0 < stats.gpu_utilization <= 1.0

    def test_num_batches(self, trainer, openimages_small):
        stats = trainer.run_epoch(splits=None, epoch=0)
        assert stats.num_batches == (len(openimages_small) + 63) // 64

    def test_splits_length_validated(self, trainer):
        with pytest.raises(ValueError):
            trainer.run_epoch(splits=[0, 0], epoch=0)

    def test_offload_without_storage_cores_rejected(self, openimages_small, pipeline, alexnet):
        trainer = TrainerSim(
            openimages_small, pipeline, alexnet,
            spec=standard_cluster(storage_cores=0), batch_size=64,
        )
        with pytest.raises(ValueError):
            trainer.run_epoch(splits=[1] * len(openimages_small), epoch=0)

    @pytest.mark.parametrize("kernel", KERNEL_CHOICES)
    @pytest.mark.parametrize("bad", [1.7, float("nan")])
    def test_non_integral_split_rejected_at_first_sample(self, trainer, kernel, bad):
        # Not truncated to a whole op count: both work builders reject the
        # first such split, naming it, before any later bad one.
        splits = [0] * len(trainer.dataset)
        splits[3] = bad
        splits[7] = 2.5
        with pytest.raises(ValueError) as raised:
            trainer.run_epoch(splits=splits, epoch=0, kernel=kernel)
        assert str(raised.value) == f"bad split {bad} for 5-op pipeline"

    @pytest.mark.parametrize("kernel", KERNEL_CHOICES)
    def test_whole_float_split_runs_as_int(self, trainer, kernel):
        splits = [i % 3 for i in range(len(trainer.dataset))]
        as_floats = [float(split) for split in splits]
        assert trainer.run_epoch(as_floats, epoch=0, kernel=kernel) == trainer.run_epoch(
            splits, epoch=0, kernel=kernel
        )

    def test_deterministic(self, trainer):
        a = trainer.run_epoch(splits=None, epoch=1)
        b = trainer.run_epoch(splits=None, epoch=1)
        assert a.epoch_time_s == b.epoch_time_s
        assert a.traffic_bytes == b.traffic_bytes

    def test_fewer_storage_cores_never_faster(self, openimages_small, pipeline, alexnet):
        threshold = 224 * 224 * 3
        splits = [
            2 if openimages_small.raw_meta(i).nbytes > threshold else 0
            for i in range(len(openimages_small))
        ]
        times = []
        for cores in (1, 4, 16):
            trainer = TrainerSim(
                openimages_small, pipeline, alexnet,
                spec=standard_cluster(storage_cores=cores), batch_size=64,
            )
            times.append(trainer.run_epoch(splits=splits, epoch=0).epoch_time_s)
        assert times[0] >= times[1] >= times[2]


class TestWorkAdjustment:
    def test_adjustment_changes_wire_and_cpu(self, trainer):
        splits = [2] + [0] * (len(trainer.dataset) - 1)
        adj = {0: WorkAdjustment(wire_bytes_delta=-1000, extra_storage_cpu_s=0.001)}
        base = trainer.run_epoch(splits=splits, epoch=0)
        adjusted = trainer.run_epoch(splits=splits, epoch=0, adjustments=adj)
        assert adjusted.traffic_bytes == base.traffic_bytes - 1000

    def test_negative_wire_rejected(self, trainer):
        splits = [2] + [0] * (len(trainer.dataset) - 1)
        adj = {0: WorkAdjustment(wire_bytes_delta=-10**12)}
        with pytest.raises(ValueError):
            trainer.run_epoch(splits=splits, epoch=0, adjustments=adj)

    def test_storage_work_on_unoffloaded_sample_rejected(self, trainer):
        adj = {0: WorkAdjustment(extra_storage_cpu_s=0.5)}
        with pytest.raises(ValueError):
            trainer.run_epoch(splits=None, epoch=0, adjustments=adj)

    @pytest.mark.parametrize("kernel", KERNEL_CHOICES)
    @pytest.mark.parametrize(
        "field, value",
        [
            # Before validation NaN compute time ran silently and an
            # infinite storage time gave an inf epoch with NaN utilizations.
            ("extra_compute_cpu_s", float("nan")),
            ("extra_compute_cpu_s", float("inf")),
            ("extra_compute_cpu_s", -1e-3),
            ("extra_storage_cpu_s", float("inf")),
            ("extra_storage_cpu_s", float("nan")),
            ("extra_storage_cpu_s", -1e-3),
            ("wire_bytes_delta", -100.5),
            ("wire_bytes_delta", float("nan")),
            ("wire_bytes_delta", True),
        ],
    )
    def test_non_finite_or_mistyped_adjustment_rejected(self, trainer, kernel, field, value):
        splits = [2] + [0] * (len(trainer.dataset) - 1)
        with pytest.raises(ValueError, match=field):
            trainer.run_epoch(
                splits=splits, epoch=0, kernel=kernel,
                adjustments={0: WorkAdjustment(**{field: value})},
            )

    @pytest.mark.parametrize("kernel", KERNEL_CHOICES)
    def test_integral_deltas_of_either_sign_accepted(self, trainer, kernel):
        splits = [2] + [0] * (len(trainer.dataset) - 1)
        base = trainer.run_epoch(splits=splits, epoch=0, kernel=kernel)
        for delta in (-1000, 1000):
            adj = {0: WorkAdjustment(wire_bytes_delta=delta, extra_compute_cpu_s=0.0)}
            stats = trainer.run_epoch(splits=splits, epoch=0, kernel=kernel, adjustments=adj)
            assert stats.traffic_bytes == base.traffic_bytes + delta


class TestBandwidthScaling:
    def test_halving_bandwidth_roughly_doubles_io_bound_epoch(
        self, openimages_small, pipeline, alexnet
    ):
        times = {}
        for mbps in (500.0, 250.0):
            trainer = TrainerSim(
                openimages_small, pipeline, alexnet,
                spec=standard_cluster(storage_cores=8, bandwidth_mbps=mbps),
                batch_size=64,
            )
            times[mbps] = trainer.run_epoch(splits=None, epoch=0).epoch_time_s
        assert times[250.0] == pytest.approx(2 * times[500.0], rel=0.1)
