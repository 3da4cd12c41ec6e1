"""Sharded storage cluster tests: ``TrainerSim`` given a placement."""

import dataclasses
import math

import numpy as np
import pytest

from repro.cluster.spec import standard_cluster
from repro.cluster.trainer import EpochStats, TrainerSim, round_robin_placement
from repro.core.profiler import StageTwoProfiler
from repro.workloads.models import get_model_profile


@pytest.fixture(scope="module")
def splits(openimages_small, pipeline):
    records = StageTwoProfiler().profile(openimages_small, pipeline)
    return [r.min_stage for r in records]


def make_sim(dataset, pipeline, placement, cores_per_shard=1, **kwargs):
    return TrainerSim(
        dataset, pipeline, get_model_profile("alexnet"),
        standard_cluster(storage_cores=cores_per_shard),
        placement=placement, batch_size=64, **kwargs,
    )


class TestPlacements:
    def test_round_robin_spreads(self):
        placement = round_robin_placement(10, 3)
        assert placement == [0, 1, 2, 0, 1, 2, 0, 1, 2, 0]

    @pytest.mark.parametrize("num_shards", [0, -2, 1.5, True])
    def test_round_robin_needs_a_positive_shard_count(self, num_shards):
        with pytest.raises(ValueError, match="num_shards"):
            round_robin_placement(10, num_shards)



class TestShardedSim:
    def test_single_shard_matches_plain_trainer(self, openimages_small, pipeline, splits):
        # Both runs take the same code path, so every field is exactly equal.
        spec = standard_cluster(storage_cores=4)
        sharded = TrainerSim(
            openimages_small, pipeline, get_model_profile("alexnet"), spec,
            batch_size=64, placement=[0] * len(openimages_small),
        ).run_epoch(splits, epoch=0)
        plain = TrainerSim(
            openimages_small, pipeline, get_model_profile("alexnet"), spec,
            batch_size=64,
        ).run_epoch(splits, epoch=0)
        for field in dataclasses.fields(EpochStats):
            if field.name != "shard_utilization":
                assert getattr(sharded, field.name) == getattr(plain, field.name), field.name
        assert sharded.shard_utilization == [plain.storage_cpu_utilization]
        assert plain.shard_utilization == []

    def test_traffic_independent_of_placement(self, openimages_small, pipeline, splits):
        rr = make_sim(
            openimages_small, pipeline,
            round_robin_placement(len(openimages_small), 4),
        ).run_epoch(splits, epoch=0)
        n = len(openimages_small)
        contiguous = [min(4 * i // n, 3) for i in range(n)]
        cont = make_sim(openimages_small, pipeline, contiguous).run_epoch(splits, epoch=0)
        assert rr.traffic_bytes == cont.traffic_bytes

    def test_per_shard_utilization_reported(self, openimages_small, pipeline, splits):
        result = make_sim(
            openimages_small, pipeline,
            round_robin_placement(len(openimages_small), 4),
        ).run_epoch(splits, epoch=0)
        assert len(result.shard_utilization) == 4
        assert all(0.0 <= u <= 1.0 + 1e-9 for u in result.shard_utilization)

    def test_placement_length_validated(self, openimages_small, pipeline):
        with pytest.raises(ValueError):
            make_sim(openimages_small, pipeline, [0, 1])

    def test_negative_shard_rejected(self, openimages_small, pipeline):
        with pytest.raises(ValueError):
            make_sim(openimages_small, pipeline, [-1] * len(openimages_small))


class TestExplicitNumShards:
    def test_empty_shards_still_reported(self, openimages_small, pipeline, splits):
        """num_shards=8 with samples on 4 shards: 8 utilization entries."""
        placement = round_robin_placement(len(openimages_small), 4)
        result = make_sim(
            openimages_small, pipeline, placement, num_shards=8
        ).run_epoch(splits, epoch=0)
        assert len(result.shard_utilization) == 8
        assert all(u == 0.0 for u in result.shard_utilization[4:])

    def test_num_shards_defaults_to_inference(self, openimages_small, pipeline):
        sim = make_sim(
            openimages_small, pipeline,
            round_robin_placement(len(openimages_small), 3),
        )
        assert sim.num_shards == 3

    def test_num_shards_below_placement_rejected(self, openimages_small, pipeline):
        with pytest.raises(ValueError):
            make_sim(
                openimages_small, pipeline,
                round_robin_placement(len(openimages_small), 4), num_shards=2,
            )

    def test_nonpositive_num_shards_rejected(self, openimages_small, pipeline):
        with pytest.raises(ValueError):
            make_sim(openimages_small, pipeline, [0] * len(openimages_small), num_shards=0)

    @pytest.mark.parametrize("num_shards", [2.5, 2.0, True, math.nan])
    def test_non_integer_num_shards_rejected(self, openimages_small, pipeline, num_shards):
        # 2.5 used to raise TypeError and True ran as one shard.
        with pytest.raises(ValueError, match="num_shards"):
            make_sim(
                openimages_small, pipeline, [0] * len(openimages_small),
                num_shards=num_shards,
            )

    def test_num_shards_without_placement_rejected(self, openimages_small, pipeline):
        with pytest.raises(ValueError, match="num_shards needs a placement"):
            TrainerSim(
                openimages_small, pipeline, get_model_profile("alexnet"),
                standard_cluster(storage_cores=1), num_shards=2,
            )


class TestPlacementEntries:
    @pytest.mark.parametrize("shard", [0.0, math.nan, True, False, "0", None])
    def test_non_integer_shard_rejected_at_construction(
        self, openimages_small, pipeline, shard
    ):
        # Floats and NaN used to build fine and fail in run_epoch with a
        # TypeError; bools were taken as shards 0 and 1.
        placement = [0] * len(openimages_small)
        placement[-1] = shard
        with pytest.raises(ValueError, match="shard ids must be integers"):
            make_sim(openimages_small, pipeline, placement)

    def test_numpy_integers_become_ints(self, openimages_small, pipeline):
        # Span shard labels come from the placement; they must stay JSON ints.
        placement = round_robin_placement(len(openimages_small), 3)
        sim = make_sim(openimages_small, pipeline, np.array(placement, dtype=np.int64))
        assert sim.placement == placement
        assert {type(shard) for shard in sim.placement} == {int}


class TestOffloadValidation:
    def test_split_without_storage_cores_raises(self, openimages_small, pipeline):
        """The old sim silently granted max(storage_cores, 1) cores here."""
        sim = make_sim(
            openimages_small, pipeline,
            round_robin_placement(len(openimages_small), 2),
            cores_per_shard=0,
        )
        with pytest.raises(ValueError, match="no storage cores"):
            sim.run_epoch([1] * len(openimages_small), epoch=0)

    def test_no_off_plan_runs_without_storage_cores(
        self, openimages_small, pipeline
    ):
        result = make_sim(
            openimages_small, pipeline,
            round_robin_placement(len(openimages_small), 2),
            cores_per_shard=0,
        ).run_epoch(None, epoch=0)
        assert result.num_samples == len(openimages_small)
        assert result.shard_utilization == [0.0, 0.0]

    def test_plain_trainer_validates_too(self, openimages_small, pipeline):
        sim = TrainerSim(
            openimages_small, pipeline, get_model_profile("alexnet"),
            standard_cluster(storage_cores=0), batch_size=64,
        )
        with pytest.raises(ValueError, match="no storage cores"):
            sim.run_epoch([2] * len(openimages_small), epoch=0)


class TestShardedTelemetry:
    def test_full_base_signature_accepted(self, openimages_small, pipeline, splits):
        """The pre-fix sim raised TypeError on record_spans/record_timeline."""
        result = make_sim(
            openimages_small, pipeline,
            round_robin_placement(len(openimages_small), 4),
        ).run_epoch(
            splits, epoch=1, adjustments=None, record_timeline=True,
            faults=None, record_spans=True,
        )
        assert result.spans is not None
        assert result.timeline is not None
        assert result.timeline.epoch_end == pytest.approx(result.epoch_time_s)

    def test_byte_identity_with_tracing(self, openimages_small, pipeline, splits):
        placement = round_robin_placement(len(openimages_small), 4)
        plain = make_sim(openimages_small, pipeline, placement).run_epoch(
            splits, epoch=1
        )
        traced = make_sim(openimages_small, pipeline, placement).run_epoch(
            splits, epoch=1, record_spans=True, record_timeline=True
        )
        assert traced.epoch_time_s == plain.epoch_time_s
        assert traced.traffic_bytes == plain.traffic_bytes
        assert traced.shard_utilization == plain.shard_utilization

    def test_spans_carry_shard_labels(self, openimages_small, pipeline, splits):
        placement = round_robin_placement(len(openimages_small), 4)
        result = make_sim(openimages_small, pipeline, placement).run_epoch(
            splits, epoch=2, record_spans=True
        )
        fetches = [e for e in result.spans.events if e.name == "sample.fetch"
                   and e.phase == "B"]
        assert fetches
        for event in fetches:
            sample_id = int(event.trace_id.split("-")[0][1:])
            assert event.attrs["shard"] == placement[sample_id]
            assert event.trace_id.endswith("-e2")  # same ids as single-node
