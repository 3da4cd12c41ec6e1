"""SampleRecord tests: min stage, savings, efficiency."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.preprocessing.payload import StageMeta
from repro.preprocessing.pipeline import standard_pipeline
from repro.preprocessing.records import SampleRecord, best_split, build_record

CROP_BYTES = 224 * 224 * 3


def record(sizes, costs=None, sample_id=0):
    if costs is None:
        costs = [0.01] * (len(sizes) - 1)
    return SampleRecord(sample_id=sample_id, stage_sizes=tuple(sizes), op_costs=tuple(costs))


class TestValidation:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SampleRecord(0, (10, 20), (0.1, 0.2))

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            record([10, -1, 5])

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            record([10, 20, 5], costs=[0.1, -0.1])


class TestMinStage:
    def test_raw_smallest(self):
        rec = record([100, 500, 200, 200, 800, 800])
        assert rec.min_stage == 0
        assert rec.min_size == 100
        assert rec.offload_efficiency == 0.0

    def test_intermediate_smallest(self):
        rec = record([400, 900, 150, 150, 600, 600])
        assert rec.min_stage == 2  # tie between 2 and 3 breaks earlier
        assert rec.min_size == 150

    def test_tie_with_raw_prefers_raw(self):
        rec = record([150, 900, 150, 150, 600, 600])
        assert rec.min_stage == 0

    def test_min_stage_computed_once_at_construction(self):
        rec = record([400, 900, 150, 150, 600, 600])
        assert vars(rec)["_min_stage"] == 2
        assert rec.min_stage is rec.min_stage

    @given(sizes=st.lists(st.integers(0, 6), min_size=1, max_size=7))
    @settings(max_examples=80, deadline=None)
    def test_cached_min_stage_is_the_earliest_smallest(self, sizes):
        rec = record(sizes)
        assert rec.min_stage == min(range(len(sizes)), key=lambda k: (sizes[k], k))


class TestCosts:
    def test_prefix_suffix_partition_total(self):
        rec = record([5, 4, 3, 2, 1, 1], costs=[0.1, 0.2, 0.3, 0.4, 0.5])
        for split in range(6):
            assert rec.prefix_cost(split) + rec.suffix_cost(split) == pytest.approx(
                rec.total_cost
            )

    def test_prefix_cost_bounds_checked(self):
        rec = record([5, 4], costs=[0.1])
        with pytest.raises(ValueError):
            rec.prefix_cost(2)
        with pytest.raises(ValueError):
            rec.suffix_cost(-1)


class TestEfficiency:
    def test_efficiency_is_savings_over_prefix_cost(self):
        rec = record([1000, 5000, 400, 400, 1600, 1600], costs=[0.1, 0.1, 0.1, 0.1, 0.1])
        assert rec.min_stage == 2
        assert rec.savings(2) == 600
        assert rec.offload_efficiency == pytest.approx(600 / 0.2)

    def test_zero_cost_prefix_gives_infinite_efficiency(self):
        rec = record([1000, 400], costs=[0.0])
        assert rec.offload_efficiency == float("inf")

    @given(
        raw=st.integers(1, 10_000_000),
        mid=st.integers(1, 10_000_000),
    )
    @settings(max_examples=50, deadline=None)
    def test_efficiency_nonnegative(self, raw, mid):
        rec = record([raw, raw * 3, mid, mid, mid * 4, mid * 4])
        assert rec.offload_efficiency >= 0.0


class TestBuildRecord:
    def test_build_from_pipeline_simulation(self):
        pipe = standard_pipeline()
        meta = StageMeta.for_encoded(300_000, 600, 800)
        rec = build_record(pipe, meta, sample_id=3, seed=0)
        assert rec.sample_id == 3
        assert rec.stage_sizes[0] == 300_000
        assert rec.stage_sizes[2] == CROP_BYTES
        assert rec.min_stage == 2  # raw 300 KB > 147 KB crop
        assert len(rec.op_costs) == 5

    def test_small_sample_prefers_raw(self):
        pipe = standard_pipeline()
        meta = StageMeta.for_encoded(50_000, 300, 400)
        rec = build_record(pipe, meta, sample_id=0, seed=0)
        assert rec.min_stage == 0

    def test_best_split_vectorizes(self):
        pipe = standard_pipeline()
        records = [
            build_record(pipe, StageMeta.for_encoded(nbytes, 600, 800), i, seed=0)
            for i, nbytes in enumerate([50_000, 300_000])
        ]
        assert best_split(records) == [0, 2]


class TestProgressiveRecord:
    def make(self, scan_sizes=(100, 250, 1000), psnrs=(20.0, 35.0, float("inf"))):
        from repro.preprocessing.records import ProgressiveSampleRecord

        sizes = (scan_sizes[-1], 4000, 500, 500, 2000, 2000)
        costs = (0.01,) * 5
        return ProgressiveSampleRecord(
            0, sizes, costs, scan_sizes=scan_sizes, scan_psnr_db=psnrs
        )

    def test_fidelity_accessors(self):
        rec = self.make()
        assert rec.num_scans == 3
        assert rec.size_at_fidelity(1) == 100
        assert rec.size_at_fidelity(3) == rec.raw_size == 1000
        assert rec.psnr_at(2) == 35.0
        assert rec.fidelity_savings(2) == 750

    def test_out_of_range_scan_counts_rejected(self):
        rec = self.make()
        for count in (0, 4):
            with pytest.raises(ValueError):
                rec.size_at_fidelity(count)
            with pytest.raises(ValueError):
                rec.psnr_at(count)

    def test_requires_at_least_one_scan(self):
        from repro.preprocessing.records import ProgressiveSampleRecord

        with pytest.raises(ValueError):
            ProgressiveSampleRecord(
                0,
                (1000, 4000, 500, 500, 2000, 2000),
                (0.01,) * 5,
                scan_sizes=(),
                scan_psnr_db=(),
            )

    def test_psnr_and_size_lengths_must_match(self):
        with pytest.raises(ValueError):
            self.make(psnrs=(20.0, float("inf")))

    def test_sizes_must_strictly_increase(self):
        with pytest.raises(ValueError):
            self.make(scan_sizes=(100, 100, 1000))

    def test_full_prefix_must_equal_raw_stage(self):
        from repro.preprocessing.records import ProgressiveSampleRecord

        with pytest.raises(ValueError):
            ProgressiveSampleRecord(
                0,
                (999, 4000, 500, 500, 2000, 2000),
                (0.01,) * 5,
                scan_sizes=(100, 1000),
                scan_psnr_db=(20.0, float("inf")),
            )

    def test_psnr_must_be_monotone_and_end_at_inf(self):
        with pytest.raises(ValueError):
            self.make(psnrs=(35.0, 20.0, float("inf")))
        with pytest.raises(ValueError):
            self.make(psnrs=(20.0, 35.0, 50.0))
