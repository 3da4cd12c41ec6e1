"""Decision engine tests: the greedy efficiency-ordered selection."""

import pytest

from repro.cluster.epoch_model import EpochMetrics, EpochModel
from repro.cluster.spec import standard_cluster
from repro.core.decision import DecisionConfig, DecisionEngine
from repro.core.profiler import StageTwoProfiler
from repro.preprocessing.records import SampleRecord

CROP = 224 * 224 * 3


def record(sample_id, raw, prefix_cost=0.01):
    """A record shaped like the real pipeline: min at stage 2 iff raw > CROP."""
    sizes = (raw, raw * 4, CROP, CROP, CROP * 4, CROP * 4)
    costs = (prefix_cost * 0.8, prefix_cost * 0.2, 0.0001, 0.0005, 0.0008)
    return SampleRecord(sample_id, sizes, costs)


@pytest.fixture
def engine():
    return DecisionEngine()


class TestBasicPlans:
    def test_no_storage_cores_plans_nothing(self, engine):
        records = [record(0, 10 * CROP)]
        plan = engine.plan(records, standard_cluster(storage_cores=0), gpu_time_s=0.1)
        assert plan.num_offloaded == 0
        assert "no CPU cores" in plan.reason

    def test_no_beneficial_samples_plans_nothing(self, engine):
        records = [record(i, CROP // 2) for i in range(10)]
        plan = engine.plan(records, standard_cluster(), gpu_time_s=0.1)
        assert plan.num_offloaded == 0
        assert "positive offloading efficiency" in plan.reason

    def test_beneficial_samples_offloaded_at_min_stage(self, engine):
        records = [record(0, 3 * CROP), record(1, CROP // 2)]
        plan = engine.plan(records, standard_cluster(), gpu_time_s=0.001)
        assert plan.split_for(0) == 2
        assert plan.split_for(1) == 0

    def test_expected_estimate_attached(self, engine):
        records = [record(i, 2 * CROP) for i in range(5)]
        plan = engine.plan(records, standard_cluster(), gpu_time_s=0.001)
        assert plan.expected is not None
        assert plan.expected.epoch_time_s > 0


class TestGreedyOrder:
    def test_highest_efficiency_first_under_scarcity(self, engine):
        # One core and a tiny budget: only the best sample should fit
        # before T_CS catches T_Net.
        spec = standard_cluster(storage_cores=1)
        records = [
            record(0, 10 * CROP, prefix_cost=0.050),  # high savings, efficient
            record(1, 2 * CROP, prefix_cost=0.050),  # same cost, less savings
        ]
        # Shrink the network so T_Net is small and one offload flips it.
        spec = spec.with_bandwidth(5000.0)
        plan = engine.plan(records, spec, gpu_time_s=0.0)
        if plan.num_offloaded == 1:
            assert plan.split_for(0) == 2
            assert plan.split_for(1) == 0

    def test_stops_when_network_not_predominant(self, engine):
        # Huge GPU time: network is never the bottleneck -> no offloads.
        records = [record(i, 5 * CROP) for i in range(20)]
        plan = engine.plan(records, standard_cluster(), gpu_time_s=10_000.0)
        assert plan.num_offloaded == 0
        assert "network no longer predominant" in plan.reason
        assert "gpu" in plan.reason

    def test_offloads_everything_beneficial_with_ample_cores(
        self, engine, openimages_small, pipeline
    ):
        records = StageTwoProfiler().profile(openimages_small, pipeline)
        plan = engine.plan(records, standard_cluster(storage_cores=48), gpu_time_s=0.1)
        beneficial = sum(1 for r in records if r.offload_efficiency > 0)
        assert plan.num_offloaded == beneficial

    def test_scarce_cores_shrink_the_plan(self, engine, openimages_small, pipeline):
        records = StageTwoProfiler().profile(openimages_small, pipeline)
        sizes = {}
        for cores in (1, 4, 48):
            plan = engine.plan(
                records, standard_cluster(storage_cores=cores), gpu_time_s=0.1
            )
            sizes[cores] = plan.num_offloaded
        assert sizes[1] < sizes[4] <= sizes[48]

    def test_plan_never_worse_than_baseline(self, engine, openimages_small, pipeline):
        records = StageTwoProfiler().profile(openimages_small, pipeline)
        for cores in (1, 2, 8):
            spec = standard_cluster(storage_cores=cores)
            plan = engine.plan(records, spec, gpu_time_s=0.1)
            baseline_traffic = sum(r.raw_size for r in records) + len(records) * spec.response_overhead_bytes
            baseline = EpochModel(spec).estimate(
                EpochMetrics(
                    gpu_time_s=0.1,
                    compute_cpu_s=sum(r.total_cost for r in records),
                    storage_cpu_s=0.0,
                    traffic_bytes=float(baseline_traffic),
                )
            )
            assert plan.expected.epoch_time_s <= baseline.epoch_time_s + 1e-9


class TestOrderingConfig:
    def records_mixed(self):
        # Sample 0: huge savings, huge cost (efficiency modest).
        # Sample 1: modest savings, tiny cost (efficiency high).
        return [
            record(0, 20 * CROP, prefix_cost=2.0),
            record(1, 2 * CROP, prefix_cost=0.001),
        ]

    def test_efficiency_order_takes_cheap_sample_first(self):
        spec = standard_cluster(storage_cores=1, bandwidth_mbps=100.0)
        plan = DecisionEngine(DecisionConfig(order="efficiency")).plan(
            self.records_mixed(), spec, gpu_time_s=0.0
        )
        # Both may fit; but if only one did, it would be sample 1.  Verify
        # ranking directly through the candidate metric.
        recs = self.records_mixed()
        assert recs[1].offload_efficiency > recs[0].offload_efficiency
        assert plan.split_for(1) > 0

    def test_savings_order_takes_biggest_sample_first(self):
        # The tiny population makes the stop rule fire after one admission,
        # exposing which candidate each ordering ranks first.
        recs = self.records_mixed()
        assert recs[0].best_savings > recs[1].best_savings
        plan = DecisionEngine(DecisionConfig(order="savings", never_worsen=False)).plan(
            recs, standard_cluster(storage_cores=48), gpu_time_s=0.0
        )
        assert plan.split_for(0) > 0  # biggest-savings sample admitted first

    def test_arrival_order_takes_lowest_id_first(self):
        plan = DecisionEngine(DecisionConfig(order="arrival", never_worsen=False)).plan(
            self.records_mixed(), standard_cluster(storage_cores=48), gpu_time_s=0.0
        )
        assert plan.split_for(0) > 0

    def test_unknown_order_rejected(self):
        with pytest.raises(ValueError, match="order"):
            DecisionConfig(order="best-first")

    @pytest.mark.parametrize("epsilon_s", [float("nan"), float("inf"), -1.0])
    def test_epsilon_must_be_finite_and_non_negative(self, epsilon_s):
        # NaN or inf silently switched off never_worsen; -1 offloaded nothing.
        with pytest.raises(ValueError, match="epsilon_s"):
            DecisionConfig(epsilon_s=epsilon_s)

    def test_orders_converge_with_ample_cores(self, openimages_small, pipeline):
        records = StageTwoProfiler().profile(openimages_small, pipeline)
        spec = standard_cluster(storage_cores=48)
        plans = {
            order: DecisionEngine(DecisionConfig(order=order)).plan(
                records, spec, gpu_time_s=0.1
            )
            for order in ("efficiency", "savings", "arrival")
        }
        offloaded = {sorted_tuple for sorted_tuple in
                     {tuple(sorted(i for i, s in enumerate(p.splits) if s > 0))
                      for p in plans.values()}}
        assert len(offloaded) == 1  # identical offload sets


class TestNeverWorsenGuard:
    def overshoot_scenario(self):
        # Network-bound baseline (slow link), but the only beneficial
        # sample's prefix costs 50 CPU-seconds: offloading it onto the
        # single storage core would make T_CS the new, *worse* bottleneck.
        spec = standard_cluster(storage_cores=1, bandwidth_mbps=5.0)
        records = [record(0, 50 * CROP, prefix_cost=50.0)]
        return spec, records

    def test_guard_skips_overshooting_samples(self):
        spec, records = self.overshoot_scenario()
        guarded = DecisionEngine(DecisionConfig(never_worsen=True)).plan(
            records, spec, gpu_time_s=0.0
        )
        assert guarded.num_offloaded == 0
        assert "skipped" in guarded.reason

    def test_unguarded_engine_takes_the_sample(self):
        spec, records = self.overshoot_scenario()
        raw = DecisionEngine(DecisionConfig(never_worsen=False)).plan(
            records, spec, gpu_time_s=0.0
        )
        assert raw.num_offloaded == 1

    def test_guard_preserves_good_samples(self, openimages_small, pipeline):
        records = StageTwoProfiler().profile(openimages_small, pipeline)
        spec = standard_cluster(storage_cores=48)
        guarded = DecisionEngine(DecisionConfig(never_worsen=True)).plan(
            records, spec, gpu_time_s=0.1
        )
        unguarded = DecisionEngine(DecisionConfig(never_worsen=False)).plan(
            records, spec, gpu_time_s=0.1
        )
        # With ample cores nothing overshoots, so the guard changes nothing.
        assert list(guarded.splits) == list(unguarded.splits)
